(* Event/span tracer: the observability backbone.

   Follows the sanitizer's Hooks discipline: the record is always
   present, [on] defaults to [false], and every call site is gated on a
   direct [t.on] load — one load-and-branch when the tracer is off, so
   attaching the machinery costs nothing measurable in plain runs.

   Events live in a bounded ring of five parallel int arrays (no
   per-event allocation). When the ring fills, later events are counted
   in [dropped] and discarded — keep-oldest, so a truncated trace is
   still a chronological prefix of span *closures*. All timestamps are
   simulated cycles: with a fixed seed and configuration the event
   stream is byte-identical run to run, which is what makes the golden
   trace corpus possible. *)

(* Event codes. Each event is (cycle, code, core, a, b); [core] is -1
   for machine-global events. *)
let ev_phase = 1 (* per-core phase span: a = phase id, b = duration *)
let ev_stall = 2 (* per-core stall run:  a = stall id, b = duration *)
let ev_sample = 3 (* counter sample: a = gray backlog words, b = FIFO depth *)
let ev_fifo_overflow = 4 (* overflow episode: a = dropped pushes, b = duration *)
let ev_skip = 5 (* kernel fast-forward: b = skipped span *)

(* Per-core phases (the microprogram states folded to the paper's
   algorithm-level structure). *)
let phase_init = 0
let phase_roots = 1
let phase_barrier = 2
let phase_scan = 3
let phase_copy = 4
let phase_flush = 5
let phase_halt = 6

let phase_name = function
  | 0 -> "init"
  | 1 -> "roots"
  | 2 -> "barrier"
  | 3 -> "scan"
  | 4 -> "copy"
  | 5 -> "flush"
  | _ -> "halt"

(* Stall ids, in the paper's Table II column order (matching
   [Hsgc_coproc.Counters.all_stalls]). *)
let stall_names =
  [|
    "scan-lock"; "free-lock"; "header-lock"; "body-load"; "body-store";
    "header-load"; "header-store";
  |]

let stall_name k =
  if k >= 0 && k < Array.length stall_names then stall_names.(k) else "?"

(* Lock ids for hold-time accounting (same numbering as the sanitizer's
   hook constants, so call sites can share them). *)
let lock_scan = 0
let lock_header = 1
let lock_free = 2

(* Memory-transaction kinds for latency histograms. *)
let mem_header_load = 0
let mem_header_store = 1
let mem_body_load = 2
let mem_body_store = 3

type t = {
  mutable on : bool;
  mutable cycle : int;  (* stamped by the owning simulator each cycle *)
  capacity : int;
  ev_cycle : int array;
  ev_code : int array;
  ev_core : int array;
  ev_a : int array;
  ev_b : int array;
  mutable len : int;
  mutable dropped : int;
  n_cores : int;
  (* per-core phase tracking: the open phase and its start cycle *)
  cur_phase : int array;  (* -1 = none yet *)
  phase_start : int array;
  (* per-core stall-run merging: consecutive same-kind stall cycles
     collapse into one span event *)
  run_kind : int array;  (* -1 = no open run *)
  run_start : int array;
  run_len : int array;
  (* FIFO overflow episode (a streak of unbuffered pushes) *)
  mutable ovf_start : int;  (* -1 = no open episode *)
  mutable ovf_count : int;
  (* counter sampling *)
  interval : int;
  mutable next_sample : int;
  (* lock-acquisition stamps for hold-time histograms: scan and free are
     single-owner machine-global, header locks are per core *)
  mutable scan_acquired : int;
  mutable free_acquired : int;
  header_acquired : int array;
  (* per-core whole-object scan start, for the scan-latency histogram *)
  object_start : int array;
  metrics : Metrics.t;
  hist_hold_scan : Metrics.hist;
  hist_hold_header : Metrics.hist;
  hist_hold_free : Metrics.hist;
  hist_object_latency : Metrics.hist;
  hist_mem : Metrics.hist array;  (* indexed by mem_* kind *)
  ctr_events : Metrics.counter;
  ctr_dropped : Metrics.counter;
}

let default_capacity = 1 lsl 18

let create ?(capacity = default_capacity) ?(interval = 256) ~n_cores () =
  if capacity < 0 then invalid_arg "Tracer.create: capacity";
  if interval < 1 then invalid_arg "Tracer.create: interval";
  if n_cores < 0 then invalid_arg "Tracer.create: n_cores";
  let metrics = Metrics.create () in
  {
    on = false;
    cycle = 0;
    capacity;
    ev_cycle = Array.make (max 1 capacity) 0;
    ev_code = Array.make (max 1 capacity) 0;
    ev_core = Array.make (max 1 capacity) 0;
    ev_a = Array.make (max 1 capacity) 0;
    ev_b = Array.make (max 1 capacity) 0;
    len = 0;
    dropped = 0;
    n_cores;
    cur_phase = Array.make (max 1 n_cores) (-1);
    phase_start = Array.make (max 1 n_cores) 0;
    run_kind = Array.make (max 1 n_cores) (-1);
    run_start = Array.make (max 1 n_cores) 0;
    run_len = Array.make (max 1 n_cores) 0;
    ovf_start = -1;
    ovf_count = 0;
    interval;
    next_sample = 0;
    scan_acquired = 0;
    free_acquired = 0;
    header_acquired = Array.make (max 1 n_cores) 0;
    object_start = Array.make (max 1 n_cores) 0;
    metrics;
    hist_hold_scan = Metrics.hist metrics "scan-lock hold cycles";
    hist_hold_header = Metrics.hist metrics "header-lock hold cycles";
    hist_hold_free = Metrics.hist metrics "free-lock hold cycles";
    hist_object_latency = Metrics.hist metrics "per-object scan latency";
    hist_mem =
      [|
        Metrics.hist metrics "header-load latency";
        Metrics.hist metrics "header-store latency";
        Metrics.hist metrics "body-load latency";
        Metrics.hist metrics "body-store latency";
      |];
    ctr_events = Metrics.counter metrics "trace events kept";
    ctr_dropped = Metrics.counter metrics "trace events dropped";
  }

(* A single never-enabled instance usable as the default for components
   created without observability. It is never written (every mutation
   site is gated on [on]), so sharing it across domains is safe. *)
let disabled = create ~capacity:0 ~n_cores:0 ()

let enable t = t.on <- true
let metrics t = t.metrics
let length t = t.len
let dropped t = t.dropped
let n_cores t = t.n_cores

let emit t ~cycle ~code ~core ~a ~b =
  if t.len < t.capacity then begin
    let i = t.len in
    t.ev_cycle.(i) <- cycle;
    t.ev_code.(i) <- code;
    t.ev_core.(i) <- core;
    t.ev_a.(i) <- a;
    t.ev_b.(i) <- b;
    t.len <- i + 1
  end
  else t.dropped <- t.dropped + 1

(* --- per-core phases ------------------------------------------------ *)

let set_phase t ~core ~phase ~cycle =
  let p = t.cur_phase.(core) in
  if p <> phase then begin
    if p >= 0 then
      emit t ~cycle:t.phase_start.(core) ~code:ev_phase ~core ~a:p
        ~b:(cycle - t.phase_start.(core));
    t.cur_phase.(core) <- phase;
    t.phase_start.(core) <- cycle
  end

(* --- per-core stall runs -------------------------------------------- *)

let stall_run t ~core ~kind ~cycle ~span =
  if t.run_kind.(core) = kind && t.run_start.(core) + t.run_len.(core) = cycle
  then t.run_len.(core) <- t.run_len.(core) + span
  else begin
    if t.run_kind.(core) >= 0 then
      emit t ~cycle:t.run_start.(core) ~code:ev_stall ~core
        ~a:t.run_kind.(core) ~b:t.run_len.(core);
    t.run_kind.(core) <- kind;
    t.run_start.(core) <- cycle;
    t.run_len.(core) <- span
  end

(* --- counter samples ------------------------------------------------ *)

let sample_due t ~cycle = cycle >= t.next_sample

let sample t ~cycle ~backlog ~fifo_depth =
  emit t ~cycle ~code:ev_sample ~core:(-1) ~a:backlog ~b:fifo_depth;
  t.next_sample <- cycle + t.interval

(* Samples inside a fast-forwarded span. The skipped cycles are
   quiescent — the machine signals are frozen at their current values —
   so naive stepping would have emitted one sample at each elapsed grid
   point carrying exactly these values. Emitting them here, stamped at
   the grid points themselves, keeps the event stream byte-identical
   across stepping strategies. *)
let catch_up_samples t ~target ~backlog ~fifo_depth =
  while t.next_sample < target do
    emit t ~cycle:t.next_sample ~code:ev_sample ~core:(-1) ~a:backlog
      ~b:fifo_depth;
    t.next_sample <- t.next_sample + t.interval
  done

(* --- FIFO overflow episodes ----------------------------------------- *)

let fifo_push t ~buffered =
  if buffered then begin
    if t.ovf_start >= 0 then begin
      emit t ~cycle:t.ovf_start ~code:ev_fifo_overflow ~core:(-1)
        ~a:t.ovf_count ~b:(t.cycle - t.ovf_start);
      t.ovf_start <- -1;
      t.ovf_count <- 0
    end
  end
  else begin
    if t.ovf_start < 0 then t.ovf_start <- t.cycle;
    t.ovf_count <- t.ovf_count + 1
  end

(* --- lock hold times ------------------------------------------------ *)

let lock_acquired t ~lock ~core =
  if lock = lock_scan then t.scan_acquired <- t.cycle
  else if lock = lock_free then t.free_acquired <- t.cycle
  else t.header_acquired.(core) <- t.cycle

let lock_released t ~lock ~core =
  if lock = lock_scan then
    Metrics.observe t.hist_hold_scan (t.cycle - t.scan_acquired)
  else if lock = lock_free then
    Metrics.observe t.hist_hold_free (t.cycle - t.free_acquired)
  else
    Metrics.observe t.hist_hold_header (t.cycle - t.header_acquired.(core))

(* Bulk credit for [n] skipped termination probes, the last at cycle
   [last]. Each would have taken and released the scan lock within its
   cycle: a zero-cycle hold, and an acquisition stamp at its cycle. *)
let scan_probes t ~last ~n =
  Metrics.observe_n t.hist_hold_scan 0 n;
  if last > t.scan_acquired then t.scan_acquired <- last

(* --- per-object scan latency ---------------------------------------- *)

let object_begun t ~core = t.object_start.(core) <- t.cycle

let object_done t ~core =
  Metrics.observe t.hist_object_latency (t.cycle - t.object_start.(core))

(* --- memory-transaction latency ------------------------------------- *)

let mem_done t ~kind ~latency = Metrics.observe t.hist_mem.(kind) latency

(* --- kernel fast-forward spans -------------------------------------- *)

let skip_span t ~cycle ~span =
  emit t ~cycle ~code:ev_skip ~core:(-1) ~a:0 ~b:span

(* --- finalization --------------------------------------------------- *)

let finish t ~cycle =
  for core = 0 to t.n_cores - 1 do
    if t.run_kind.(core) >= 0 then begin
      emit t ~cycle:t.run_start.(core) ~code:ev_stall ~core
        ~a:t.run_kind.(core) ~b:t.run_len.(core);
      t.run_kind.(core) <- -1
    end;
    if t.cur_phase.(core) >= 0 then begin
      emit t ~cycle:t.phase_start.(core) ~code:ev_phase ~core
        ~a:t.cur_phase.(core)
        ~b:(cycle - t.phase_start.(core));
      t.cur_phase.(core) <- -1
    end
  done;
  if t.ovf_start >= 0 then begin
    emit t ~cycle:t.ovf_start ~code:ev_fifo_overflow ~core:(-1)
      ~a:t.ovf_count ~b:(t.cycle - t.ovf_start);
    t.ovf_start <- -1;
    t.ovf_count <- 0
  end;
  Metrics.bump t.ctr_events t.len;
  Metrics.bump t.ctr_dropped t.dropped

let iter t f =
  for i = 0 to t.len - 1 do
    f ~cycle:t.ev_cycle.(i) ~code:t.ev_code.(i) ~core:t.ev_core.(i)
      ~a:t.ev_a.(i) ~b:t.ev_b.(i)
  done

let clear t = t.len <- 0

(* Canonical textual serialization of the event stream. Two
   normalizations make the digest a property of the machine rather than
   of this run's stepping strategy: kernel skip spans (absent under
   naive stepping) are excluded by default, and events are sorted by
   their full tuple — the ring holds span-closure order, and a sleeping
   core's runs are bulk-credited earlier than naive stepping would close
   them, so raw ring order differs between strategies even when the
   event multiset is identical. *)
let serialize ?(include_skips = false) t =
  let idx = Array.init t.len (fun i -> i) in
  let cmp i j =
    let c = compare t.ev_cycle.(i) t.ev_cycle.(j) in
    if c <> 0 then c
    else
      let c = compare t.ev_code.(i) t.ev_code.(j) in
      if c <> 0 then c
      else
        let c = compare t.ev_core.(i) t.ev_core.(j) in
        if c <> 0 then c
        else
          let c = compare t.ev_a.(i) t.ev_a.(j) in
          if c <> 0 then c else compare t.ev_b.(i) t.ev_b.(j)
  in
  Array.sort cmp idx;
  let b = Buffer.create (64 + (t.len * 16)) in
  Array.iter
    (fun i ->
      let code = t.ev_code.(i) in
      if include_skips || code <> ev_skip then begin
        Buffer.add_string b (string_of_int t.ev_cycle.(i));
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int code);
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int t.ev_core.(i));
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int t.ev_a.(i));
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int t.ev_b.(i));
        Buffer.add_char b '\n'
      end)
    idx;
  Buffer.contents b

let digest ?include_skips t =
  Digest.to_hex (Digest.string (serialize ?include_skips t))

(* Checkpoint codec: the event ring (kept prefix only, one width-fitted
   column per field: a simulated run's cycles, codes, cores and
   arguments fit 4 bytes, so a kept event costs 20 bytes), every
   open-span tracking register, the sampling cursor, and the metrics
   registry.
   Restore targets a tracer created with the same capacity / interval /
   core count — the constructor parameters are validated, not restored.
   The shared [disabled] singleton round-trips as a single flag. *)
module Codec = Hsgc_util.Codec

(* A delta carries the events appended since its parent, whose ring
   held [since]: the ring is append-only (keep-oldest), so the parent's
   events are a prefix of this one's. Everything else is stored whole. *)
let encode_shape t w =
  Codec.W.bool w t.on;
  Codec.W.int w t.capacity;
  Codec.W.int w t.n_cores;
  Codec.W.int w t.interval

let encode_events t w ~from =
  let len = t.len - from in
  Codec.W.column w ~pos:from t.ev_cycle ~len;
  Codec.W.column w ~pos:from t.ev_code ~len;
  Codec.W.column w ~pos:from t.ev_core ~len;
  Codec.W.column w ~pos:from t.ev_a ~len;
  Codec.W.column w ~pos:from t.ev_b ~len

let encode_registers t w =
  Codec.W.int_array w t.cur_phase;
  Codec.W.int_array w t.phase_start;
  Codec.W.int_array w t.run_kind;
  Codec.W.int_array w t.run_start;
  Codec.W.int_array w t.run_len;
  Codec.W.int w t.ovf_start;
  Codec.W.int w t.ovf_count;
  Codec.W.int w t.next_sample;
  Codec.W.int w t.scan_acquired;
  Codec.W.int w t.free_acquired;
  Codec.W.int_array w t.header_acquired;
  Codec.W.int_array w t.object_start;
  Metrics.encode t.metrics w

let encode t w =
  encode_shape t w;
  if t.on then begin
    Codec.W.int w t.cycle;
    Codec.W.int w t.len;
    Codec.W.int w t.dropped;
    encode_events t w ~from:0;
    encode_registers t w
  end

let encode_delta t ~since w =
  if since < 0 || since > t.len then invalid_arg "Tracer.encode_delta";
  encode_shape t w;
  if t.on then begin
    Codec.W.int w t.cycle;
    Codec.W.int w t.len;
    Codec.W.int w t.dropped;
    Codec.W.int w since;
    encode_events t w ~from:since;
    encode_registers t w
  end

(* Validates the shape against this tracer; returns the on flag. *)
let restore_shape t r =
  let on = Codec.R.bool r in
  let capacity = Codec.R.int r in
  let n_cores = Codec.R.int r in
  let interval = Codec.R.int r in
  if on && not t.on then
    raise (Codec.Error "snapshot has tracing on, machine does not");
  if (not on) && t.on then
    raise (Codec.Error "snapshot has tracing off, machine does not");
  if on then
    if capacity <> t.capacity || n_cores <> t.n_cores || interval <> t.interval
    then
      raise
        (Codec.Error
           (Printf.sprintf
              "tracer shape (capacity %d, cores %d, interval %d) does not \
               match machine (%d, %d, %d)"
              capacity n_cores interval t.capacity t.n_cores t.interval));
  on

(* The cycle stamp, ring length and drop count; returns the length. *)
let restore_counts t r =
  t.cycle <- Codec.R.int r;
  let len = Codec.R.int r in
  if len < 0 || len > t.capacity then
    raise (Codec.Error "tracer event count out of range");
  t.dropped <- Codec.R.int r;
  len

let restore_events t r ~from ~len =
  let n = len - from in
  Codec.R.column_into r ~pos:from t.ev_cycle ~len:n;
  Codec.R.column_into r ~pos:from t.ev_code ~len:n;
  Codec.R.column_into r ~pos:from t.ev_core ~len:n;
  Codec.R.column_into r ~pos:from t.ev_a ~len:n;
  Codec.R.column_into r ~pos:from t.ev_b ~len:n;
  t.len <- len

let restore_registers t r =
  Codec.R.int_array_into r t.cur_phase ~what:"tracer open phases";
  Codec.R.int_array_into r t.phase_start ~what:"tracer phase starts";
  Codec.R.int_array_into r t.run_kind ~what:"tracer run kinds";
  Codec.R.int_array_into r t.run_start ~what:"tracer run starts";
  Codec.R.int_array_into r t.run_len ~what:"tracer run lengths";
  t.ovf_start <- Codec.R.int r;
  t.ovf_count <- Codec.R.int r;
  t.next_sample <- Codec.R.int r;
  t.scan_acquired <- Codec.R.int r;
  t.free_acquired <- Codec.R.int r;
  Codec.R.int_array_into r t.header_acquired ~what:"tracer lock stamps";
  Codec.R.int_array_into r t.object_start ~what:"tracer object starts";
  Metrics.restore t.metrics r

let restore t r =
  if restore_shape t r then begin
    let len = restore_counts t r in
    restore_events t r ~from:0 ~len;
    restore_registers t r
  end

let restore_delta t r =
  if restore_shape t r then begin
    let len = restore_counts t r in
    let since = Codec.R.int r in
    if since <> t.len || since > len then
      raise
        (Codec.Error
           (Printf.sprintf
              "tracer delta appends events %d..%d to a ring holding %d" since
              len t.len));
    restore_events t r ~from:since ~len;
    restore_registers t r
  end
