module H = Hsgc_heap.Heap
module Hdr = Hsgc_heap.Header
module Semispace = Hsgc_heap.Semispace
module SB = Hsgc_hwsync.Sync_block
module Mem = Hsgc_memsim.Memsys
module Port = Hsgc_memsim.Port
module Fifo = Hsgc_memsim.Header_fifo
module Kernel = Hsgc_sim.Kernel
module Wake_queue = Hsgc_sim.Wake_queue
module Injector = Hsgc_fault.Injector
module Hooks = Hsgc_sanitizer.Hooks
module Diag = Hsgc_sanitizer.Diag
module San = Hsgc_sanitizer.Sanitizer
module Obs = Hsgc_obs.Tracer
module Prof = Hsgc_obs.Profiler

(* Hot-loop status probes. [Port] and [Sync_block] expose their records
   precisely so that the per-cycle loop can poll status with direct
   field loads: without flambda, [port_idle] and friends are real
   cross-module calls, and the machine makes several of them per core
   per cycle. These same-module wrappers are small enough for the
   closure backend to inline. *)
let port_idle (p : Port.t) = p.Port.st = Port.st_idle
let port_ready (p : Port.t) = p.Port.st = Port.st_ready

type config = {
  n_cores : int;
  mem : Mem.config;
  max_cycles : int;
  scan_unit : int option;
      (* paper Section VII future work: when [Some u], an object whose
         body exceeds [u] words is handed out in [u]-word pieces so that
         several cores can copy one large object concurrently. [None]
         (the default) is the published object-granularity design. *)
  skip : bool;
      (* idle-cycle skipping: event-driven per-core sleeps plus
         fast-forward over globally skippable cycles. All reported
         statistics stay bit-identical; only wall time changes. *)
  faults : Injector.spec option;
      (* fault-injection plan; each simulator instance builds a private
         injector from it, so sweep points stay domain-safe and exactly
         reproducible. [None] = no injector at all (bit-identical to a
         build without the hooks). *)
  cycle_budget : int option;
      (* watchdog: hard bound on total simulated cycles; exceeding it
         raises [Stall_diagnosis] with a machine dump (unlike
         [max_cycles], which indicates simulator divergence). *)
  stall_window : int;
      (* watchdog: executed cycles without any global progress (no
         buffer transition, scan/free frozen) before declaring a stall. *)
  sanitize : San.mode;
      (* machine sanitizer: [Off] (default) attaches nothing — hook
         call sites reduce to one load-and-branch; [Check] records
         findings into [gc_stats]; [Strict] raises [Diag.Violation] on
         the first finding. *)
}

let default_stall_window = 1_000_000

let default_config =
  {
    n_cores = 8;
    mem = Mem.default_config;
    max_cycles = 2_000_000_000;
    scan_unit = None;
    skip = true;
    faults = None;
    cycle_budget = None;
    stall_window = default_stall_window;
    sanitize = San.Off;
  }

let config ?(mem = Mem.default_config) ?scan_unit ?(skip = true) ?faults
    ?cycle_budget ?(stall_window = default_stall_window) ?(sanitize = San.Off)
    ~n_cores () =
  {
    default_config with
    n_cores;
    mem;
    scan_unit;
    skip;
    faults;
    cycle_budget;
    stall_window;
    sanitize;
  }

exception Heap_overflow
exception Simulation_diverged of string

(* ------------------------------------------------------------------ *)
(* Banked-machine attachment (the [Banked] driver's half of the
   machine-variant contract; see docs/PARALLEL.md).

   A machine started with a [remote] record is one *bank* of the banked
   machine: it owns the fromspace home range [rm_lo, rm_hi) and runs a
   private sync block, memory lane and header FIFO. Pointer slots whose
   child lies outside the home range are *not* chased (no header lock,
   no evacuation): the stale fromspace address is stored verbatim and
   the slot is recorded in the bank's outbox, which the driver drains
   at every superstep barrier and routes through the global FIFO
   arbitration step to the child's home bank. Local termination is
   suppressed until the driver observes global quiescence and sets
   [rm_allow_finish]. *)
(* ------------------------------------------------------------------ *)

type remote = {
  rm_bank : int;
  rm_lo : int;  (* home fromspace range [rm_lo, rm_hi) *)
  rm_hi : int;
  mutable rm_allow_finish : bool;
      (* the scan-lock termination probe is a no-op until the driver
         grants it: a bank's worklist can be refilled from outside at
         any barrier, so only the driver can observe termination *)
  (* Outbox of bank-crossing pointer slots, as two parallel flat arrays
     (live prefix [0, rm_n)): the tospace slot address that received
     the stale pointer, and the foreign fromspace child it names. The
     driver drains and resets it at each barrier. *)
  mutable rm_slots : int array;
  mutable rm_children : int array;
  mutable rm_n : int;
  mutable rm_requests : int;  (* total pushes over the run *)
}

let remote_create ~bank ~lo ~hi =
  if lo > hi then invalid_arg "Coprocessor.remote_create: lo > hi";
  {
    rm_bank = bank;
    rm_lo = lo;
    rm_hi = hi;
    rm_allow_finish = false;
    rm_slots = Array.make 16 0;
    rm_children = Array.make 16 0;
    rm_n = 0;
    rm_requests = 0;
  }

(* Dense machines share one inert sentinel: its home range is the whole
   address space (the foreign test [v < rm_lo || v >= rm_hi] is never
   true) and termination is always allowed, so the dense hot path pays
   two integer compares and no option branch. Nothing ever mutates it. *)
let remote_disabled =
  {
    rm_bank = -1;
    rm_lo = min_int;
    rm_hi = max_int;
    rm_allow_finish = true;
    rm_slots = [||];
    rm_children = [||];
    rm_n = 0;
    rm_requests = 0;
  }

let remote_push r ~slot ~child =
  let n = r.rm_n in
  if n = Array.length r.rm_slots then begin
    let cap = if n = 0 then 16 else 2 * n in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 n;
      b
    in
    r.rm_slots <- grow r.rm_slots;
    r.rm_children <- grow r.rm_children
  end;
  r.rm_slots.(n) <- slot;
  r.rm_children.(n) <- child;
  r.rm_n <- n + 1;
  r.rm_requests <- r.rm_requests + 1

(* Stall diagnosis: everything a deadlock post-mortem needs, captured at
   the moment the watchdog tripped. *)

type core_dump = {
  core_id : int;
  microstate : string;
  busy : bool;
  header_lock : int option;
  ports : (string * string) list;  (* buffer name, Port.describe *)
}

type diagnosis = {
  trip : Kernel.Watchdog.trip;
  at_cycle : int;
  d_scan : int;
  d_free : int;
  scan_lock : int option;
  free_lock : int option;
  fifo_depth : int;
  pending_header_stores : int;
  worklist_nonempty : bool;
  core_dumps : core_dump list;
}

exception Stall_diagnosis of diagnosis

let pp_owner ppf = function
  | None -> Format.pp_print_string ppf "free"
  | Some c -> Format.fprintf ppf "held by core %d" c

let pp_diagnosis ppf d =
  Format.fprintf ppf "@[<v>stall at cycle %d: %a@," d.at_cycle
    Kernel.Watchdog.pp_trip d.trip;
  Format.fprintf ppf "scan=%d free=%d (worklist %s)@," d.d_scan d.d_free
    (if d.worklist_nonempty then "nonempty" else "empty");
  Format.fprintf ppf "scan lock: %a   free lock: %a@," pp_owner d.scan_lock
    pp_owner d.free_lock;
  Format.fprintf ppf "header FIFO depth: %d   pending header stores: %d@,"
    d.fifo_depth d.pending_header_stores;
  List.iter
    (fun c ->
      Format.fprintf ppf "core %d: %-17s %s%s@," c.core_id c.microstate
        (if c.busy then "[busy] " else "")
        (match c.header_lock with
        | None -> ""
        | Some a -> Printf.sprintf "[header lock @%d] " a);
      List.iter
        (fun (name, st) ->
          if st <> "idle" then Format.fprintf ppf "  %s: %s@," name st)
        c.ports)
    d.core_dumps;
  Format.fprintf ppf "@]"

let () =
  Printexc.register_printer (function
    | Stall_diagnosis d -> Some (Format.asprintf "%a" pp_diagnosis d)
    | _ -> None)

type gc_stats = {
  total_cycles : int;
  executed_cycles : int;
  skipped_cycles : int;
  wall_seconds : float;
  root_cycles : int;
  empty_worklist_cycles : int;
  per_core : Counters.t array;
  live_objects : int;
  live_words : int;
  fifo_hits : int;
  fifo_misses : int;
  fifo_overflows : int;
  mem_loads : int;
  mem_stores : int;
  mem_rejected_bandwidth : int;
  mem_rejected_order : int;
  header_cache_hits : int;
  header_cache_misses : int;
  faults_injected : int;
  corruptions_injected : int;
  sanitizer_findings : Diag.t list;
      (* kept (deduplicated, capped) sanitizer findings; [] when the
         sanitizer was off or silent *)
  sanitizer_total : int;
      (* all sanitizer findings including deduplicated repeats *)
}

let stalls_total stats =
  Array.fold_left Counters.add (Counters.create ()) stats.per_core

let stalls_mean_per_core stats =
  let n = Array.length stats.per_core in
  Counters.scale (stalls_total stats) (1.0 /. float_of_int n)

(* Where the evacuation sub-machine returns once both header stores of the
   freshly grayed object have been issued. *)
type return_point = Ret_slot | Ret_root

type state =
  | Init  (* core 0: initialize scan and free *)
  | Root_next  (* core 0: evacuate the next root slot *)
  | Root_header_wait
  | Start_barrier
  | Try_lock_scan
  | Scan_header_wait  (* scan lock held, gray header load in flight *)
  | Body_issue_load
  | Body_wait
  | Lock_child
  | Child_header_wait
  | Lock_free
  | Evac_store_fwd
  | Evac_store_gray
  | Store_slot
  | Piece_done  (* sub-object mode: retire one piece of a split frame *)
  | Blacken
  | Flush
  | End_barrier
  | Halt

type core = {
  id : int;
  mutable state : state;
  (* register file *)
  mutable obj_to : int;  (* tospace frame of the object being scanned *)
  mutable obj_from : int;  (* its fromspace original (via backlink) *)
  mutable h0 : int;  (* header word 0 of the object being scanned *)
  mutable slot : int;  (* body word index within the object *)
  mutable slot_limit : int;  (* exclusive end of this work item *)
  mutable whole : bool;  (* item covers the whole object (usual case) *)
  mutable child : int;  (* pointer value under translation *)
  mutable child_h0 : int;
  mutable value : int;  (* word about to be stored into the copy *)
  mutable evac_new : int;  (* frame claimed for an evacuation *)
  mutable root_idx : int;
  mutable ret : return_point;
  (* the four memory buffers *)
  hl : Port.t;
  hs : Port.t;
  bl : Port.t;
  bs : Port.t;
  counters : Counters.t;
  (* Stall latch for bulk crediting during whole-machine idle-cycle
     skips: the cycle number of the most recent stall and its category.
     A core whose latch carries the just-executed cycle would stall
     identically in every skipped replay of it. *)
  mutable stall_cycle : int;
  mutable stall_kind : Counters.stall;
  (* Event-driven scheduling: the earliest cycle at which this core must
     be stepped again. Awake cores carry [cycle + 1] (with skipping off,
     0 — always stepped); a sleeping core carries the wake time it armed
     in the wake queue; a halted core carries [max_int]; a parked core
     carries the next completion of one of its in-flight transfers (or
     [max_int]), the only cycle at which its buffers need a tick. *)
  mutable wake : int;
  (* Spinner parking (see "Spinner parking" below): the synchronization
     wait the core is parked on ([park_none] when it is not parked) and
     the first spin cycle not yet credited to its counters. *)
  mutable park : int;
  mutable park_cycle : int;
  (* Cycle of the core's latest empty-worklist probe whose termination
     check failed: the one pure retry that leaves no stall latch. *)
  mutable probe_cycle : int;
}

(* What a checkpoint writer keeps per machine between saves
   (Hsgc_core.Resume's chain of snapshots): the machine only carries it,
   so two machines never share one. *)
type chain = ..
type chain += No_chain

type t = {
  cfg : config;
  (* Parking guards, derived from the configuration once at [start]:
     skipping on, more than one core, and no sanitizer, fault plan, scan
     unit or bank attachment. Spinners park on every step of such a run
     that carries no per-step trace; an attached tracer or profiler is
     credited at the wake ([unpark]). *)
  park_ok : bool;
  (* A plain run (the parking guards without the core count) with no
     tracer or profiler attached: after the root phase, an untraced step
     at which exactly one core is due and none is parked runs that core
     through the exclusive interpreter (see "Lone-core stepping"). *)
  lone_plain : bool;
  (* The furthest any jump of the clock may reach: the divergence bound
     [max_cycles + 1] or the cycle budget, whichever is smaller. A quiet
     span never carries the clock past the cycle at which per-cycle
     stepping would trip the budget. *)
  jump_cap : int;
  (* Deferred watchdog progress observation of the exclusive
     interpreter: the cycle of the latest progressed cycle not yet
     reported to the watchdog, or -1. Always flushed (-1) outside
     [step], so snapshots never see a pending deferral. *)
  mutable wd_defer : int;
  (* Spinner parking: the parked cores, in total and per kind; the
     [free] register the parked empty-worklist probers saw; and the
     executed cycle before the current one, which is the stall latch of
     a lock spinner woken in time to retry within the current cycle. *)
  mutable n_parked : int;
  mutable n_park_scan : int;
  mutable n_park_empty : int;
  mutable n_park_header : int;
  mutable park_free : int;
  mutable prev_cycle : int;
  (* Stepping scratch (no per-cycle allocation): ids of the cores due
     this cycle ([n_due] of them, in index order), and ids of the cores
     left awake for the next cycle ([n_awake] of them, wake = now + 1
     after stepping). The awake list bounds the quiet fast-forward scan
     and the bulk skip credit to the cores that can actually act,
     instead of rescanning the whole array. *)
  due_ids : int array;
  mutable n_due : int;
  awake_ids : int array;
  mutable n_awake : int;
  heap : H.t;
  sb : SB.t;
  mem : Mem.t;
  fifo : Fifo.t;
  (* Banked-machine attachment; [remote_disabled] (physically shared)
     for the paper's dense machine. *)
  remote : remote;
  (* One hook record shared by the SB, the memory system, every port
     and the microprogram call sites below. Always present — even with
     the sanitizer off it carries the current cycle, so structured
     protocol diagnostics get cycle context in plain runs too. *)
  hooks : Hooks.t;
  san : San.t;
  mutable san_seen : int;  (* findings already annotated into the trace *)
  (* Observability: the event/span tracer and the stall-attribution
     profiler. Both default to shared never-enabled instances, so in
     plain runs every instrumentation site reduces to one
     load-and-branch (the Hooks discipline). *)
  obs : Obs.t;
  prof : Prof.t;
  cores : core array;
  tospace_limit : int;
  clock : Kernel.t;
  faults : Injector.t;
  watchdog : Kernel.Watchdog.t;
  (* Transition counter shared with every memory buffer: zeroed at the
     top of each cycle, bumped by any buffer status change and by the
     few core transitions that touch no buffer and no shared register
     ([mark] below). A cycle that ends with it still at zero — and with
     scan/free unmoved — was a pure replay and is skippable. *)
  events : int ref;
  (* Wake queue for event-driven stepping: sleeping cores arm their wake
     time here; re-arms supersede lazily (no heap deletion). *)
  wakeq : Wake_queue.t;
  mutable n_halted : int;
  mutable finished : bool;  (* termination detected, broadcast to all cores *)
  mutable saw_empty : bool;  (* set during the current cycle *)
  mutable parallel_phase : bool;
  mutable parallel_start : int;
  mutable empty_cycles : int;
  (* Sub-object mode: the frame currently being handed out in pieces.
     All four registers are guarded by the scan lock. *)
  mutable cur_frame : int;  (* 0 = none *)
  mutable cur_h0 : int;
  mutable cur_from : int;
  mutable cur_next_slot : int;
  (* Outstanding pieces per split frame, indexed by [frame -
     pieces_base] (the tospace base): a flat array instead of a hash
     table keeps the piece-retire path allocation-free. Only allocated
     at heap size in sub-object mode. *)
  pieces : int array;
  pieces_base : int;
  mutable chain : chain;
}

type sim = t

let chain t = t.chain
let set_chain t c = t.chain <- c

let now t = t.clock.Kernel.now

(* Spinner-parking kinds, the values of a core's [park] field. *)
let park_none = 0
let park_scan = 1 (* failed grab: the scan lock is held by another core *)
let park_empty = 2 (* empty-worklist probe whose termination check failed *)
let park_header = 3 (* failed header lock on [child], held by another core *)

let make_core ~events ~faults ~hooks ~obs id =
  {
    id;
    state = (if id = 0 then Init else Start_barrier);
    obj_to = 0;
    obj_from = 0;
    h0 = 0;
    slot = 0;
    slot_limit = 0;
    whole = true;
    child = 0;
    child_h0 = 0;
    value = 0;
    evac_new = 0;
    root_idx = 0;
    ret = Ret_slot;
    hl = Port.create ~events ~faults ~hooks ~obs ~owner:id Port.Header_load;
    hs = Port.create ~events ~faults ~hooks ~obs ~owner:id Port.Header_store;
    bl = Port.create ~events ~faults ~hooks ~obs ~owner:id Port.Body_load;
    bs = Port.create ~events ~faults ~hooks ~obs ~owner:id Port.Body_store;
    counters = Counters.create ();
    stall_cycle = -1;
    stall_kind = Counters.Scan_lock;
    wake = 0;
    park = park_none;
    park_cycle = 0;
    probe_cycle = -1;
  }

let issue_exn port mem ~now ~addr =
  if not (Port.issue port mem ~now ~addr) then
    failwith "coprocessor: issued into a busy buffer (microprogram bug)"

let stall t core kind =
  (* [Counters.bump] inlined (a stalled core runs this every cycle; the
     cross-module call was measurable in dense legs). *)
  let c = core.counters in
  (match kind with
  | Counters.Scan_lock -> c.Counters.scan_lock <- c.Counters.scan_lock + 1
  | Counters.Free_lock -> c.Counters.free_lock <- c.Counters.free_lock + 1
  | Counters.Header_lock ->
    c.Counters.header_lock <- c.Counters.header_lock + 1
  | Counters.Body_load -> c.Counters.body_load <- c.Counters.body_load + 1
  | Counters.Body_store -> c.Counters.body_store <- c.Counters.body_store + 1
  | Counters.Header_load ->
    c.Counters.header_load <- c.Counters.header_load + 1
  | Counters.Header_store ->
    c.Counters.header_store <- c.Counters.header_store + 1);
  core.stall_cycle <- t.clock.Kernel.now;
  core.stall_kind <- kind

(* A core transition that touches no memory buffer and no shared
   register still disqualifies the cycle from skipping. *)
let mark t = incr t.events

(* Write one body word into the tospace copy and advance the slot loop.
   Issues the body store and, when another slot remains, the next body
   load in the same cycle (the cores can initiate several memory
   operations per cycle). *)
let store_and_advance t core v =
  if t.hooks.Hooks.on then
    t.hooks.Hooks.word_written ~core:core.id ~base:core.obj_to
      ~addr:(core.obj_to + Hdr.header_words + core.slot);
  (* Corruption-class fault: flip one bit of the word as written to the
     tospace copy. Control flow below uses the clean [v] (and the copy
     is never re-read during a stop-the-world cycle), so the collection
     still terminates — only the verifier can notice, which is exactly
     the detection-coverage question the harness measures. *)
  t.heap.H.mem.{core.obj_to + Hdr.header_words + core.slot} <-
    Injector.corrupt_body t.faults v;
  issue_exn core.bs t.mem ~now:(now t) ~addr:(core.obj_to + Hdr.header_words + core.slot);
  core.counters.words_copied <- core.counters.words_copied + 1;
  core.slot <- core.slot + 1;
  if core.slot >= core.slot_limit then
    core.state <- (if core.whole then Blacken else Piece_done)
  else if port_idle core.bl then begin
    issue_exn core.bl t.mem ~now:(now t)
      ~addr:(core.obj_from + Hdr.header_words + core.slot);
    core.state <- Body_wait
  end
  else core.state <- Body_issue_load

(* Take the gray object whose frame sits at [scan]: record its registers,
   advance [scan] past it, release the scan lock and raise the busy bit.
   The caller has already obtained the frame's header (FIFO or memory).
   In sub-object mode a large object is only partially taken: [scan]
   advances by one piece and the frame's registers stay latched in the
   synchronization block for the next grabber. *)
let rec begin_object t core ~frame =
  (* The grab is the handoff point of the protocol: the scan-lock holder
     takes over the frame the evacuator produced. Claiming the header
     words before reading them starts a fresh lockset epoch, so the
     evacuator's earlier (free-claim-protected) header writes never
     falsely intersect with the grabber's scan-locked reads — this is
     the same-cycle release→acquire handoff the sanitizer must accept. *)
  if t.hooks.Hooks.on then begin
    t.hooks.Hooks.range_claimed ~core:core.id ~lo:frame
      ~hi:(frame + Hdr.header_words);
    t.hooks.Hooks.word_read ~core:core.id ~base:frame ~addr:frame
  end;
  let h0 = t.heap.H.mem.{frame} in
  if Hdr.state h0 = Black then begin
    (* A frame allocated black by the main processor during a concurrent
       cycle: nothing to scan, step over it. *)
    SB.advance_scan t.sb ~core:core.id (Hdr.size h0);
    SB.unlock_scan t.sb ~core:core.id;
    core.state <- Try_lock_scan
  end
  else begin_gray_object t core ~frame ~h0

and begin_gray_object t core ~frame ~h0 =
  let body = Hdr.pi h0 + Hdr.delta h0 in
  let split_over =
    match t.cfg.scan_unit with
    | Some u when body > u -> Some u
    | Some _ | None -> None
  in
  core.h0 <- h0;
  core.obj_to <- frame;
  if t.hooks.Hooks.on then
    t.hooks.Hooks.word_read ~core:core.id ~base:frame ~addr:(frame + 1);
  core.obj_from <- t.heap.H.mem.{frame + 1};
  core.slot <- 0;
  (match split_over with
  | None ->
    core.slot_limit <- body;
    core.whole <- true;
    (* Scan-latency histogram: grab-to-blacken, whole objects only
       (pieces of a split frame have no single owner interval). *)
    if t.obs.Obs.on then Obs.object_begun t.obs ~core:core.id;
    SB.advance_scan t.sb ~core:core.id (Hdr.size h0);
    if t.hooks.Hooks.on then begin
      (* The whole work item: the tospace copy under construction and
         the fromspace body it is copied from. *)
      t.hooks.Hooks.range_claimed ~core:core.id ~lo:frame
        ~hi:(frame + Hdr.size h0);
      t.hooks.Hooks.range_claimed ~core:core.id
        ~lo:(core.obj_from + Hdr.header_words)
        ~hi:(core.obj_from + Hdr.size h0)
    end
  | Some u ->
    core.slot_limit <- u;
    core.whole <- false;
    t.cur_frame <- frame;
    t.cur_h0 <- h0;
    t.cur_from <- core.obj_from;
    t.cur_next_slot <- u;
    t.pieces.(frame - t.pieces_base) <- ((body - 1) / u) + 1;
    (* the first piece carries the two header words *)
    SB.advance_scan t.sb ~core:core.id (Hdr.header_words + u);
    if t.hooks.Hooks.on then begin
      t.hooks.Hooks.range_claimed ~core:core.id ~lo:frame
        ~hi:(frame + Hdr.header_words + u);
      t.hooks.Hooks.range_claimed ~core:core.id
        ~lo:(core.obj_from + Hdr.header_words)
        ~hi:(core.obj_from + Hdr.header_words + u)
    end);
  SB.unlock_scan t.sb ~core:core.id;
  SB.set_busy t.sb ~core:core.id true;
  core.counters.objects_scanned <- core.counters.objects_scanned + 1;
  if body = 0 then core.state <- Blacken else core.state <- Body_issue_load

(* The states that run a handful of times per collection — start-up,
   roots, barriers, flush and sub-object pieces — are marked
   [@inline never]: release builds inline across modules (lib/dune),
   and keeping them out of [step_core] keeps its hot arms compact. *)

(* Hand out the next piece of the frame latched in [cur_frame]; the
   caller holds the scan lock. Costs one cycle and no header access. *)
let[@inline never] begin_piece t core =
  let u = Option.get t.cfg.scan_unit in
  let body = Hdr.pi t.cur_h0 + Hdr.delta t.cur_h0 in
  let start = t.cur_next_slot in
  let stop = min body (start + u) in
  core.h0 <- t.cur_h0;
  core.obj_to <- t.cur_frame;
  core.obj_from <- t.cur_from;
  core.slot <- start;
  core.slot_limit <- stop;
  core.whole <- false;
  SB.advance_scan t.sb ~core:core.id (stop - start);
  if t.hooks.Hooks.on then begin
    t.hooks.Hooks.range_claimed ~core:core.id
      ~lo:(core.obj_to + Hdr.header_words + start)
      ~hi:(core.obj_to + Hdr.header_words + stop);
    t.hooks.Hooks.range_claimed ~core:core.id
      ~lo:(core.obj_from + Hdr.header_words + start)
      ~hi:(core.obj_from + Hdr.header_words + stop)
  end;
  t.cur_next_slot <- stop;
  if stop = body then t.cur_frame <- 0;
  SB.unlock_scan t.sb ~core:core.id;
  SB.set_busy t.sb ~core:core.id true;
  core.state <- Body_issue_load

let[@inline never] step_init t core =
  let base = (H.to_space t.heap).Semispace.base in
  SB.set_scan t.sb base;
  SB.set_free t.sb base;
  core.root_idx <- 0;
  core.state <- Root_next;
  mark t

let[@inline never] step_root_next t core =
  let roots = t.heap.H.roots in
  if core.root_idx >= Array.length roots then begin
    core.state <- Start_barrier;
    mark t
  end
  else begin
    let r = roots.(core.root_idx) in
    if r = H.null then begin
      core.root_idx <- core.root_idx + 1;
      mark t
    end
    else begin
      (* Uncontended during the root phase, but the protocol is kept
         identical to the scanning loop. *)
      if not (SB.try_lock_header t.sb ~core:core.id ~addr:r) then stall t core Header_lock
      else if port_idle core.hl then begin
        issue_exn core.hl t.mem ~now:(now t) ~addr:r;
        core.state <- Root_header_wait
      end
      else begin
        SB.unlock_header t.sb ~core:core.id;
        stall t core Header_load
      end
    end
  end

let[@inline never] step_root_header_wait t core =
  if not (port_ready core.hl) then stall t core Header_load
  else begin
    Port.consume core.hl;
    let r = t.heap.H.roots.(core.root_idx) in
    if t.hooks.Hooks.on then
      t.hooks.Hooks.word_read ~core:core.id ~base:r ~addr:r;
    let w0 = t.heap.H.mem.{r} in
    match Hdr.state w0 with
    | White | Black ->
      (* Black here is a survivor of the previous cycle: only Gray means
         "evacuated in this cycle", so states never need resetting
         between cycles. *)
      core.child <- r;
      core.child_h0 <- w0;
      core.ret <- Ret_root;
      core.state <- Lock_free
    | Gray ->
      (* Another root slot already evacuated this object: follow the
         forwarding pointer installed in its header. *)
      if t.hooks.Hooks.on then
        t.hooks.Hooks.word_read ~core:core.id ~base:r ~addr:(r + 1);
      t.heap.H.roots.(core.root_idx) <- t.heap.H.mem.{r + 1};
      SB.unlock_header t.sb ~core:core.id;
      core.root_idx <- core.root_idx + 1;
      core.state <- Root_next
  end

let[@inline never] step_start_barrier t core =
  if SB.barrier_arrive t.sb ~core:core.id then begin
    if not t.parallel_phase then begin
      t.parallel_phase <- true;
      t.parallel_start <- now t
    end;
    core.state <- Try_lock_scan;
    mark t
  end

let step_try_lock_scan t core =
  if t.finished then begin
    core.state <- Flush;
    mark t
  end
  else if
    (* Fast-fail: a lock visibly held by another core loses without the
       cross-module call (contended spins run this every cycle). Owner =
       self still goes through [SB.try_lock_scan] so the re-entry
       protocol check fires. *)
    (let o = t.sb.SB.scan_owner in
     o >= 0 && o <> core.id)
    || not (SB.try_lock_scan t.sb ~core:core.id)
  then begin
    stall t core Scan_lock;
    if t.sb.SB.scan = t.sb.SB.free then t.saw_empty <- true
  end
  else if t.sb.SB.scan = t.sb.SB.free then begin
    t.saw_empty <- true;
    (* Termination: the worklist is empty and no core is scanning an
       object (its evacuations could refill the worklist). Checked while
       holding the scan lock, so no evacuation can race with it. A bank
       of the banked machine must additionally hold the driver's grant
       ([rm_allow_finish]): its worklist can be refilled from another
       bank at any superstep barrier. *)
    if t.remote.rm_allow_finish && SB.none_busy_except t.sb ~core:core.id
    then begin
      t.finished <- true;
      SB.unlock_scan t.sb ~core:core.id;
      core.state <- Flush;
      mark t
    end
    else begin
      (* The probe failed: the lock is released with nothing changed, so
         the cycle replays identically — deliberately no [mark]. *)
      SB.unlock_scan t.sb ~core:core.id;
      core.probe_cycle <- now t
    end
  end
  else if t.cur_frame <> 0 then begin_piece t core
  else begin
    let frame = t.sb.SB.scan in
    if Fifo.try_pop t.fifo frame then begin_object t core ~frame
    else begin
      issue_exn core.hl t.mem ~now:(now t) ~addr:frame;
      core.state <- Scan_header_wait
    end
  end

let step_scan_header_wait t core =
  if port_ready core.hl then begin
    Port.consume core.hl;
    begin_object t core ~frame:(t.sb.SB.scan)
  end
  else stall t core Header_load

let step_body_issue_load t core =
  if port_idle core.bl then begin
    issue_exn core.bl t.mem ~now:(now t)
      ~addr:(core.obj_from + Hdr.header_words + core.slot);
    core.state <- Body_wait
  end
  else stall t core Body_load

let step_body_wait t core =
  if not (port_ready core.bl) then stall t core Body_load
  else begin
    if t.hooks.Hooks.on then
      t.hooks.Hooks.word_read ~core:core.id ~base:core.obj_from
        ~addr:(core.obj_from + Hdr.header_words + core.slot);
    let v = t.heap.H.mem.{core.obj_from + Hdr.header_words + core.slot} in
    if
      core.slot < Hdr.pi core.h0
      && v <> H.null
      && v >= t.remote.rm_lo
      && v < t.remote.rm_hi
    then begin
      Port.consume core.bl;
      core.child <- v;
      core.state <- Lock_child
    end
    else if port_idle core.bs then begin
      (* Data word (or null pointer): copied verbatim. Store of this word
         and load of the next are initiated in the same cycle. A
         bank-crossing pointer (banked machine only) takes this path
         too — stored stale and recorded in the outbox, to be patched by
         the driver's FIFO arbitration step at a superstep barrier. *)
      Port.consume core.bl;
      if core.slot < Hdr.pi core.h0 && v <> H.null then
        remote_push t.remote
          ~slot:(core.obj_to + Hdr.header_words + core.slot)
          ~child:v;
      store_and_advance t core v
    end
    else stall t core Body_store
  end

let step_lock_child t core =
  if not (SB.try_lock_header t.sb ~core:core.id ~addr:core.child) then
    stall t core Header_lock
  else begin
    (* Acquisition is free in the uncontended case: the header load is
       initiated in the same cycle. *)
    issue_exn core.hl t.mem ~now:(now t) ~addr:core.child;
    core.state <- Child_header_wait
  end

let step_child_header_wait t core =
  if not (port_ready core.hl) then stall t core Header_load
  else begin
    Port.consume core.hl;
    if t.hooks.Hooks.on then
      t.hooks.Hooks.word_read ~core:core.id ~base:core.child ~addr:core.child;
    let w0 = t.heap.H.mem.{core.child} in
    match Hdr.state w0 with
    | White | Black ->
      (* Not yet evacuated in this cycle (Black = survivor of the
         previous cycle). *)
      core.child_h0 <- w0;
      core.ret <- Ret_slot;
      core.state <- Lock_free
    | Gray ->
      (* Already evacuated: take the forwarding pointer. *)
      if t.hooks.Hooks.on then
        t.hooks.Hooks.word_read ~core:core.id ~base:core.child
          ~addr:(core.child + 1);
      core.value <- t.heap.H.mem.{core.child + 1};
      SB.unlock_header t.sb ~core:core.id;
      core.state <- Store_slot
  end

let step_lock_free t core =
  if
    (let o = t.sb.SB.free_owner in
     o >= 0 && o <> core.id)
    || not (SB.try_lock_free t.sb ~core:core.id)
  then stall t core Free_lock
  else begin
    (* One-cycle critical section: the lock only guards the read-increment
       of the free register. The header stores happen outside it; the
       comparator array orders any subsequent load behind them. *)
    let size = Hdr.size core.child_h0 in
    let addr = SB.claim_free t.sb ~core:core.id size in
    if t.sb.SB.free > t.tospace_limit then raise Heap_overflow;
    (* The gray tospace header is captured into the on-chip FIFO before
       [free] is incremented becomes visible (the paper installs the
       backlink inside the free critical section for exactly this
       ordering), so a frame below [free] always has its FIFO entry — a
       grabber never takes the slow memory path unless the FIFO
       overflowed. The header's memory store is issued afterwards
       (Evac_store_gray) and only models timing. *)
    if t.hooks.Hooks.on then begin
      (* [claim_free] granted this core ownership of the fresh frame's
         header words (reported through the SB hook), so these stores
         carry the owner protection. *)
      t.hooks.Hooks.word_written ~core:core.id ~base:addr ~addr;
      t.hooks.Hooks.word_written ~core:core.id ~base:addr ~addr:(addr + 1)
    end;
    H.set_header0 t.heap addr
      (Hdr.encode ~state:Gray ~pi:(Hdr.pi core.child_h0)
         ~delta:(Hdr.delta core.child_h0));
    H.set_header1 t.heap addr core.child;
    ignore (Fifo.push t.fifo addr);
    SB.unlock_free t.sb ~core:core.id;
    core.evac_new <- addr;
    core.counters.objects_evacuated <- core.counters.objects_evacuated + 1;
    core.state <- Evac_store_fwd
  end

let step_evac_store_fwd t core =
  if not (port_idle core.hs) then stall t core Header_store
  else begin
    (* Gray the fromspace original: mark + forwarding pointer. *)
    if t.hooks.Hooks.on then begin
      t.hooks.Hooks.word_written ~core:core.id ~base:core.child
        ~addr:core.child;
      t.hooks.Hooks.word_written ~core:core.id ~base:core.child
        ~addr:(core.child + 1);
      t.hooks.Hooks.forward_installed ~core:core.id ~from_:core.child
        ~to_:core.evac_new
    end;
    H.set_header0 t.heap core.child (Hdr.with_state core.child_h0 Gray);
    H.set_header1 t.heap core.child core.evac_new;
    issue_exn core.hs t.mem ~now:(now t) ~addr:core.child;
    core.state <- Evac_store_gray
  end

let step_evac_store_gray t core =
  if not (port_idle core.hs) then stall t core Header_store
  else begin
    (* Gray tospace frame store: contents were captured at claim time;
       this transaction carries the timing (and arms the comparator array
       for readers that missed the FIFO). *)
    issue_exn core.hs t.mem ~now:(now t) ~addr:core.evac_new;
    SB.unlock_header t.sb ~core:core.id;
    match core.ret with
    | Ret_slot ->
      core.value <- core.evac_new;
      core.state <- Store_slot
    | Ret_root ->
      t.heap.H.roots.(core.root_idx) <- core.evac_new;
      core.root_idx <- core.root_idx + 1;
      core.state <- Root_next
  end

let step_store_slot t core =
  if port_idle core.bs then store_and_advance t core core.value
  else stall t core Body_store

let[@inline never] step_piece_done t core =
  (* Retire one piece: the outstanding-piece count of the frame is
     decremented under the frame's header lock (the hardware keeps it in
     the header word); the last piece blackens the object. *)
  if not (SB.try_lock_header t.sb ~core:core.id ~addr:core.obj_to) then
    stall t core Header_lock
  else begin
    let idx = core.obj_to - t.pieces_base in
    let left = t.pieces.(idx) in
    if left = 0 then failwith "coprocessor: piece accounting lost (bug)";
    t.pieces.(idx) <- left - 1;
    (* The retirer of the last piece blackens the header; it takes over
       the frame's header words here, while still holding the header
       lock (piece bodies were claimed piecewise at grab time). *)
    if left = 1 && t.hooks.Hooks.on then
      t.hooks.Hooks.range_claimed ~core:core.id ~lo:core.obj_to
        ~hi:(core.obj_to + Hdr.header_words);
    SB.unlock_header t.sb ~core:core.id;
    mark t;
    if left = 1 then core.state <- Blacken
    else begin
      SB.set_busy t.sb ~core:core.id false;
      core.state <- Try_lock_scan
    end
  end

let step_blacken t core =
  if not (port_idle core.hs) then stall t core Header_store
  else begin
    if t.hooks.Hooks.on then begin
      t.hooks.Hooks.word_written ~core:core.id ~base:core.obj_to
        ~addr:core.obj_to;
      t.hooks.Hooks.word_written ~core:core.id ~base:core.obj_to
        ~addr:(core.obj_to + 1)
    end;
    (* Corruption-class fault: the blackened header is behind [scan] and
       never re-read during this cycle, so a flipped state/π/δ bit is
       invisible to the machine — the wall-to-wall verification parse
       must catch it. *)
    H.set_header0 t.heap core.obj_to
      (Injector.corrupt_header t.faults
         (Hdr.encode ~state:Black ~pi:(Hdr.pi core.h0)
            ~delta:(Hdr.delta core.h0)));
    H.set_header1 t.heap core.obj_to 0;
    issue_exn core.hs t.mem ~now:(now t) ~addr:core.obj_to;
    SB.set_busy t.sb ~core:core.id false;
    if t.obs.Obs.on && core.whole then Obs.object_done t.obs ~core:core.id;
    if t.hooks.Hooks.on && core.whole then begin
      (* The finished work item: ownership of the copy and of the
         consumed fromspace body ends here. *)
      t.hooks.Hooks.range_released ~core:core.id ~lo:core.obj_to
        ~hi:(core.obj_to + Hdr.size core.h0);
      if core.obj_from <> 0 then
        t.hooks.Hooks.range_released ~core:core.id
          ~lo:(core.obj_from + Hdr.header_words)
          ~hi:(core.obj_from + Hdr.size core.h0)
    end;
    core.state <- Try_lock_scan
  end

let[@inline never] step_flush t core =
  if
    port_idle core.hl && port_idle core.hs && port_idle core.bl
    && port_idle core.bs
  then begin
    core.state <- End_barrier;
    mark t
  end

let[@inline never] step_end_barrier t core =
  if SB.barrier_arrive t.sb ~core:core.id then begin
    SB.assert_no_locks t.sb ~core:core.id;
    core.state <- Halt;
    core.wake <- max_int;
    t.n_halted <- t.n_halted + 1;
    (* A halted core leaves the stepping paths; the profiler pads the
       rest of the collection as idle at [close] time. *)
    if t.prof.Prof.on then
      Prof.note_halt t.prof ~core:core.id ~cycle:(now t);
    mark t
  end

(* One-character activity code per core for the signal trace. *)
let state_code = function
  | Init -> 'I'
  | Root_next | Root_header_wait -> 'R'
  | Start_barrier | End_barrier -> 'B'
  | Try_lock_scan -> '.'
  | Scan_header_wait -> 's'
  | Body_issue_load | Body_wait | Store_slot -> 'c'
  | Lock_child -> 'l'
  | Child_header_wait -> 'h'
  | Lock_free | Evac_store_fwd | Evac_store_gray -> 'e'
  | Piece_done -> 'p'
  | Blacken -> 'k'
  | Flush -> 'f'
  | Halt -> ' '

let state_name = function
  | Init -> "init"
  | Root_next -> "root-next"
  | Root_header_wait -> "root-header-wait"
  | Start_barrier -> "start-barrier"
  | Try_lock_scan -> "try-lock-scan"
  | Scan_header_wait -> "scan-header-wait"
  | Body_issue_load -> "body-issue-load"
  | Body_wait -> "body-wait"
  | Lock_child -> "lock-child"
  | Child_header_wait -> "child-header-wait"
  | Lock_free -> "lock-free"
  | Evac_store_fwd -> "evac-store-fwd"
  | Evac_store_gray -> "evac-store-gray"
  | Store_slot -> "store-slot"
  | Piece_done -> "piece-done"
  | Blacken -> "blacken"
  | Flush -> "flush"
  | End_barrier -> "end-barrier"
  | Halt -> "halt"

(* --- observability classification --------------------------------- *)

(* Stall ids in [Counters.all_stalls] order — shared by the tracer's
   stall-span events and the profiler's buckets 1..7. *)
let stall_index = function
  | Counters.Scan_lock -> 0
  | Counters.Free_lock -> 1
  | Counters.Header_lock -> 2
  | Counters.Body_load -> 3
  | Counters.Body_store -> 4
  | Counters.Header_load -> 5
  | Counters.Header_store -> 6

(* Profiler attribution for a cycle without a stall latch, keyed on the
   core's post-step state. Wait-only states — seeking work, barrier
   waits, buffer draining, halted — are idle; everything else made
   forward progress. The same function classifies stepped cycles and
   their skipped replays, so the attribution is bit-identical under
   naive and event-driven stepping. *)
let prof_bucket_of_state = function
  | Try_lock_scan | Start_barrier | End_barrier | Flush | Halt ->
    Prof.bucket_idle
  | Init | Root_next | Root_header_wait | Scan_header_wait | Body_issue_load
  | Body_wait | Lock_child | Child_header_wait | Lock_free | Evac_store_fwd
  | Evac_store_gray | Store_slot | Piece_done | Blacken -> Prof.bucket_busy

(* Microprogram states folded to the tracer's algorithm-level phases. *)
let phase_of_state = function
  | Init -> Obs.phase_init
  | Root_next | Root_header_wait -> Obs.phase_roots
  | Start_barrier | End_barrier -> Obs.phase_barrier
  | Try_lock_scan | Scan_header_wait -> Obs.phase_scan
  | Body_issue_load | Body_wait | Lock_child | Child_header_wait | Lock_free
  | Evac_store_fwd | Evac_store_gray | Store_slot | Piece_done | Blacken ->
    Obs.phase_copy
  | Flush -> Obs.phase_flush
  | Halt -> Obs.phase_halt

let step_core t core =
  (match core.state with
  | Init -> step_init t core
  | Root_next -> step_root_next t core
  | Root_header_wait -> step_root_header_wait t core
  | Start_barrier -> step_start_barrier t core
  | Try_lock_scan -> step_try_lock_scan t core
  | Scan_header_wait -> step_scan_header_wait t core
  | Body_issue_load -> step_body_issue_load t core
  | Body_wait -> step_body_wait t core
  | Lock_child -> step_lock_child t core
  | Child_header_wait -> step_child_header_wait t core
  | Lock_free -> step_lock_free t core
  | Evac_store_fwd -> step_evac_store_fwd t core
  | Evac_store_gray -> step_evac_store_gray t core
  | Store_slot -> step_store_slot t core
  | Piece_done -> step_piece_done t core
  | Blacken -> step_blacken t core
  | Flush -> step_flush t core
  | End_barrier -> step_end_barrier t core
  | Halt -> ());
  if t.sb.SB.busy.(core.id) then
    core.counters.busy_cycles <- core.counters.busy_cycles + 1

let all_halted t = t.n_halted = Array.length t.cores

let start ?(obs = Obs.disabled) ?(prof = Prof.disabled) ?remote cfg heap =
  if cfg.n_cores < 1 then invalid_arg "Coprocessor.start: n_cores must be >= 1";
  if obs.Obs.on && Obs.n_cores obs < cfg.n_cores then
    invalid_arg "Coprocessor.start: tracer sized for fewer cores";
  if prof.Prof.on && Prof.n_cores prof < cfg.n_cores then
    invalid_arg "Coprocessor.start: profiler sized for fewer cores";
  (* A bank of the banked machine: sub-object pieces would split one
     object's slots across arbitration rounds. *)
  if remote <> None && cfg.scan_unit <> None then
    invalid_arg
      "Coprocessor.start: a banked-machine bank does not support \
       sub-object scanning (scan_unit)";
  let faults =
    match cfg.faults with
    | None -> Injector.disabled
    | Some spec -> Injector.create spec
  in
  let hooks = Hooks.create () in
  let san =
    San.create ~mode:cfg.sanitize ~mem_words:(H.length heap.H.mem)
      ~n_cores:cfg.n_cores ~header_words:Hdr.header_words hooks
  in
  let mem =
    Mem.create ~faults ~hooks ~obs
      ?lane:(match remote with None -> None | Some r -> Some r.rm_bank)
      cfg.mem
  in
  let events = ref 0 in
  let to_space = H.to_space heap in
  let pieces_base = to_space.Semispace.base in
  let pieces =
    match cfg.scan_unit with
    | None -> [||]
    | Some _ ->
      Array.make (max 1 (to_space.Semispace.limit - pieces_base)) 0
  in
  let parkable =
    cfg.skip && cfg.faults = None && cfg.sanitize = San.Off
    && cfg.scan_unit = None && remote = None
  in
  {
    cfg;
    park_ok = parkable && cfg.n_cores > 1;
    lone_plain = parkable && (not obs.Obs.on) && not prof.Prof.on;
    jump_cap =
      (match cfg.cycle_budget with
      | Some b -> min b (cfg.max_cycles + 1)
      | None -> cfg.max_cycles + 1);
    wd_defer = -1;
    n_parked = 0;
    n_park_scan = 0;
    n_park_empty = 0;
    n_park_header = 0;
    park_free = 0;
    prev_cycle = 0;
    due_ids = Array.make cfg.n_cores 0;
    n_due = 0;
    awake_ids = Array.make cfg.n_cores 0;
    n_awake = 0;
    heap;
    sb =
      SB.create ~hooks ~obs
        ?bank:(match remote with None -> None | Some r -> Some r.rm_bank)
        ~n_cores:cfg.n_cores ();
    mem;
    fifo = Mem.fifo mem;
    remote = (match remote with None -> remote_disabled | Some r -> r);
    hooks;
    san;
    san_seen = 0;
    obs;
    prof;
    cores = Array.init cfg.n_cores (make_core ~events ~faults ~hooks ~obs);
    tospace_limit = to_space.Semispace.limit;
    clock = Kernel.create ~skip:cfg.skip ~obs ();
    faults;
    watchdog =
      Kernel.Watchdog.create ?budget:cfg.cycle_budget
        ~window:(max 1 cfg.stall_window) ();
    events;
    wakeq = Wake_queue.create ~n:cfg.n_cores;
    n_halted = 0;
    finished = false;
    saw_empty = false;
    parallel_phase = false;
    parallel_start = 0;
    empty_cycles = 0;
    cur_frame = 0;
    cur_h0 = 0;
    cur_from = 0;
    cur_next_slot = 0;
    pieces;
    pieces_base;
    chain = No_chain;
  }

let halted = all_halted
let roots_done t = t.parallel_phase
let executed_cycles t = Kernel.executed_cycles t.clock
let skipped_cycles t = Kernel.skipped_cycles t.clock

let pieces_outstanding t = Array.fold_left ( + ) 0 t.pieces

(* Bank-parking probe for the banked driver: the machine can make no
   transition until something external (an arbitration-step evacuation
   into its worklist, or the termination grant) changes its inputs.
   Every core spins in [Try_lock_scan] on an empty worklist with all
   four buffers drained, no lock is held and no busy bit set — so not
   stepping it is observationally equivalent to stepping it, except
   that its clock does not advance (per-bank cycle counts are active
   cycles). A pure read. *)
let quiescent t =
  t.parallel_phase
  && (not t.finished)
  && t.sb.SB.scan = t.sb.SB.free
  && t.sb.SB.busy_count = 0
  && t.sb.SB.scan_owner < 0
  && t.sb.SB.free_owner < 0
  && t.sb.SB.hdr_locked_count = 0
  && t.cur_frame = 0
  &&
  let n = Array.length t.cores in
  let rec all i =
    i >= n
    ||
    let c = t.cores.(i) in
    c.state = Try_lock_scan
    && port_idle c.hl && port_idle c.hs && port_idle c.bl && port_idle c.bs
    && all (i + 1)
  in
  all 0

(* ------------------------------------------------------------------ *)
(* Event-driven core scheduling.

   A core may go to sleep when its next transition depends only on its
   own four memory buffers: every cycle until the earliest buffer event
   would replay identically (same stall, same rejected retries, no
   shared-state reads that another agent could change). States that
   poll shared state — locks, the barrier, the scan/free registers —
   cannot sleep on a wake time: the sync block is combinational and
   publishes none ([SB.next_wake] = None), so the enabling event
   (another core releasing a lock) is not known in advance. Barrier
   pollers, and every poller outside a parkable run, stay awake and
   poll each cycle. In a parkable run, a lock or worklist poller whose
   retry failed parks instead: the write that can change the retry's
   outcome wakes it, at the step that makes the write (see "Spinner
   parking").

   The wake time is the minimum over all four buffers' wake_after, not
   just the state's guard buffer: the core must be awake at every cycle
   where one of its buffers transitions, because those transitions bump
   the shared [events] counter and define global quiescence.

   Sleeping is gated on [cfg.skip]: with skipping off every core is
   stepped every cycle (pure naive stepping, the parity reference). *)
(* ------------------------------------------------------------------ *)

(* What the core's step would do on each replayed cycle of a sleep span,
   given its post-step state with all buffer statuses frozen. Encoded as
   an int to keep the hot path allocation-free:
   -1 = it would act (the core must not sleep);
    0 = it waits without recording a stall (Flush);
   >0 = the stall category recorded once per replayed cycle. *)
let rp_no_sleep = -1
let rp_quiet_wait = 0
let rp_header_load = 1
let rp_body_load = 2
let rp_body_store = 3
let rp_header_store = 4

let stall_of_rp = function
  | 1 -> Counters.Header_load
  | 2 -> Counters.Body_load
  | 3 -> Counters.Body_store
  | _ -> Counters.Header_store

let replay_of t c =
  match c.state with
  | Root_header_wait | Scan_header_wait | Child_header_wait ->
    if port_ready c.hl then rp_no_sleep else rp_header_load
  | Body_issue_load ->
    if port_idle c.bl then rp_no_sleep else rp_body_load
  | Body_wait ->
    if not (port_ready c.bl) then rp_body_load
    else
      (* The loaded word is in the (frozen) fromspace body: a home
         pointer slot transitions to Lock_child, while a data word — or
         a bank-crossing pointer, stored stale like one — either stores
         immediately (bs idle) or stalls on the store buffer. *)
      let v = t.heap.H.mem.{c.obj_from + Hdr.header_words + c.slot} in
      if
        c.slot < Hdr.pi c.h0
        && v <> H.null
        && v >= t.remote.rm_lo
        && v < t.remote.rm_hi
      then rp_no_sleep
      else if port_idle c.bs then rp_no_sleep
      else rp_body_store
  | Store_slot -> if port_idle c.bs then rp_no_sleep else rp_body_store
  | Evac_store_fwd | Evac_store_gray | Blacken ->
    if port_idle c.hs then rp_no_sleep else rp_header_store
  | Flush ->
    if
      port_idle c.hl && port_idle c.hs && port_idle c.bl
      && port_idle c.bs
    then rp_no_sleep
    else rp_quiet_wait
  | Init | Root_next | Start_barrier | Try_lock_scan | Lock_child
  | Lock_free | Piece_done | End_barrier | Halt -> rp_no_sleep

(* Credit [span] replayed stalls of category [rp] (> 0). *)
let credit_replay (k : Counters.t) rp span =
  if rp = rp_header_load then k.header_load <- k.header_load + span
  else if rp = rp_body_load then k.body_load <- k.body_load + span
  else if rp = rp_body_store then k.body_store <- k.body_store + span
  else k.header_store <- k.header_store + span

(* Int-specialized [min]/[max]: the polymorphic [Stdlib.min] is a real
   call into the generic comparison on the sleep/jump hot paths. *)
let[@inline] imin (a : int) (b : int) = if a <= b then a else b
let[@inline] imax (a : int) (b : int) = if a >= b then a else b

let port_wake c mem ~now =
  let w = Port.wake_after c.hl mem ~now in
  let w = imin w (Port.wake_after c.hs mem ~now) in
  let w = imin w (Port.wake_after c.bl mem ~now) in
  imin w (Port.wake_after c.bs mem ~now)

(* The sleep span is bounded by the *guard* buffer's event — the one
   the replayed stall waits on — not by the earliest event on any of
   the four buffers. A non-guard buffer whose transfer completes
   mid-sleep merely flips its own status, which the waking core derives
   identically from [done_at] later; nothing it enables is read before
   the wake. The exception is a [Waiting] buffer: its per-cycle
   acceptance retries touch shared state (bandwidth budget, ordering
   counters, fault stream), so any waiting buffer forces the core to
   stay awake ({!Port.retry_wake}) — except the deterministic
   order-held header-load wait, which the guard's own {!Port.wake_after}
   already schedules at the blocking store's commit. *)
let guard_wake c guard mem ~now =
  let w = Port.wake_after guard mem ~now in
  (* [Port.retry_wake] inlined: a non-guard buffer only forces the core
     awake when it is [Waiting] (its acceptance retries touch shared
     state); direct status reads, same as the tick loop. *)
  let w =
    if c.hl != guard && c.hl.Port.st = Port.st_waiting then imin w (now + 1)
    else w
  in
  let w =
    if c.hs != guard && c.hs.Port.st = Port.st_waiting then imin w (now + 1)
    else w
  in
  let w =
    if c.bl != guard && c.bl.Port.st = Port.st_waiting then imin w (now + 1)
    else w
  in
  if c.bs != guard && c.bs.Port.st = Port.st_waiting then imin w (now + 1)
  else w

(* Flush waits for all four buffers to drain: with nothing waiting (and
   so nothing retrying), the state cannot transition before the *last*
   in-flight transfer completes. *)
let port_polls (p : Port.t) =
  let st = p.Port.st in
  st = Port.st_waiting || st = Port.st_ready

let in_flight_done (p : Port.t) =
  if p.Port.st = Port.st_in_flight then p.Port.done_at else min_int

let flush_wake c ~now =
  if port_polls c.hl || port_polls c.hs || port_polls c.bl || port_polls c.bs
  then now + 1
  else
    let w = in_flight_done c.hl in
    let w = imax w (in_flight_done c.hs) in
    let w = imax w (in_flight_done c.bl) in
    imax w (in_flight_done c.bs)

(* Decide whether the just-stepped core can sleep, and credit the
   statistics its replayed cycles would have accumulated: the replay
   stall once per cycle, busy cycles while its busy bit is set, and one
   comparator rejection per cycle for an order-held header load. The
   wake cycle itself is stepped normally, so the span excludes it. *)
let maybe_sleep t c ~now =
  match c.state with
  | Halt -> ()  (* wake already pinned at max_int *)
  | _ -> begin
    let rp = replay_of t c in
    if rp = rp_no_sleep then c.wake <- now + 1
    else begin
      let w =
        if rp = rp_quiet_wait then flush_wake c ~now
        else
          let guard =
            if rp = rp_header_load then c.hl
            else if rp = rp_body_load then c.bl
            else if rp = rp_body_store then c.bs
            else c.hs
          in
          guard_wake c guard t.mem ~now
      in
      if w > now + 1 && w < max_int then begin
        c.wake <- w;
        Wake_queue.arm t.wakeq ~id:c.id ~time:w;
        let span = w - now - 1 in
        if rp > 0 then credit_replay c.counters rp span;
        (* The slept cycles replay the same stall (or the quiet Flush
           wait); attribute and trace them exactly as naive stepping
           would have, one bulk credit instead of per-cycle bumps. *)
        if t.prof.Prof.on then
          Prof.add t.prof ~core:c.id
            ~bucket:
              (if rp > 0 then 1 + stall_index (stall_of_rp rp)
               else Prof.bucket_idle)
            span;
        if t.obs.Obs.on && rp > 0 then
          Obs.stall_run t.obs ~core:c.id
            ~kind:(stall_index (stall_of_rp rp))
            ~cycle:(now + 1) ~span;
        if t.sb.SB.busy.(c.id) then
          c.counters.busy_cycles <- c.counters.busy_cycles + span;
        if Port.order_held c.hl t.mem then Mem.add_rejected_order t.mem span
      end
      else c.wake <- now + 1
    end
  end

(* A cycle was quiescent iff the shared transition counter never moved —
   no buffer status change, no marked core transition — and the shared
   scan/free registers held still. A lock acquired and released within
   the cycle (e.g. the termination probe under the scan lock) is
   deliberately invisible: it leaves no state behind and replays
   identically. *)
let cycle_was_quiet t ~scan0 ~free0 =
  !(t.events) = 0 && t.sb.SB.scan = scan0 && t.sb.SB.free = free0

(* Earliest future cycle at which any memory buffer can change status —
   the wake-up that bounds a whole-machine fast-forward. Sleeping and
   parked cores are covered by the wake queue (their armed wake is the
   earliest event of their buffers, frozen until they are next due);
   the awake list's buffers are scanned directly. After a stepped cycle
   the awake list holds every core whose wake is [now + 1] except
   sleepers armed for exactly [now + 1] — and those make the queue
   answer [now + 1], which rules out a jump anyway. [max_int] means
   nothing is pending (a would-be deadlock spins cycle by cycle, exactly
   as naive stepping would, until the watchdog trips). Bails as soon as
   some buffer can wake next cycle (no skip possible then). *)
let next_wake_awake t ~now =
  let best = ref (Wake_queue.next_after t.wakeq ~now) in
  let ids = t.awake_ids and cores = t.cores in
  let limit = now + 1 in
  let i = ref 0 in
  while !i < t.n_awake && !best > limit do
    let c = Array.unsafe_get cores (Array.unsafe_get ids !i) in
    let w = port_wake c t.mem ~now in
    if w < !best then best := w;
    incr i
  done;
  !best

(* Credit the statistics that [span] identical replays of the
   just-executed cycle would have accumulated for the awake cores: each
   stalled core bumps its stall category once per cycle, a core whose
   termination probe failed probes again (a zero-cycle scan-lock hold)
   each cycle, set busy bits accrue busy cycles, an idle worklist
   accrues empty cycles, and every comparator-held header load is
   rejected once more each cycle.
   Sleeping cores were already credited through their whole sleep span
   when they went to sleep — and the fast-forward target never passes
   their wake, so there is no double count. Parked cores are credited
   when they wake, for every cycle of the park, executed or skipped. *)
let credit_awake t ~cycle ~span ~empty_delta =
  let ids = t.awake_ids and cores = t.cores in
  let limit = cycle + 1 in
  for i = 0 to t.n_awake - 1 do
    let c = Array.unsafe_get cores (Array.unsafe_get ids i) in
    if c.stall_cycle = cycle then begin
      Counters.bump_n c.counters c.stall_kind span;
      if t.obs.Obs.on then
        Obs.stall_run t.obs ~core:c.id
          ~kind:(stall_index c.stall_kind)
          ~cycle:limit ~span
    end
    else if t.obs.Obs.on && c.probe_cycle = cycle then
      Obs.scan_probes t.obs ~last:(cycle + span) ~n:span;
    (* Profiler: the skipped cycles replay the just-executed one, so
       each awake core repeats the bucket it was attributed there. *)
    if t.prof.Prof.on then
      Prof.add t.prof ~core:c.id
        ~bucket:
          (if c.stall_cycle = cycle then 1 + stall_index c.stall_kind
           else prof_bucket_of_state c.state)
        span;
    if t.sb.SB.busy.(c.id) then
      c.counters.busy_cycles <- c.counters.busy_cycles + span;
    if Port.order_held c.hl t.mem then Mem.add_rejected_order t.mem span
  done;
  t.empty_cycles <- t.empty_cycles + (span * empty_delta)

(* The trip is raised after the clock moved past the last executed
   cycle, where a naive stepper ticked every core's ports; a core that
   slept or parked through it was not ticked, so its ports are rendered
   as that tick would leave them. The machine itself is not touched: a
   post-mortem snapshot saves it as it stands. *)
let diagnose t trip =
  let ticked = now t - 1 in
  {
    trip;
    at_cycle = now t;
    d_scan = t.sb.SB.scan;
    d_free = t.sb.SB.free;
    scan_lock = SB.scan_lock_owner t.sb;
    free_lock = SB.free_lock_owner t.sb;
    fifo_depth = Fifo.length t.fifo;
    pending_header_stores = Mem.pending_store_count t.mem;
    worklist_nonempty = t.sb.SB.scan <> t.sb.SB.free;
    core_dumps =
      Array.to_list
        (Array.map
           (fun c ->
             {
               core_id = c.id;
               microstate = state_name c.state;
               busy = t.sb.SB.busy.(c.id);
               header_lock = SB.header_lock_of t.sb ~core:c.id;
               ports =
                 [
                   ("hl", Port.describe c.hl ~now:ticked);
                   ("hs", Port.describe c.hs ~now:ticked);
                   ("bl", Port.describe c.bl ~now:ticked);
                   ("bs", Port.describe c.bs ~now:ticked);
                 ];
             })
           t.cores);
  }

(* The wake an awake spinner carries between steps: the cycle after the
   last executed one (stamped into the hook record by every executed
   cycle). *)
let spin_wake t = t.hooks.Hooks.cycle + 1

(* Buffer retry/completion for one core. Order (hl, hs, bl, bs) is the
   static priority: acceptance order defines the bandwidth and ordering
   counters. [Port.tick] is a no-op unless the buffer is retrying
   acceptance or an in-flight transfer just completed; release builds
   inline it down to that status test, and a body-class retry down to
   the bandwidth check. *)
let tick_ports t c ~now =
  let m = t.mem in
  Port.tick c.hl m ~now;
  Port.tick c.hs m ~now;
  Port.tick c.bl m ~now;
  Port.tick c.bs m ~now

(* --- Spinner parking -----------------------------------------------

   A core that loses a synchronization wait retries every cycle, and
   each retry is a pure replay: the sync block is combinational, so the
   outcome can only change after another core writes it. Three retries
   qualify, each with the write that can change its outcome:

   - a failed grab against a scan lock held by another core (held across
     cycles only in [Scan_header_wait], so its frame sits at
     [scan < free] and the probe never sees an empty worklist): woken by
     the scan-lock release;
   - an empty-worklist probe whose termination check failed (the lock
     is free, [scan = free], some other core is busy — never the prober
     itself, which cleared its busy bit before returning to
     [Try_lock_scan]): woken when [free] moves, [busy_count] reaches 0
     or [finished] is set;
   - a failed header lock on [child] while another core holds it: woken
     by the release of that header address.

   In a parkable run (see [park_ok]) such a core parks after the step
   instead of being stepped every cycle, provided none of its buffers
   is retrying acceptance (a waiting buffer touches the shared
   bandwidth budget every cycle). In-flight buffers are fine: the parked core's wake is
   their next completion, where it is due for the tick alone, so every
   buffer transition still lands on its own cycle.

   The wake checks run after every core step, in the paper's static
   priority: cores step in index order, so when core [j] writes during
   its step at cycle [y], a parked core [i > j] retries at [y] itself
   (the walk reaches it after [j]), while [i < j] already had its
   failed turn at [y] and retries at [y + 1]. The skipped retries are
   credited in bulk at the wake: a lock spinner's stall count and latch
   (the latch carries the last executed cycle it spun in), busy cycles
   while its busy bit is set (it is its own bit, frozen while parked),
   and, for each cycle in which a parked prober would have probed
   before the first waking write, the empty-worklist observation.

   Attached instruments get the same credit, in O(1) per wake. The
   profiler's row gains the span in the spinner's stall bucket, or in
   idle for a prober (a failed probe leaves no stall latch). The
   tracer's stall run for a lock spinner is still open from the retry
   that parked it, and nothing touches that core's run while it is
   parked, so extending it by the span closes it where the spinner
   would have; a prober's skipped probes are zero-cycle scan-lock
   holds. A parked core's phase cannot change, so phases need nothing.

   A parked core counts as awake: no all-asleep fast-forward happens
   while one is parked, its tick is armed in the wake queue for the
   quiet fast-forward's bound, and every reader outside the stepping
   loop sees the spinner it stands for ([spin_wake], [unpark_all]). So
   the executed/skipped split and every jump are exactly the unparked
   engine's. *)

(* The next completion among the core's in-flight transfers, or
   [max_int]. *)
let park_tick c =
  let w =
    if c.hl.Port.st = Port.st_in_flight then c.hl.Port.done_at else max_int
  in
  let w =
    if c.hs.Port.st = Port.st_in_flight then imin w c.hs.Port.done_at else w
  in
  let w =
    if c.bl.Port.st = Port.st_in_flight then imin w c.bl.Port.done_at else w
  in
  if c.bs.Port.st = Port.st_in_flight then imin w c.bs.Port.done_at else w

(* Arm the parked core's next buffer tick. *)
let rearm_parked t c =
  let w = park_tick c in
  c.wake <- w;
  if w < max_int then Wake_queue.arm t.wakeq ~id:c.id ~time:w

let push_awake t c =
  Array.unsafe_set t.awake_ids t.n_awake c.id;
  t.n_awake <- t.n_awake + 1

(* Give core [id] a turn later in the current cycle: insert it into the
   due list in index order. Every core already walked has a lower id,
   so the insertion lands in the part still to be walked. *)
let insert_due t id =
  let due = t.due_ids in
  let p = ref t.n_due in
  while !p > 0 && Array.unsafe_get due (!p - 1) > id do
    Array.unsafe_set due !p (Array.unsafe_get due (!p - 1));
    decr p
  done;
  Array.unsafe_set due !p id;
  t.n_due <- t.n_due + 1

(* Park the just-stepped core if its step at [now] was a pure retry of a
   synchronization wait. *)
let try_park t c ~now =
  let kind =
    match c.state with
    | Try_lock_scan ->
      if c.stall_cycle = now then park_scan
      else if c.probe_cycle = now then park_empty
      else park_none
    | Lock_child -> if c.stall_cycle = now then park_header else park_none
    | _ -> park_none
  in
  kind <> park_none
  && c.hl.Port.st <> Port.st_waiting
  && c.hs.Port.st <> Port.st_waiting
  && c.bl.Port.st <> Port.st_waiting
  && c.bs.Port.st <> Port.st_waiting
  && begin
       c.park <- kind;
       c.park_cycle <- now + 1;
       t.n_parked <- t.n_parked + 1;
       if kind = park_scan then t.n_park_scan <- t.n_park_scan + 1
       else if kind = park_empty then begin
         t.n_park_empty <- t.n_park_empty + 1;
         t.park_free <- t.sb.SB.free
       end
       else t.n_park_header <- t.n_park_header + 1;
       rearm_parked t c;
       true
     end

(* Return a parked core to the stepping loop. The spins of cycles
   [park_cycle, upto) are credited, a lock spinner's latch is set to
   [latch] (the last executed cycle it spun in), and the core is due at
   [wake]. *)
let unpark t c ~upto ~wake ~latch =
  let kind = c.park in
  let span = upto - c.park_cycle in
  if span > 0 then begin
    let k = c.counters in
    if kind = park_scan then k.Counters.scan_lock <- k.Counters.scan_lock + span
    else if kind = park_header then
      k.Counters.header_lock <- k.Counters.header_lock + span;
    if Array.unsafe_get t.sb.SB.busy c.id then
      k.Counters.busy_cycles <- k.Counters.busy_cycles + span;
    if t.prof.Prof.on then
      Prof.add t.prof ~core:c.id
        ~bucket:
          (if kind = park_empty then Prof.bucket_idle
           else 1 + stall_index c.stall_kind)
        span;
    if t.obs.Obs.on then
      if kind = park_empty then Obs.scan_probes t.obs ~last:(upto - 1) ~n:span
      else
        Obs.stall_run t.obs ~core:c.id
          ~kind:(stall_index c.stall_kind)
          ~cycle:c.park_cycle ~span
  end;
  if kind = park_scan then t.n_park_scan <- t.n_park_scan - 1
  else if kind = park_empty then t.n_park_empty <- t.n_park_empty - 1
  else t.n_park_header <- t.n_park_header - 1;
  if kind <> park_empty then c.stall_cycle <- latch;
  t.n_parked <- t.n_parked - 1;
  c.park <- park_none;
  c.wake <- wake;
  Wake_queue.disarm t.wakeq ~id:c.id

(* A write by core [after] during its step at [now] can change the
   outcome of every retry parked as [kind] (on header address [addr],
   for [park_header]): wake them in static priority. *)
let[@inline never] wake_parked t ~kind ~addr ~now ~after =
  let cores = t.cores in
  (* The walk ends once it has seen every core parked as [kind]. *)
  let left =
    ref
      (if kind = park_scan then t.n_park_scan
       else if kind = park_empty then t.n_park_empty
       else t.n_park_header)
  in
  let i = ref 0 in
  while !left > 0 && !i < Array.length cores do
    let c = Array.unsafe_get cores !i in
    if c.park = kind then begin
      decr left;
      if kind <> park_header || c.child = addr then
        if !i > after then begin
          (* Due for a buffer tick means already in the due list. *)
          let listed = c.wake <= now in
          unpark t c ~upto:now ~wake:now ~latch:t.prev_cycle;
          if not listed then insert_due t !i
        end
        else begin
          unpark t c ~upto:(now + 1) ~wake:(now + 1) ~latch:now;
          (* It probed this cycle, before the write. *)
          if kind = park_empty then t.saw_empty <- true;
          push_awake t c
        end
    end;
    incr i
  done

(* The wake checks after core [c]'s step at [now]; [hdr0] is the header
   address [c] held before the step (0 = none, or no header parkers). *)
let wake_check t c ~now ~hdr0 =
  let sb = t.sb in
  if t.n_park_scan > 0 && sb.SB.scan_owner < 0 then
    wake_parked t ~kind:park_scan ~addr:0 ~now ~after:c.id;
  if
    t.n_park_empty > 0
    && (sb.SB.free <> t.park_free || sb.SB.busy_count = 0 || t.finished)
  then wake_parked t ~kind:park_empty ~addr:0 ~now ~after:c.id;
  if
    t.n_park_header > 0 && hdr0 <> 0
    && Array.unsafe_get sb.SB.header_regs c.id <> hdr0
  then wake_parked t ~kind:park_header ~addr:hdr0 ~now ~after:c.id

(* Flush every parked core back to the spinner it stands for, between
   steps: spins credited up to the current cycle, latch on the last
   executed cycle, due as an awake core is. Run before anything outside
   the stepping loop can observe the machine — a snapshot, a per-step
   trace, a main-processor write. *)
let unpark_all t =
  if t.n_parked > 0 then begin
    let upto = t.clock.Kernel.now and latch = t.hooks.Hooks.cycle in
    let cores = t.cores in
    for i = 0 to Array.length cores - 1 do
      let c = Array.unsafe_get cores i in
      if c.park <> park_none then unpark t c ~upto ~wake:(spin_wake t) ~latch
    done
  end

(* ------------------------------------------------------------------ *)
(* One machine cycle: the event-driven engine's step, and the
   fallback of lone-core stepping.

   Static prioritization: buffers retry, then cores execute, both in
   core-index order — the lowest index wins simultaneous claims, and a
   lock released by an earlier core is acquirable by a later core in
   the same cycle. Both phases walk [t.due_ids] (the [n_due] cores due
   this cycle, in index order) instead of the whole core array, so a cycle
   costs in proportion to the cores that act. Sleeping cores are not
   due — none of their buffers can transition before their wake, and
   their rejected retries were bulk-credited when they went to sleep —
   and a parked core is due only on the cycles its in-flight transfers
   complete. A due core's wake cannot change before its own turn, and a
   write that wakes a parked core in time to retry this same cycle (id
   past the writer) inserts it into the rest of the list, so every core
   still gets its turn in index order.

   [park] enables spinner parking. *)
(* ------------------------------------------------------------------ *)

(* Branch-free: every id is written at the list's end, and the end
   moves past it only when the core is due ([n0 - wake] is negative
   exactly when it is not, and no wake is negative, so the difference
   cannot overflow). A compare-and-branch here mispredicted on most
   cycles at 8 and 16 cores. *)
let collect_due t ~n0 =
  let cores = t.cores and due = t.due_ids in
  let d = ref 0 in
  for i = 0 to Array.length cores - 1 do
    Array.unsafe_set due !d i;
    d := !d + 1 + ((n0 - (Array.unsafe_get cores i).wake) asr 62)
  done;
  t.n_due <- !d

(* One cycle over the due list built by [collect_due]. *)
let step_cycle ?trace ?horizon t ~n0 ~park =
  let m = t.mem in
  m.Mem.cycle <- n0;
  m.Mem.accepted_this_cycle <- 0;
  (* Stamp the shared hook record so diagnostics and sanitizer findings
     raised anywhere this cycle carry the cycle number. *)
  t.prev_cycle <- t.hooks.Hooks.cycle;
  t.hooks.Hooks.cycle <- n0;
  if t.obs.Obs.on then t.obs.Obs.cycle <- n0;
  let scan0 = t.sb.SB.scan and free0 = t.sb.SB.free in
  t.events := 0;
  let cores = t.cores and due = t.due_ids in
  for k = 0 to t.n_due - 1 do
    tick_ports t (Array.unsafe_get cores (Array.unsafe_get due k)) ~now:n0
  done;
  t.saw_empty <- false;
  t.n_awake <- 0;
  let skip = t.cfg.skip in
  (* [t.n_due] can grow during the walk: a write may wake a parked core
     in time to retry this cycle ([insert_due]). *)
  let k = ref 0 in
  while !k < t.n_due do
    let c = Array.unsafe_get cores (Array.unsafe_get due !k) in
    incr k;
    if c.park <> park_none then
      (* Due for its buffer tick alone (phase 1 flipped the transfer that
         completed): it stays parked until the next one. *)
      rearm_parked t c
    else begin
      let hdr0 =
        if t.n_park_header > 0 then Array.unsafe_get t.sb.SB.header_regs c.id
        else 0
      in
      step_core t c;
      (* Attribute this executed cycle: the stall latch carrying [n0]
         identifies the stall category (it was counted exactly once by
         [stall]); otherwise the post-step state says busy or idle. *)
      if t.prof.Prof.on then
        Prof.add t.prof ~core:c.id
          ~bucket:
            (if c.stall_cycle = n0 then 1 + stall_index c.stall_kind
             else prof_bucket_of_state c.state)
          1;
      if t.obs.Obs.on then begin
        if c.stall_cycle = n0 then
          Obs.stall_run t.obs ~core:c.id
            ~kind:(stall_index c.stall_kind)
            ~cycle:n0 ~span:1;
        Obs.set_phase t.obs ~core:c.id
          ~phase:(phase_of_state c.state)
          ~cycle:n0
      end;
      if
        skip
        && not
             (park
             && (match c.state with
                | Try_lock_scan | Lock_child -> try_park t c ~now:n0
                | _ -> false))
      then begin
        maybe_sleep t c ~now:n0;
        if c.wake = n0 + 1 then push_awake t c
      end;
      if t.n_parked > 0 then wake_check t c ~now:n0 ~hdr0
    end
  done;
  (* A prober still parked probed this cycle too, with no write before
     its turn. *)
  if t.n_park_empty > 0 then t.saw_empty <- true;
  if t.obs.Obs.on && Obs.sample_due t.obs ~cycle:n0 then
    Obs.sample t.obs ~cycle:n0
      ~backlog:(t.sb.SB.free - t.sb.SB.scan)
      ~fifo_depth:(Fifo.length t.fifo);
  let empty_delta =
    if t.parallel_phase && (not t.finished) && t.saw_empty then 1 else 0
  in
  t.empty_cycles <- t.empty_cycles + empty_delta;
  (match trace with
  | Some tr ->
    if Trace.due tr ~cycle:n0 then begin
      let activity =
        String.init t.cfg.n_cores (fun i -> state_code t.cores.(i).state)
      in
      Trace.record tr ~cycle:n0 ~scan:(t.sb.SB.scan) ~free:(t.sb.SB.free)
        ~fifo_depth:(Fifo.length t.fifo) ~activity
    end;
    if t.hooks.Hooks.on then begin
      let fs = San.findings t.san in
      let n = List.length fs in
      if n > t.san_seen then begin
        List.iteri
          (fun i d ->
            if i >= t.san_seen then
              Trace.annotate tr ~cycle:n0 (Diag.to_string d))
          fs;
        t.san_seen <- n
      end
    end
  | None -> ());
  Kernel.tick t.clock;
  let quiet = cycle_was_quiet t ~scan0 ~free0 in
  if not (all_halted t) then begin
    (* Watchdog: a quiet cycle made no global progress. The no-progress
       window counts executed cycles only — skipped spans always end at
       a wake-up that produces a transition, so they cannot mask a
       deadlock (a true deadlock has no wake-up and spins cycle by
       cycle, exactly what the window measures). *)
    (match
       Kernel.Watchdog.observe t.watchdog ~now:n0 ~progressed:(not quiet)
     with
    | Some trip -> raise (Stall_diagnosis (diagnose t trip))
    | None -> ());
    (* Whole-machine fast-forward (disabled while tracing: a trace wants
       to sample the quiet cycles too). Two triggers: a quiescent cycle
       (the classic idle-cycle skip, bounded by every buffer wake), or
       every core asleep on a memory response, in which case nothing can
       happen before the earliest armed wake even though this cycle
       itself made progress. A parked core counts as awake there: the
       spinner it stands for would have run. *)
    if t.cfg.skip && Option.is_none trace then
      if quiet then begin
        let wake = next_wake_awake t ~now:n0 in
        if wake < max_int then begin
          let target = imin (Wake_queue.bound ~horizon wake) t.jump_cap in
          if target > n0 + 1 then begin
            (* The skipped cycles are quiescent, so the counter samples a
               naive stepper would take in them carry today's (frozen)
               signal values — emit them before jumping so the event
               stream stays stepping-invariant. *)
            if t.obs.Obs.on then
              Obs.catch_up_samples t.obs ~target
                ~backlog:(t.sb.SB.free - t.sb.SB.scan)
                ~fifo_depth:(Fifo.length t.fifo);
            let span = Kernel.fast_forward t.clock ~target in
            credit_awake t ~cycle:n0 ~span ~empty_delta
          end
        end
      end
      else if t.n_awake = 0 && t.n_parked = 0 then begin
        let wake = Wake_queue.next_after t.wakeq ~now:n0 in
        if wake < max_int then begin
          let target = imin (Wake_queue.bound ~horizon wake) t.jump_cap in
          if target > n0 + 1 then begin
            (* No awake core means no stall latch, no busy bit moving, no
               worklist probe in the skipped span: sleeping cores were
               credited when they went to sleep, so there is nothing to
               credit here. Counter samples still need catching up — the
               signals are frozen while everyone sleeps. *)
            if t.obs.Obs.on then
              Obs.catch_up_samples t.obs ~target
                ~backlog:(t.sb.SB.free - t.sb.SB.scan)
                ~fifo_depth:(Fifo.length t.fifo);
            ignore (Kernel.fast_forward t.clock ~target)
          end
        end
      end
  end

(* ------------------------------------------------------------------ *)
(* Lone-core stepping: the single-due window.

   When exactly one core is due and none is parked, every other core is
   asleep or halted until its armed wake, and nothing the due core does
   can wake one earlier (only parked cores wake on a write). So in a
   plain run (see [lone_plain]) such an untraced [step] after the root
   phase runs the core alone through an exclusive interpreter
   ([exclusive_loop]) up to the other cores' earliest wake ([foreign];
   [max_int] on one core), the horizon, the cycle budget or the
   divergence bound ([jump_cap]), and the body-copy inner loop
   ([data_run_macro]) retires whole runs of data words in closed form.

   The contract is the event-driven engine's: every reported statistic
   is bit-identical to naive stepping. The split is too: the
   interpreter executes exactly the cycles the shared cycle would
   execute and skips exactly the spans it would sleep or fast-forward
   through (test_kernel pins both). Beyond one core that takes three
   things: a quiet spin jumps to the earlier of its own buffers' next
   event and [foreign], as the shared cycle does (a core spinning on a
   lock held by a sleeper has no buffer event); a copy run cut by the
   window's end sleeps on its body load as the shared cycle would; and
   the run reports its last word cycle to the deferred watchdog. A
   spinner is stepped, not parked: parking is exact against the
   unparked engine, and the next shared cycle parks it.

   The root phase stays on the shared cycle because a caller may poll
   [roots_done] between steps that pass no horizon, as
   [Concurrent.collect] does for its stop-the-world prefix: a segment
   run on past the start barrier would swallow the whole collection
   into that prefix. *)
(* ------------------------------------------------------------------ *)

(* Closed-form retirement of a data-word copy run — the paper's inner
   loop: consume the loaded word, store it and issue the next load in
   one cycle, then stall [L-1] cycles on the body-load buffer until the
   next word arrives ([L] = body load latency). Entered at a word cycle:
   the core in [Body_wait], the body-load buffer just flipped ready, the
   other three buffers idle, every other core asleep past [limit].

   Per full word the naive engine books: one executed copy cycle (busy,
   one store + one load accepted — bandwidth >= 2 guarantees both) and
   [L-1] body-load stall cycles (busy). The macro books those totals
   directly ([Kernel.retire] advances the clock in one call) and
   performs the same word-at-a-time heap copy. A pointer slot, the end
   of the work item, or a next word that completes at or past [limit]
   ends the run ([data_run_exit]). *)
let set_port (p : Port.t) st ~addr ~done_at ~issued_at =
  p.Port.st <- st;
  p.Port.addr <- addr;
  p.Port.done_at <- done_at;
  p.Port.issued_at <- issued_at

(* Close out a run at its last word cycle [w], which consumes [slot]
   (holding [v]) after [words] data words and [gaps] replayed stall
   cycles: a pointer slot turns to the child; the item's last word is
   stored; any other word is stored, its successor loaded, and the core
   sleeps on that load as the shared cycle would, its [L-1] stall cycles
   credited and the clock stopped at [limit]. Otherwise the clock stops
   just after [w] with the core due. The port registers and the
   per-cycle registers (memory cycle and acceptances, hook cycle,
   transition count) are left as the per-cycle engines leave them after
   [w], so a snapshot taken there reads the same bytes. The watchdog is
   the caller's deferral, reported at [w]: the state that leaves —
   quiet = 0, last progress = [w] — matches per-cycle stepping, and
   [limit] never exceeds the cycle budget, so the deferral cannot mask
   a budget trip. *)
let data_run_exit t c ~fromb ~tob ~slot_limit ~lat_l ~lat_s ~limit ~ptr w
    slot words gaps v =
  let bl = c.bl and bs = c.bs in
  (* A word cycle after the first ticked two completions, the previous
     word's store and this word's load; the first one's tick ran before
     the macro and left its count in [t.events]. *)
  let ticked =
    if words = 0 then !(t.events)
    else begin
      set_port bs Port.st_idle ~addr:(tob + slot - 1)
        ~done_at:(w - lat_l + lat_s) ~issued_at:(w - lat_l);
      set_port bl Port.st_idle ~addr:(fromb + slot) ~done_at:w
        ~issued_at:(w - lat_l);
      2
    end
  in
  bl.Port.st <- Port.st_idle;
  (* Transfers issued at [w], each a deposit and an acceptance. *)
  let issued =
    if ptr then begin
      c.child <- v;
      c.state <- Lock_child;
      0
    end
    else begin
      set_port bs Port.st_in_flight ~addr:(tob + slot) ~done_at:(w + lat_s)
        ~issued_at:w;
      if slot + 1 >= slot_limit then begin
        c.state <- (if c.whole then Blacken else Piece_done);
        1
      end
      else begin
        set_port bl Port.st_in_flight ~addr:(fromb + slot + 1)
          ~done_at:(w + lat_l) ~issued_at:w;
        c.state <- Body_wait;
        2
      end
    end
  in
  let copied = if ptr then words else words + 1
  and sleep = if issued = 2 then lat_l - 1 else 0 in
  c.slot <- (if ptr then slot else slot + 1);
  let k = c.counters in
  k.Counters.words_copied <- k.Counters.words_copied + copied;
  k.Counters.body_load <- k.Counters.body_load + gaps + sleep;
  (* Word cycles and their replayed gaps are all busy: [Body_wait]
     implies the busy bit is set for the whole run. *)
  k.Counters.busy_cycles <- k.Counters.busy_cycles + words + 1 + gaps + sleep;
  let m = t.mem in
  (* Every copied word but the item's last issued a next load. *)
  m.Mem.loads <- m.Mem.loads + (if issued = 2 then words + 1 else words);
  m.Mem.stores <- m.Mem.stores + copied;
  m.Mem.cycle <- w;
  m.Mem.accepted_this_cycle <- issued;
  t.hooks.Hooks.cycle <- w;
  t.events := ticked + 1 + (2 * issued);
  t.saw_empty <- false;
  t.wd_defer <- w;
  let stop = if issued = 2 then limit else w + 1 in
  Kernel.retire t.clock ~executed:(words + 1)
    ~skipped:(stop - t.clock.Kernel.now - words - 1);
  c.wake <- w + 1 + sleep

(* The run loop proper, as explicit tail recursion over plain ints: a
   [while] with [ref] accumulators would box them (classic ocamlopt
   only unboxes non-escaping references, and the step loop must not
   allocate). [w] is the word cycle being executed, [slot] the slot it
   consumes, [words]/[gaps] the data words copied and stall cycles
   replayed so far. Unsafe accesses are in bounds by construction: the
   microprogram has already validated [obj_from]/[obj_to] frames when
   it entered the copy loop, and lone-core stepping never runs with a
   fault plan. *)
let rec data_run_go t c ~fromb ~tob ~pi ~slot_limit ~lat_l ~lat_s ~limit w
    slot words gaps =
  let heap = t.heap.H.mem in
  let v = Bigarray.Array1.unsafe_get heap (fromb + slot) in
  let ptr = slot < pi && v <> H.null in
  if not ptr then Bigarray.Array1.unsafe_set heap (tob + slot) v;
  if ptr || slot + 1 >= slot_limit || w + lat_l >= limit then
    data_run_exit t c ~fromb ~tob ~slot_limit ~lat_l ~lat_s ~limit ~ptr w
      slot words gaps v
  else
    data_run_go t c ~fromb ~tob ~pi ~slot_limit ~lat_l ~lat_s ~limit
      (w + lat_l) (slot + 1) (words + 1)
      (gaps + (lat_l - 1))

let data_run_macro t c ~limit =
  let cfgm = t.mem.Mem.config in
  data_run_go t c
    ~fromb:(c.obj_from + Hdr.header_words)
    ~tob:(c.obj_to + Hdr.header_words)
    ~pi:(Hdr.pi c.h0) ~slot_limit:c.slot_limit
    ~lat_l:cfgm.Mem.body_load_latency ~lat_s:cfgm.Mem.store_latency ~limit
    t.clock.Kernel.now c.slot 0 0

(* Exclusive interpreter: the lone core ticks, steps and sleeps with no
   whole-machine scans, and global jumps reduce to its own wake
   arithmetic. The per-cycle machinery of the shared cycle is
   specialized away:

   - sleeps credit their replay statistics inline and advance the clock
     directly to [min wake limit] (the whole machine is asleep, so the
     queue-mediated all-asleep jump collapses to one assignment);
   - the wake queue is not touched per sleep — the single exit arm
     below restores the queue invariant the shared cycle relies on;
   - watchdog observations of progressed cycles are deferred and
     flushed in one call (at the next quiet cycle or segment exit),
     which leaves bit-identical watchdog state because consecutive
     progress observations are idempotent up to the last one, and
     [limit] never exceeds the cycle budget.

   Exits once the clock reaches [limit] or the core's own wake passes
   the current cycle (the caller re-evaluates the machine shape). *)
(* Flush the deferred watchdog progress observation (see [t.wd_defer]).
   Consecutive progress observations are idempotent up to the last one,
   so reporting only the latest leaves bit-identical watchdog state;
   deferral cannot mask a budget trip because every deferred cycle is
   below [limit], which is capped at the cycle budget. *)
let wd_flush t =
  if t.wd_defer >= 0 then begin
    let n = t.wd_defer in
    t.wd_defer <- -1;
    match Kernel.Watchdog.observe t.watchdog ~now:n ~progressed:true with
    | Some trip -> raise (Stall_diagnosis (diagnose t trip))
    | None -> ()
  end

(* One exclusive cycle, tail-recursively (top-level recursion with plain
   arguments: a [while] over [ref] state would box the refs and a local
   flush closure would allocate per segment, and the step loop must not
   allocate). *)
let rec exclusive_loop t c ~limit ~foreign ~macro_ok =
  let clock = t.clock in
  let n0 = clock.Kernel.now in
  if n0 >= limit || c.wake > n0 then ()
  else begin
    t.mem.Mem.cycle <- n0;
    t.mem.Mem.accepted_this_cycle <- 0;
    t.hooks.Hooks.cycle <- n0;
    let scan0 = t.sb.SB.scan and free0 = t.sb.SB.free in
    t.events := 0;
    tick_ports t c ~now:n0;
    if
      macro_ok
      && (match c.state with Body_wait -> true | _ -> false)
      && c.bl.Port.st = Port.st_ready
      && c.hl.Port.st = Port.st_idle
      && c.hs.Port.st = Port.st_idle
      && c.bs.Port.st = Port.st_idle
    then begin
      (* The run's last word cycle, reported to [t.wd_defer], subsumes
         any older pending progress observation. *)
      data_run_macro t c ~limit;
      exclusive_loop t c ~limit ~foreign ~macro_ok
    end
    else begin
      t.saw_empty <- false;
      step_core t c;
      (* Executed cycle: inline [Kernel.tick]. *)
      clock.Kernel.now <- n0 + 1;
      clock.Kernel.executed <- clock.Kernel.executed + 1;
      let empty_delta =
        if t.parallel_phase && (not t.finished) && t.saw_empty then 1 else 0
      in
      t.empty_cycles <- t.empty_cycles + empty_delta;
      if (match c.state with Halt -> true | _ -> false) then begin
        (* Wake already pinned at max_int by the halt transition; the
           shared cycle skips the watchdog when everyone halted. The
           pinned wake ends the recursion at the next check. *)
        if not (all_halted t) then t.wd_defer <- n0
      end
      else begin
        (* Inline [maybe_sleep]: same replay decision, but the credit
           skips the profiler/tracer branches (none is attached) and
           the clock jumps in place of the queue round-trip. *)
        let rp = replay_of t c in
        let w =
          if rp = rp_no_sleep then n0 + 1
          else if rp = rp_quiet_wait then flush_wake c ~now:n0
          else
            let guard =
              if rp = rp_header_load then c.hl
              else if rp = rp_body_load then c.bl
              else if rp = rp_body_store then c.bs
              else c.hs
            in
            guard_wake c guard t.mem ~now:n0
        in
        let slept = w > n0 + 1 && w < max_int in
        if slept then begin
          c.wake <- w;
          let span = w - n0 - 1 in
          if rp > 0 then credit_replay c.counters rp span;
          if t.sb.SB.busy.(c.id) then
            c.counters.busy_cycles <- c.counters.busy_cycles + span;
          if Port.order_held c.hl t.mem then Mem.add_rejected_order t.mem span;
          (* Whole machine asleep until [min w limit]: jump there
             directly ([limit] is already capped by the horizon, the
             divergence bound and the cycle budget). *)
          let target = if w < limit then w else limit in
          if target > n0 + 1 then begin
            clock.Kernel.skipped <- clock.Kernel.skipped + (target - n0 - 1);
            clock.Kernel.now <- target
          end
        end
        else c.wake <- n0 + 1;
        if !(t.events) = 0 && t.sb.SB.scan = scan0 && t.sb.SB.free = free0
        then begin
          (* Quiet cycle: flush deferred progress first so the
             no-progress window counts from the right cycle. *)
          wd_flush t;
          (match
             Kernel.Watchdog.observe t.watchdog ~now:n0 ~progressed:false
           with
          | Some trip -> raise (Stall_diagnosis (diagnose t trip))
          | None -> ());
          if not slept then begin
            (* Quiet spin (e.g. a poll-state replay): same global
               fast-forward as the shared cycle, but [c] is the only
               awake core, so the whole-machine scan collapses to its
               own buffer arithmetic and the other cores' earliest wake,
               and the bulk credit touches it alone. *)
            let wake = imin (port_wake c t.mem ~now:n0) foreign in
            if wake < max_int then begin
              let target = imin wake limit in
              if target > n0 + 1 then begin
                let span = Kernel.fast_forward clock ~target in
                if c.stall_cycle = n0 then
                  Counters.bump_n c.counters c.stall_kind span;
                if t.sb.SB.busy.(c.id) then
                  c.counters.busy_cycles <- c.counters.busy_cycles + span;
                if Port.order_held c.hl t.mem then
                  Mem.add_rejected_order t.mem span;
                t.empty_cycles <- t.empty_cycles + (span * empty_delta)
              end
            end
          end
        end
        else t.wd_defer <- n0
      end;
      exclusive_loop t c ~limit ~foreign ~macro_ok
    end
  end

let step_exclusive t c ~limit ~foreign =
  (* Macro preconditions that are configuration-static: the same-cycle
     store + next-load pair always fits the bandwidth, and the store
     buffer has always drained by the next word cycle. *)
  let cfgm = t.mem.Mem.config in
  let macro_ok =
    cfgm.Mem.bandwidth >= 2
    && cfgm.Mem.store_latency <= cfgm.Mem.body_load_latency
  in
  exclusive_loop t c ~limit ~foreign ~macro_ok;
  wd_flush t;
  (* Restore the queue invariant for the shared cycle: a sleeping
     core's wake must be armed (stale earlier entries are filtered by
     [next_after]'s strictly-future check). *)
  if c.wake > t.clock.Kernel.now && c.wake < max_int then
    Wake_queue.arm t.wakeq ~id:c.id ~time:c.wake

let step ?trace ?horizon t =
  let n0 = t.clock.Kernel.now in
  if n0 > t.cfg.max_cycles then
    raise
      (Simulation_diverged
         (Printf.sprintf "exceeded %d cycles (scan=%d free=%d)" t.cfg.max_cycles
            (t.sb.SB.scan) (t.sb.SB.free)));
  match trace with
  | None ->
    collect_due t ~n0;
    (* A lone due core runs a window up to the other cores' earliest
       wake, the horizon, the cycle budget or the divergence bound (see
       "Lone-core stepping"). *)
    let foreign =
      if t.lone_plain && t.parallel_phase && t.n_due = 1 && t.n_parked = 0
      then Wake_queue.next_after t.wakeq ~now:n0
      else n0
    in
    let limit = Wake_queue.bound ~horizon (imin foreign t.jump_cap) in
    if limit > n0 then
      step_exclusive t
        (Array.unsafe_get t.cores (Array.unsafe_get t.due_ids 0))
        ~limit ~foreign
    else step_cycle ?horizon t ~n0 ~park:t.park_ok
  | Some _ ->
    (* A per-step trace (possibly attached mid-run) samples every cycle
       of the plain machine, so parking is off: flush parked cores back
       to the spinners they stand for first. *)
    unpark_all t;
    collect_due t ~n0;
    step_cycle ?trace ?horizon t ~n0 ~park:false

let finalize t =
  if not (all_halted t) then invalid_arg "Coprocessor.finalize: not halted";
  (* The sanitizer observes the stop-the-world collection only: detach
     before the mutator (concurrent mode, inter-cycle allocation) drives
     the same machine. *)
  San.detach t.san;
  if t.prof.Prof.on then Prof.close t.prof ~total:(now t);
  if t.obs.Obs.on then Obs.finish t.obs ~cycle:(now t);
  (* Commit the free register into the heap and swap the spaces. *)
  (H.to_space t.heap).Semispace.free <- t.sb.SB.free;
  H.flip t.heap;
  let live_objects =
    Array.fold_left (fun acc c -> acc + c.counters.objects_evacuated) 0 t.cores
  in
  {
    total_cycles = now t;
    executed_cycles = Kernel.executed_cycles t.clock;
    skipped_cycles = Kernel.skipped_cycles t.clock;
    wall_seconds = Kernel.wall_seconds t.clock;
    root_cycles = t.parallel_start;
    empty_worklist_cycles = t.empty_cycles;
    per_core = Array.map (fun c -> c.counters) t.cores;
    live_objects;
    live_words = Semispace.used (H.from_space t.heap);
    fifo_hits = Fifo.hits t.fifo;
    fifo_misses = Fifo.misses t.fifo;
    fifo_overflows = Fifo.overflows t.fifo;
    mem_loads = Mem.loads t.mem;
    mem_stores = Mem.stores t.mem;
    mem_rejected_bandwidth = Mem.rejected_bandwidth t.mem;
    mem_rejected_order = Mem.rejected_order t.mem;
    header_cache_hits = Mem.header_cache_hits t.mem;
    header_cache_misses = Mem.header_cache_misses t.mem;
    faults_injected = Injector.total t.faults;
    corruptions_injected = Injector.corruptions t.faults;
    sanitizer_findings = San.findings t.san;
    sanitizer_total = San.total t.san;
  }

let sanitizer_findings t = San.findings t.san
let sanitizer_total t = San.total t.san

let collect ?trace ?obs ?prof cfg heap =
  let t = start ?obs ?prof cfg heap in
  while not (all_halted t) do
    step ?trace t
  done;
  finalize t

(* ------------------------------------------------------------------ *)
(* Main-processor hooks for concurrent collection (paper Section VII:
   "allow the multicore coprocessor to run concurrently to the main
   processor"). Called between cycles, so within-cycle atomicity of the
   simulation makes the register manipulations safe; lock conflicts with
   the cores surface as [`Wait]. *)
(* ------------------------------------------------------------------ *)

let mutator_evacuate t addr =
  (* A main-processor write can change a parked retry's outcome. *)
  unpark_all t;
  let w0 = H.header0 t.heap addr in
  match Hdr.state w0 with
  | Gray ->
    (* already evacuated: the read barrier just follows the forwarding
       pointer *)
    `Done (H.header1 t.heap addr, 2)
  | White | Black ->
    if SB.free_lock_owner t.sb <> None || SB.header_locked_by_any t.sb ~addr
    then `Wait
    else begin
      let size = Hdr.size w0 in
      let naddr = t.sb.SB.free in
      if naddr + size > t.tospace_limit then raise Heap_overflow;
      (* This interface is modeled hardware (the read barrier's
         evacuation port; the banked machine's FIFO arbitration step)
         acting between cycles — not a core, so the lockset protocol's
         register-poke rule does not apply to its free claim. The FIFO
         push below stays hooked: the shadow queue must see every
         buffered frame. *)
      let hooks = t.sb.SB.hooks in
      let hooks_were_on = hooks.Hsgc_sanitizer.Hooks.on in
      hooks.Hsgc_sanitizer.Hooks.on <- false;
      SB.set_free t.sb (naddr + size);
      hooks.Hsgc_sanitizer.Hooks.on <- hooks_were_on;
      H.set_header0 t.heap addr (Hdr.with_state w0 Gray);
      H.set_header1 t.heap addr naddr;
      H.set_header0 t.heap naddr
        (Hdr.encode ~state:Gray ~pi:(Hdr.pi w0) ~delta:(Hdr.delta w0));
      H.set_header1 t.heap naddr addr;
      ignore (Fifo.push t.fifo naddr);
      (* a read-barrier evacuation costs the main processor roughly what
         it costs a GC core: a header read, the free claim, two header
         stores *)
      `Done (naddr, 6)
    end

let mutator_alloc t ~pi ~delta =
  unpark_all t;
  if SB.free_lock_owner t.sb <> None then `Wait
  else begin
    let size = Hdr.size_of ~pi ~delta in
    let naddr = t.sb.SB.free in
    if naddr + size > t.tospace_limit then raise Heap_overflow;
    SB.set_free t.sb (naddr + size);
    (* Allocated black: the scan loop skips it (its contents are already
       tospace-only by the allocation-invariant). *)
    H.set_header0 t.heap naddr (Hdr.encode ~state:Black ~pi ~delta);
    H.set_header1 t.heap naddr 0;
    for i = 0 to size - Hdr.header_words - 1 do
      H.write t.heap (naddr + Hdr.header_words + i) 0
    done;
    ignore (Fifo.push t.fifo naddr);
    `Done (naddr, 3 + size)
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore: the complete machine state as a sectioned,
   CRC-guarded snapshot. One section per subsystem, so an integrity
   mutation test can flip a byte in each and watch the matching CRC
   catch it. Restore overwrites a freshly [start]ed machine of the same
   configuration in place. *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  module Codec = Hsgc_util.Codec
  module Ckpt = Hsgc_checkpoint.Checkpoint

  (* Microprogram states, numbered in declaration order. The numeric
     code is a checkpoint artifact only — nothing else depends on it. *)
  let state_to_int = function
    | Init -> 0
    | Root_next -> 1
    | Root_header_wait -> 2
    | Start_barrier -> 3
    | Try_lock_scan -> 4
    | Scan_header_wait -> 5
    | Body_issue_load -> 6
    | Body_wait -> 7
    | Lock_child -> 8
    | Child_header_wait -> 9
    | Lock_free -> 10
    | Evac_store_fwd -> 11
    | Evac_store_gray -> 12
    | Store_slot -> 13
    | Piece_done -> 14
    | Blacken -> 15
    | Flush -> 16
    | End_barrier -> 17
    | Halt -> 18

  let state_of_int = function
    | 0 -> Init
    | 1 -> Root_next
    | 2 -> Root_header_wait
    | 3 -> Start_barrier
    | 4 -> Try_lock_scan
    | 5 -> Scan_header_wait
    | 6 -> Body_issue_load
    | 7 -> Body_wait
    | 8 -> Lock_child
    | 9 -> Child_header_wait
    | 10 -> Lock_free
    | 11 -> Evac_store_fwd
    | 12 -> Evac_store_gray
    | 13 -> Store_slot
    | 14 -> Piece_done
    | 15 -> Blacken
    | 16 -> Flush
    | 17 -> End_barrier
    | 18 -> Halt
    | n -> raise (Codec.Error (Printf.sprintf "unknown core state %d" n))

  let stall_of_int i =
    match List.nth_opt Counters.all_stalls i with
    | Some s -> s
    | None -> raise (Codec.Error (Printf.sprintf "unknown stall kind %d" i))

  (* --- config section ---------------------------------------------- *)
  (* The full configuration the machine was started under, so a resume
     can reconstruct it and a restore onto a mismatched machine fails
     with a structured error instead of corrupting state. *)

  let encode_config (cfg : config) w =
    Codec.W.int w cfg.n_cores;
    Codec.W.int w cfg.max_cycles;
    Codec.W.int w cfg.mem.Mem.header_load_latency;
    Codec.W.int w cfg.mem.Mem.body_load_latency;
    Codec.W.int w cfg.mem.Mem.store_latency;
    Codec.W.int w cfg.mem.Mem.bandwidth;
    Codec.W.int w cfg.mem.Mem.fifo_capacity;
    Codec.W.int w cfg.mem.Mem.header_cache_entries;
    (match cfg.scan_unit with
    | None -> Codec.W.bool w false
    | Some u ->
      Codec.W.bool w true;
      Codec.W.int w u);
    Codec.W.bool w cfg.skip;
    (match cfg.faults with
    | None -> Codec.W.bool w false
    | Some s ->
      Codec.W.bool w true;
      Codec.W.int w s.Injector.seed;
      Codec.W.float w s.Injector.delay_prob;
      Codec.W.int w s.Injector.delay_max;
      Codec.W.float w s.Injector.fifo_drop_prob;
      Codec.W.float w s.Injector.cache_invalidate_prob;
      Codec.W.float w s.Injector.busy_prob;
      Codec.W.float w s.Injector.corrupt_body_prob;
      Codec.W.float w s.Injector.corrupt_header_prob);
    (match cfg.cycle_budget with
    | None -> Codec.W.bool w false
    | Some b ->
      Codec.W.bool w true;
      Codec.W.int w b);
    Codec.W.int w cfg.stall_window

  let decode_config r =
    let n_cores = Codec.R.int r in
    let max_cycles = Codec.R.int r in
    let header_load_latency = Codec.R.int r in
    let body_load_latency = Codec.R.int r in
    let store_latency = Codec.R.int r in
    let bandwidth = Codec.R.int r in
    let fifo_capacity = Codec.R.int r in
    let header_cache_entries = Codec.R.int r in
    let scan_unit = if Codec.R.bool r then Some (Codec.R.int r) else None in
    let skip = Codec.R.bool r in
    let faults =
      if Codec.R.bool r then begin
        let seed = Codec.R.int r in
        let delay_prob = Codec.R.float r in
        let delay_max = Codec.R.int r in
        let fifo_drop_prob = Codec.R.float r in
        let cache_invalidate_prob = Codec.R.float r in
        let busy_prob = Codec.R.float r in
        let corrupt_body_prob = Codec.R.float r in
        let corrupt_header_prob = Codec.R.float r in
        Some
          {
            Injector.seed;
            delay_prob;
            delay_max;
            fifo_drop_prob;
            cache_invalidate_prob;
            busy_prob;
            corrupt_body_prob;
            corrupt_header_prob;
          }
      end
      else None
    in
    let cycle_budget = if Codec.R.bool r then Some (Codec.R.int r) else None in
    let stall_window = Codec.R.int r in
    {
      n_cores;
      mem =
        {
          Mem.header_load_latency;
          body_load_latency;
          store_latency;
          bandwidth;
          fifo_capacity;
          header_cache_entries;
        };
      max_cycles;
      scan_unit;
      skip;
      faults;
      cycle_budget;
      stall_window;
      sanitize = San.Off;
    }

  (* --- core register files ------------------------------------------ *)

  let encode_core c w =
    Codec.W.int w (state_to_int c.state);
    Codec.W.int w c.obj_to;
    Codec.W.int w c.obj_from;
    Codec.W.int w c.h0;
    Codec.W.int w c.slot;
    Codec.W.int w c.slot_limit;
    Codec.W.bool w c.whole;
    Codec.W.int w c.child;
    Codec.W.int w c.child_h0;
    Codec.W.int w c.value;
    Codec.W.int w c.evac_new;
    Codec.W.int w c.root_idx;
    Codec.W.int w (match c.ret with Ret_slot -> 0 | Ret_root -> 1);
    Codec.W.int w c.stall_cycle;
    Codec.W.int w (stall_index c.stall_kind);
    Codec.W.int w c.wake

  let restore_core c r =
    c.state <- state_of_int (Codec.R.int r);
    c.obj_to <- Codec.R.int r;
    c.obj_from <- Codec.R.int r;
    c.h0 <- Codec.R.int r;
    c.slot <- Codec.R.int r;
    c.slot_limit <- Codec.R.int r;
    c.whole <- Codec.R.bool r;
    c.child <- Codec.R.int r;
    c.child_h0 <- Codec.R.int r;
    c.value <- Codec.R.int r;
    c.evac_new <- Codec.R.int r;
    c.root_idx <- Codec.R.int r;
    (c.ret <-
       (match Codec.R.int r with
       | 0 -> Ret_slot
       | 1 -> Ret_root
       | n -> raise (Codec.Error (Printf.sprintf "unknown return point %d" n))));
    c.stall_cycle <- Codec.R.int r;
    c.stall_kind <- stall_of_int (Codec.R.int r);
    c.wake <- Codec.R.int r

  (* --- simulator-level scheduling state ----------------------------- *)

  let encode_sched t w =
    Kernel.encode t.clock w;
    Kernel.watchdog_encode t.watchdog w;
    Codec.W.int w t.hooks.Hooks.cycle;
    Codec.W.int w !(t.events);
    Codec.W.int w t.n_halted;
    Codec.W.bool w t.finished;
    Codec.W.bool w t.saw_empty;
    Codec.W.bool w t.parallel_phase;
    Codec.W.int w t.parallel_start;
    Codec.W.int w t.empty_cycles;
    Codec.W.int w t.cur_frame;
    Codec.W.int w t.cur_h0;
    Codec.W.int w t.cur_from;
    Codec.W.int w t.cur_next_slot;
    Codec.W.int_array w t.pieces

  let restore_sched t r =
    Kernel.restore t.clock r;
    Kernel.watchdog_restore t.watchdog r;
    t.hooks.Hooks.cycle <- Codec.R.int r;
    t.events := Codec.R.int r;
    t.n_halted <- Codec.R.int r;
    t.finished <- Codec.R.bool r;
    t.saw_empty <- Codec.R.bool r;
    t.parallel_phase <- Codec.R.bool r;
    t.parallel_start <- Codec.R.int r;
    t.empty_cycles <- Codec.R.int r;
    t.cur_frame <- Codec.R.int r;
    t.cur_h0 <- Codec.R.int r;
    t.cur_from <- Codec.R.int r;
    t.cur_next_slot <- Codec.R.int r;
    Codec.R.int_array_into r t.pieces ~what:"piece table"

  (* --- delta parents ------------------------------------------------ *)

  (* The image a delta is taken against, as the writer keeps it: a copy
     of the heap words that image holds, its ring length and heap
     layout, and the run table of the last delta found against it
     ([diff_at]: the cycle it was found at, -1 when none is pending). *)
  type parent = {
    words : H.words;
    mutable events : int;
    mutable layout : int array;
    mutable diff : H.delta option;
    mutable diff_at : int;
  }

  let layout (h : H.t) =
    let a = h.H.space_a and b = h.H.space_b in
    [|
      a.Semispace.base; a.Semispace.limit; b.Semispace.base; b.Semispace.limit;
      Bool.to_int h.H.a_is_current;
    |]

  let ring_length t = if t.obs.Obs.on then Obs.length t.obs else 0

  let extends p t =
    H.length p.words = H.length t.heap.H.mem && p.layout = layout t.heap

  (* The copy is heap memory too ([H.copy_mem]); a refresh is one blit
     or the delta's runs. *)
  let parent ?last t =
    let mem = t.heap.H.mem in
    let p =
      match last with
      | Some p when H.length p.words = H.length mem ->
        (match p.diff with
        | Some d when p.diff_at = now t -> H.apply_delta t.heap d ~base:p.words
        | _ -> Bigarray.Array1.blit mem p.words);
        p
      | _ ->
        {
          words = H.copy_mem t.heap;
          events = 0;
          layout = [||];
          diff = None;
          diff_at = -1;
        }
    in
    p.events <- ring_length t;
    p.layout <- layout t.heap;
    p.diff_at <- -1;
    p

  (* --- the snapshot ------------------------------------------------- *)

  let check_saveable t =
    if t.cfg.sanitize <> San.Off then
      invalid_arg
        "Coprocessor.Snapshot.save: sanitizer state is not checkpointable";
    if t.remote != remote_disabled then
      (* A bank's outbox, home range and termination grant live in the
         driver, not the config the restore path reconstructs from. *)
      invalid_arg
        "Coprocessor.Snapshot.save: banked-machine banks are not \
         snapshottable"

  (* The sections of a full image or, against [parent], of a delta:
     "heap-delta" and "obs-delta" in place of "heap" and "obs". The
     delta's compare pass runs here, once, and its run table stays with
     the parent for both encoder passes and for [parent ~last]. *)
  let sections ?parent t =
    let heap, obs =
      match parent with
      | None ->
        ( ("heap", H.encode t.heap),
          ( "obs",
            fun w ->
              Obs.encode t.obs w;
              Prof.encode t.prof w ) )
      | Some p ->
        if not (extends p t) then
          invalid_arg
            "Coprocessor.Snapshot.save: the parent has another heap layout";
        let d = H.delta ?reuse:p.diff t.heap ~base:p.words in
        p.diff <- Some d;
        p.diff_at <- now t;
        ( ("heap-delta", H.encode_delta t.heap d),
          ( "obs-delta",
            fun w ->
              Obs.encode_delta t.obs ~since:p.events w;
              Prof.encode t.prof w ) )
    in
    [
      ("config", encode_config t.cfg);
      heap;
      ("memsys", Mem.encode t.mem);
      ("fifo", Fifo.encode t.fifo);
      ( "ports",
        fun w ->
          Array.iter
            (fun c ->
              Port.encode c.hl w;
              Port.encode c.hs w;
              Port.encode c.bl w;
              Port.encode c.bs w)
            t.cores );
      ("sync", SB.encode t.sb);
      ("cores", fun w -> Array.iter (fun c -> encode_core c w) t.cores);
      ( "counters",
        fun w -> Array.iter (fun c -> Counters.encode c.counters w) t.cores );
      ("kernel", encode_sched t);
      ("rng", Injector.encode t.faults);
      obs;
    ]

  let save ?(extra = []) ?parent t ~fingerprint =
    check_saveable t;
    (* Parked spinners are a scheduling artifact: flush them to the
       spinners they stand for, so the image is the one an unparked
       run writes at this cycle. *)
    unpark_all t;
    Ckpt.encode ~fingerprint (sections ?parent t @ extra)

  let full_size ?(extra = []) t ~fingerprint =
    check_saveable t;
    unpark_all t;
    Ckpt.measure ~fingerprint (sections t @ extra)

  (* A lower bound settles most calls without measuring a full image:
     the heap payload sized by the delta's compare pass, plus 4 bytes
     per kept event in each of the ring's five columns. *)
  let exceeds_full ?extra ~parent t ~fingerprint bytes =
    let lower =
      match parent.diff with
      | Some d when parent.diff_at = now t ->
        H.full_bytes t.heap d + (20 * ring_length t)
      | _ -> 0
    in
    bytes > lower && bytes > full_size ?extra t ~fingerprint

  let config snap =
    let r = Ckpt.reader snap "config" in
    try
      let cfg = decode_config r in
      if not (Codec.R.eof r) then
        raise (Ckpt.Corrupt "section \"config\": trailing bytes");
      cfg
    with Codec.Error m ->
      raise (Ckpt.Corrupt (Printf.sprintf "section \"config\": %s" m))

  let restore t snap =
    if t.cfg.sanitize <> San.Off then
      invalid_arg
        "Coprocessor.Snapshot.restore: sanitizer state is not checkpointable";
    let with_sec name f =
      let r = Ckpt.reader snap name in
      (try f r
       with Codec.Error m ->
         raise (Ckpt.Corrupt (Printf.sprintf "section %S: %s" name m)));
      if not (Codec.R.eof r) then
        raise (Ckpt.Corrupt (Printf.sprintf "section %S: trailing bytes" name))
    in
    with_sec "config" (fun r ->
        let enc = decode_config r in
        if enc <> { t.cfg with sanitize = San.Off } then
          raise (Codec.Error "snapshot taken under a different configuration"));
    (* A delta applies onto a machine holding its parent. *)
    let delta = Ckpt.mem snap "heap-delta" in
    if delta then with_sec "heap-delta" (H.restore_delta t.heap)
    else with_sec "heap" (H.restore t.heap);
    with_sec "memsys" (Mem.restore t.mem);
    with_sec "fifo" (Fifo.restore t.fifo);
    with_sec "ports" (fun r ->
        Array.iter
          (fun c ->
            Port.restore c.hl r;
            Port.restore c.hs r;
            Port.restore c.bl r;
            Port.restore c.bs r)
          t.cores);
    with_sec "sync" (SB.restore t.sb);
    with_sec "cores" (fun r -> Array.iter (fun c -> restore_core c r) t.cores);
    with_sec "counters" (fun r ->
        Array.iter (fun c -> Counters.restore c.counters r) t.cores);
    with_sec "kernel" (restore_sched t);
    with_sec "rng" (Injector.restore t.faults);
    if delta then
      with_sec "obs-delta" (fun r ->
          Obs.restore_delta t.obs r;
          Prof.restore t.prof r)
    else
      with_sec "obs" (fun r ->
          Obs.restore t.obs r;
          Prof.restore t.prof r);
    (* A snapshot never holds a parked core. *)
    Array.iter (fun c -> c.park <- park_none) t.cores;
    t.n_parked <- 0;
    t.n_park_scan <- 0;
    t.n_park_empty <- 0;
    t.n_park_header <- 0;
    (* Rebuild the wake queue from the restored per-core wake times: a
       strictly-future wake is re-armed (the armed array is the queue's
       source of truth; stale entries are pruned lazily), everything
       else — awake, due, or halted — is disarmed, matching what the
       queue would answer in the original process. *)
    let now = t.clock.Kernel.now in
    Array.iter
      (fun c ->
        if c.wake > now && c.wake < max_int then
          Wake_queue.arm t.wakeq ~id:c.id ~time:c.wake
        else Wake_queue.disarm t.wakeq ~id:c.id)
      t.cores
end
