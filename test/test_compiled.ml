(* Tests for the compiled stepping engine: the third engine next to
   naive and event-driven skipping, with instrumentation branches
   resolved at instantiation and batched retirement of
   already-determined completions.

   The engine's contract is the same equivalence invariant the skip
   kernel carries, checked three ways instead of two: every reported
   simulation statistic — total cycles, per-core stall/work counters,
   memory-system and FIFO counters, the verified post-heap — must be
   bit-identical to naive stepping; only wall time and the
   executed/skipped split may differ. Fault injection and attached
   instruments force the general engine (the compiled fast path resolves
   those hooks away), so those configurations double as fallback
   coverage: requesting [compiled] must never change any statistic. *)

module Coprocessor = Hsgc_coproc.Coprocessor
module Counters = Hsgc_coproc.Counters
module Memsys = Hsgc_memsim.Memsys
module Plan = Hsgc_objgraph.Plan
module Workloads = Hsgc_objgraph.Workloads
module Verify = Hsgc_heap.Verify
module Checkpoint = Hsgc_checkpoint.Checkpoint
module Tracer = Hsgc_obs.Tracer
module Profiler = Hsgc_obs.Profiler
module Injector = Hsgc_fault.Injector
module Trace = Hsgc_coproc.Trace
module Codec = Hsgc_util.Codec

(* Everything in gc_stats except the kernel-observability fields
   (executed/skipped split and wall time) must be bit-identical. *)
let check_stats_equal ctx ~ref_name ~other_name (a : Coprocessor.gc_stats)
    (b : Coprocessor.gc_stats) =
  let chk name x y =
    if x <> y then
      Alcotest.failf "%s: %s differs (%s %d, %s %d)" ctx name ref_name x
        other_name y
  in
  chk "total_cycles" a.Coprocessor.total_cycles b.Coprocessor.total_cycles;
  chk "root_cycles" a.Coprocessor.root_cycles b.Coprocessor.root_cycles;
  chk "empty_worklist_cycles" a.Coprocessor.empty_worklist_cycles
    b.Coprocessor.empty_worklist_cycles;
  chk "live_objects" a.Coprocessor.live_objects b.Coprocessor.live_objects;
  chk "live_words" a.Coprocessor.live_words b.Coprocessor.live_words;
  chk "fifo_hits" a.Coprocessor.fifo_hits b.Coprocessor.fifo_hits;
  chk "fifo_misses" a.Coprocessor.fifo_misses b.Coprocessor.fifo_misses;
  chk "fifo_overflows" a.Coprocessor.fifo_overflows
    b.Coprocessor.fifo_overflows;
  chk "mem_loads" a.Coprocessor.mem_loads b.Coprocessor.mem_loads;
  chk "mem_stores" a.Coprocessor.mem_stores b.Coprocessor.mem_stores;
  chk "mem_rejected_bandwidth" a.Coprocessor.mem_rejected_bandwidth
    b.Coprocessor.mem_rejected_bandwidth;
  chk "mem_rejected_order" a.Coprocessor.mem_rejected_order
    b.Coprocessor.mem_rejected_order;
  chk "header_cache_hits" a.Coprocessor.header_cache_hits
    b.Coprocessor.header_cache_hits;
  chk "header_cache_misses" a.Coprocessor.header_cache_misses
    b.Coprocessor.header_cache_misses;
  chk "faults_injected" a.Coprocessor.faults_injected
    b.Coprocessor.faults_injected;
  chk "corruptions_injected" a.Coprocessor.corruptions_injected
    b.Coprocessor.corruptions_injected;
  Array.iteri
    (fun i ca ->
      let cb = b.Coprocessor.per_core.(i) in
      List.iter
        (fun s ->
          if Counters.get ca s <> Counters.get cb s then
            Alcotest.failf "%s: core %d %s stalls differ (%s %d, %s %d)" ctx i
              (Counters.stall_name s) ref_name (Counters.get ca s) other_name
              (Counters.get cb s))
        Counters.all_stalls;
      if ca.Counters.busy_cycles <> cb.Counters.busy_cycles then
        Alcotest.failf "%s: core %d busy_cycles differ" ctx i;
      if ca.Counters.objects_scanned <> cb.Counters.objects_scanned then
        Alcotest.failf "%s: core %d objects_scanned differ" ctx i;
      if ca.Counters.objects_evacuated <> cb.Counters.objects_evacuated then
        Alcotest.failf "%s: core %d objects_evacuated differ" ctx i;
      if ca.Counters.words_copied <> cb.Counters.words_copied then
        Alcotest.failf "%s: core %d words_copied differ" ctx i)
    a.Coprocessor.per_core;
  if
    b.Coprocessor.executed_cycles + b.Coprocessor.skipped_cycles
    <> b.Coprocessor.total_cycles
  then Alcotest.failf "%s: executed + skipped <> total" ctx

(* Run the same prebuilt configuration under all three engines and check
   the full three-way parity: compiled vs naive and skip vs naive (the
   latter so a three-way test failure names the engine that moved), plus
   canonical post-heap equality. *)
let check_three ctx ~mem ?scan_unit ?faults ~n_cores build =
  let run label cfg =
    let heap = build () in
    let stats = Coprocessor.collect cfg heap in
    ignore label;
    (stats, Verify.snapshot heap)
  in
  let naive, snap_naive =
    run "naive"
      (Coprocessor.config ~mem ?scan_unit ?faults ~skip:false ~n_cores ())
  in
  let skip, _ =
    run "skip" (Coprocessor.config ~mem ?scan_unit ?faults ~skip:true ~n_cores ())
  in
  let compiled, snap_compiled =
    run "compiled"
      (Coprocessor.config ~mem ?scan_unit ?faults ~compiled:true ~n_cores ())
  in
  check_stats_equal ctx ~ref_name:"naive" ~other_name:"skip" naive skip;
  check_stats_equal ctx ~ref_name:"naive" ~other_name:"compiled" naive
    compiled;
  if not (Verify.equal_snapshot snap_naive snap_compiled) then
    Alcotest.failf "%s: compiled post-heap differs from naive post-heap" ctx

(* ------------------------------------------------------------------ *)
(* Workload grid: 8 workloads x {1,4,16} cores                         *)
(* ------------------------------------------------------------------ *)

let test_compiled_equivalent_on_workloads () =
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          check_three
            (Printf.sprintf "%s at %d cores" w.Workloads.name n_cores)
            ~mem:Memsys.default_config ~n_cores (fun () ->
              Workloads.build_heap ~scale:0.03 ~seed:7 w))
        [ 1; 4; 16 ])
    Workloads.all

let test_compiled_equivalent_latency_bound () =
  (* +20-cycle latency is where batched retirement does the most work:
     long quiescent spans, the single-core exclusive interpreter, deep
     sleep/jump arithmetic. *)
  let mem = Memsys.with_extra_latency Memsys.default_config 20 in
  List.iter
    (fun n_cores ->
      check_three
        (Printf.sprintf "latency-bound db at %d cores" n_cores)
        ~mem ~n_cores (fun () ->
          Workloads.build_heap ~scale:0.03 ~seed:7 Workloads.db))
    [ 1; 4; 16 ]

(* ------------------------------------------------------------------ *)
(* Random graphs and machine configurations                            *)
(* ------------------------------------------------------------------ *)

let gen_plan_of rng n =
  let plan = Plan.create () in
  let ids =
    Array.init n (fun _ ->
        Plan.obj plan
          ~pi:(Hsgc_util.Rng.int rng 4)
          ~delta:(Hsgc_util.Rng.int rng 5))
  in
  Array.iter
    (fun id ->
      for slot = 0 to Plan.pi_of plan id - 1 do
        if Hsgc_util.Rng.int rng 100 < 70 then
          Plan.link plan ~parent:id ~slot ~child:ids.(Hsgc_util.Rng.int rng n)
      done)
    ids;
  for _ = 1 to 1 + Hsgc_util.Rng.int rng 3 do
    Plan.add_root plan ids.(Hsgc_util.Rng.int rng n)
  done;
  plan

let qcheck_compiled_equivalent =
  QCheck.Test.make
    ~name:
      "compiled engine is bit-identical to naive and skip on random graphs \
       and configs"
    ~count:60
    (QCheck.make
       ~print:(fun ((n, s), (nc, ca, el, bw, ff)) ->
         Printf.sprintf
           "graph(n=%d seed=%d) cores=%d cache=%d lat+%d bw=%d fifo=%d" n s nc
           ca el bw ff)
       QCheck.Gen.(
         let gen_plan =
           let* n = int_range 1 60 in
           let* seed = small_nat in
           return (n, seed)
         in
         (* No [scan_unit] dimension: the compiled engine statically
            rejects sub-object scanning ([start] raises), a validated
            incompatibility like the sanitizer — covered by the CLI
            tests, not this grid. *)
         let gen_config =
           let* n_cores = int_range 1 16 in
           let* cache = oneofl [ 0; 8; 1024 ] in
           let* extra_latency = oneofl [ 0; 3; 20 ] in
           let* bandwidth = oneofl [ 1; 4; 8 ] in
           let* fifo = oneofl [ 2; 64; 32768 ] in
           return (n_cores, cache, extra_latency, bandwidth, fifo)
         in
         pair gen_plan gen_config))
    (fun ((n, seed), (n_cores, cache, extra_latency, bandwidth, fifo)) ->
      let plan = gen_plan_of (Hsgc_util.Rng.create (seed + 1)) n in
      let mem =
        Memsys.with_extra_latency
          {
            Memsys.default_config with
            Memsys.bandwidth;
            fifo_capacity = fifo;
            header_cache_entries = cache;
          }
          extra_latency
      in
      check_three "random config" ~mem ~n_cores (fun () ->
          Plan.materialize plan);
      true)

let qcheck_compiled_with_faults =
  QCheck.Test.make
    ~name:
      "requesting the compiled engine under delay-class faults falls back \
       bit-identically (1..16 cores)"
    ~count:40
    (QCheck.make
       ~print:(fun ((n, s), (nc, intensity)) ->
         Printf.sprintf "graph(n=%d seed=%d) cores=%d intensity=%.2f" n s nc
           intensity)
       QCheck.Gen.(
         let gen_plan =
           let* n = int_range 1 50 in
           let* seed = small_nat in
           return (n, seed)
         in
         let gen_config =
           let* n_cores = int_range 1 16 in
           let* intensity = oneofl [ 0.1; 0.4; 0.8 ] in
           return (n_cores, intensity)
         in
         pair gen_plan gen_config))
    (fun ((n, seed), (n_cores, intensity)) ->
      (* Fault injection disqualifies the compiled fast path (the
         injector's per-retry fault stream needs per-cycle stepping), so
         a [compiled:true] config with faults runs the general engine —
         and must still match naive stepping on every statistic,
         including the injected-fault counts drawn from the RNG
         stream. *)
      let plan = gen_plan_of (Hsgc_util.Rng.create (seed + 1)) n in
      let faults =
        Hsgc_fault.Injector.delay_class ~seed:(seed + 3) ~intensity ()
      in
      check_three "delay faults" ~mem:Memsys.default_config ~faults ~n_cores
        (fun () -> Plan.materialize plan);
      true)

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume under the compiled engine                         *)
(* ------------------------------------------------------------------ *)

let test_compiled_checkpoint_resume () =
  (* Snapshot a compiled run mid-flight (which must flush the engine's
     transient scheduling state — parked spinners, deferred watchdog
     progress — to the canonical representation), resume it onto a fresh
     machine, and demand the resumed run end bit-identical to a
     straight-through compiled run and to naive stepping. *)
  let w = Workloads.db in
  let scale = 0.05 and seed = 11 in
  let mem = Memsys.with_extra_latency Memsys.default_config 20 in
  let cfg = Coprocessor.config ~mem ~compiled:true ~n_cores:8 () in
  let straight_heap = Workloads.build_heap ~scale ~seed w in
  let straight = Coprocessor.collect cfg straight_heap in
  let naive_heap = Workloads.build_heap ~scale ~seed w in
  let naive =
    Coprocessor.collect
      (Coprocessor.config ~mem ~skip:false ~n_cores:8 ())
      naive_heap
  in
  check_stats_equal "straight-through" ~ref_name:"naive"
    ~other_name:"compiled" naive straight;
  (* Interrupted leg: save roughly mid-run, at whatever cycle boundary
     the stepped loop lands on. *)
  let heap1 = Workloads.build_heap ~scale ~seed w in
  let sim1 = Coprocessor.start cfg heap1 in
  let target = straight.Coprocessor.total_cycles / 2 in
  while (not (Coprocessor.halted sim1)) && Coprocessor.now sim1 < target do
    Coprocessor.step sim1
  done;
  if Coprocessor.halted sim1 then
    Alcotest.fail "run halted before the checkpoint target";
  let snap =
    Checkpoint.of_string
      (Checkpoint.to_string (Coprocessor.Snapshot.save sim1 ~fingerprint:"t"))
  in
  let heap2 = Workloads.build_heap ~scale ~seed w in
  let sim2 = Coprocessor.start cfg heap2 in
  Coprocessor.Snapshot.restore sim2 snap;
  while not (Coprocessor.halted sim2) do
    Coprocessor.step sim2
  done;
  let resumed = Coprocessor.finalize sim2 in
  check_stats_equal "resumed" ~ref_name:"straight" ~other_name:"resumed"
    straight resumed;
  if
    not
      (Verify.equal_snapshot
         (Verify.snapshot straight_heap)
         (Verify.snapshot heap2))
  then Alcotest.fail "resumed compiled post-heap differs from straight-through"

(* ------------------------------------------------------------------ *)
(* Golden-trace guard: tracer attachment forces the general engine     *)
(* ------------------------------------------------------------------ *)

let test_compiled_trace_digest_matches () =
  (* An attached tracer disqualifies the compiled fast path (batching
     would swallow the per-cycle events), so a traced compiled-config
     run must produce the exact event stream — skip-span events
     included — of a traced skip-engine run: the same byte-stable
     digests the golden corpus pins. *)
  let w = Workloads.cup in
  let digest compiled =
    let heap = Workloads.build_heap ~scale:0.05 ~seed:7 w in
    let obs = Tracer.create ~n_cores:4 () in
    Tracer.enable obs;
    let stats =
      Coprocessor.collect ~obs (Coprocessor.config ~compiled ~n_cores:4 ()) heap
    in
    (Tracer.digest obs, stats.Coprocessor.total_cycles)
  in
  let d_skip, c_skip = digest false in
  let d_compiled, c_compiled = digest true in
  Alcotest.(check int) "cycle counts equal" c_skip c_compiled;
  Alcotest.(check string) "trace digests equal" d_skip d_compiled

(* ------------------------------------------------------------------ *)
(* Spinner parking                                                     *)
(* ------------------------------------------------------------------ *)

(* The unparked twin of a configuration: an inert fault plan (every
   probability zero) turns spinner parking off without changing
   anything the machine does, so the twin is the parked run's reference
   down to the executed/skipped split and the snapshot bytes. *)
let twin cfg = { cfg with Coprocessor.faults = Some Injector.default_spec }

(* Three-way parity with naive stepping, plus split parity with the
   unparked twin. Returns the parked default-engine statistics. *)
let check_parking ctx ~mem ~n_cores build =
  check_three ctx ~mem ~n_cores build;
  let cfg = Coprocessor.config ~mem ~n_cores () in
  let parked = Coprocessor.collect cfg (build ()) in
  let unparked = Coprocessor.collect (twin cfg) (build ()) in
  check_stats_equal ctx ~ref_name:"unparked" ~other_name:"parked" unparked
    parked;
  Alcotest.(check (pair int int))
    (ctx ^ ": executed/skipped split")
    (unparked.Coprocessor.executed_cycles, unparked.Coprocessor.skipped_cycles)
    (parked.Coprocessor.executed_cycles, parked.Coprocessor.skipped_cycles);
  parked

let stall_total stats kind = Counters.get (Coprocessor.stalls_total stats) kind

let latencies = [ 0; 20 ]

let mem_at ?fifo_capacity lat =
  let mem = Memsys.with_extra_latency Memsys.default_config lat in
  match fifo_capacity with
  | None -> mem
  | Some fifo_capacity -> { mem with Memsys.fifo_capacity }

(* cup's flat live set at 16 cores with a 4-entry FIFO: most grabs miss
   the FIFO, so the grabber holds the scan lock across its header load
   while the other cores retry against it. *)
let test_park_scan_lock () =
  List.iter
    (fun lat ->
      let ctx = Printf.sprintf "cup/16 fifo 4 +%d" lat in
      let s =
        check_parking ctx ~mem:(mem_at ~fifo_capacity:4 lat) ~n_cores:16
          (fun () -> Workloads.build_heap ~scale:0.05 ~seed:42 Workloads.cup)
      in
      if stall_total s Counters.Scan_lock < 10_000 then
        Alcotest.failf "%s: only %d scan-lock stalls" ctx
          (stall_total s Counters.Scan_lock))
    latencies

(* javac's hot shared symbols at 16 cores: cores retry header locks on
   the same child while its holder evacuates it. *)
let test_park_header_lock () =
  List.iter
    (fun lat ->
      let ctx = Printf.sprintf "javac/16 +%d" lat in
      let s =
        check_parking ctx ~mem:(mem_at lat) ~n_cores:16 (fun () ->
            Workloads.build_heap ~scale:0.05 ~seed:42 Workloads.javac)
      in
      if stall_total s Counters.Header_lock < 100 then
        Alcotest.failf "%s: only %d header-lock stalls" ctx
          (stall_total s Counters.Header_lock))
    latencies

(* A 400-word object and, with [small], a 3-word one before it. Core 0
   grabs the first frame, so without [small] core 0 copies the big
   object while every other core probes the empty worklist; with
   [small], core 0 finishes first and waits too, and core 1 is the last
   busy core. Its blacken is the write that lets the next probe
   terminate the collection. *)
let termination_heap ~small () =
  let plan = Plan.create () in
  if small then Plan.add_root plan (Plan.obj plan ~pi:0 ~delta:3);
  Plan.add_root plan (Plan.obj plan ~pi:0 ~delta:400);
  Plan.materialize plan

let test_park_termination () =
  List.iter
    (fun (n_cores, small) ->
      List.iter
        (fun lat ->
          let last_busy = if small then 1 else 0 in
          let ctx =
            Printf.sprintf "%d cores, last busy core %d, +%d" n_cores last_busy
              lat
          in
          let s =
            check_parking ctx ~mem:(mem_at lat) ~n_cores
              (termination_heap ~small)
          in
          Alcotest.(check int)
            (ctx ^ ": the big object's copier")
            400
            s.Coprocessor.per_core.(last_busy).Counters.words_copied;
          if s.Coprocessor.empty_worklist_cycles < 400 then
            Alcotest.failf "%s: only %d empty-worklist cycles" ctx
              s.Coprocessor.empty_worklist_cycles)
        latencies)
    [ (2, false); (2, true); (3, false); (3, true) ]

(* A tracer and a profiler for [n_cores], both enabled. *)
let instruments ?capacity n_cores =
  let obs = Tracer.create ?capacity ~n_cores () in
  Tracer.enable obs;
  let prof = Profiler.create ~n_cores () in
  Profiler.enable prof;
  (obs, prof)

let encoded enc x =
  let m = Codec.W.measure () in
  enc x m;
  let b = Bytes.create (Codec.W.pos m) in
  enc x (Codec.W.into b ~pos:0);
  Bytes.to_string b

let ring obs =
  let l = ref [] in
  Tracer.iter obs (fun ~cycle ~code ~core ~a ~b ->
      l := (cycle, code, core, a, b) :: !l);
  Array.of_list (List.rev !l)

(* The instruments saw the same run: the raw ring in emission order (a
   full keep-oldest ring keeps whichever events came first, so the
   sorted digest is not enough), the drop count, and both checkpoint
   encodings. *)
let check_instruments_equal ctx ~ref_name ~other_name (obs_a, prof_a)
    (obs_b, prof_b) =
  let ra = ring obs_a and rb = ring obs_b in
  Array.iteri
    (fun i e ->
      if i < Array.length rb && rb.(i) <> e then
        Alcotest.failf "%s: ring event %d differs (%s vs %s)" ctx i ref_name
          other_name)
    ra;
  Alcotest.(check int) (ctx ^ ": ring length") (Array.length ra)
    (Array.length rb);
  Alcotest.(check int) (ctx ^ ": dropped") (Tracer.dropped obs_a)
    (Tracer.dropped obs_b);
  if encoded Tracer.encode obs_a <> encoded Tracer.encode obs_b then
    Alcotest.failf "%s: tracer encodings differ (%s vs %s)" ctx ref_name
      other_name;
  if encoded Profiler.encode prof_a <> encoded Profiler.encode prof_b then
    Alcotest.failf "%s: profiler encodings differ (%s vs %s)" ctx ref_name
      other_name

let split (s : Coprocessor.gc_stats) =
  (s.Coprocessor.executed_cycles, s.Coprocessor.skipped_cycles)

(* A snapshot image's sections, [config] and [rng] left out: the only
   ones that differ between a parked run and its unparked twin (the
   twin's inert fault plan). *)
let twin_sections image =
  List.filter_map
    (fun (name, off, len) ->
      if name = "config" || name = "rng" then None
      else Some (name, String.sub image off len))
    (Checkpoint.section_ranges (Checkpoint.of_string image))

let save_image sim =
  Checkpoint.to_string (Coprocessor.Snapshot.save sim ~fingerprint:"park")

(* Snapshots taken while cores are parked: every section but the
   configuration and the fault-stream state is byte-identical to the
   unparked twin's every 53 steps, saving does not perturb the run, and
   a run resumed from a mid-run image ends bit-identical to a
   straight-through one, executed/skipped split included. With
   [instrumented], every run carries a tracer and a profiler: their
   sections are compared too, the saved and resumed runs end with the
   straight run's raw ring and encodings (so its digest), and the
   resumed profile rows close to the total. *)
let check_park_snapshots ?(instrumented = false) ctx cfg build =
  let n_cores = cfg.Coprocessor.n_cores in
  let start cfg =
    if instrumented then begin
      let ((obs, prof) as ins) = instruments n_cores in
      (Coprocessor.start ~obs ~prof cfg (build ()), Some ins)
    end
    else (Coprocessor.start cfg (build ()), None)
  in
  let finish sim =
    while not (Coprocessor.halted sim) do
      Coprocessor.step sim
    done;
    Coprocessor.finalize sim
  in
  let s, ins_straight = start cfg in
  let straight = finish s in
  let a, ins_saved = start cfg and b, _ = start (twin cfg) in
  let steps = ref 0 and mid = ref None in
  while not (Coprocessor.halted a) do
    Coprocessor.step a;
    Coprocessor.step b;
    incr steps;
    if !steps mod 53 = 0 then begin
      let image = save_image a in
      List.iter2
        (fun (name, got) (_, want) ->
          if got <> want then
            Alcotest.failf
              "%s: section %S differs from the unparked twin at cycle %d" ctx
              name (Coprocessor.now a))
        (twin_sections image)
        (twin_sections (save_image b));
      if !mid = None && 2 * Coprocessor.now a >= straight.total_cycles then
        mid := Some image
    end
  done;
  let saved = Coprocessor.finalize a in
  check_stats_equal ctx ~ref_name:"straight" ~other_name:"saved" straight
    saved;
  Alcotest.(check (pair int int)) (ctx ^ ": saved split") (split straight)
    (split saved);
  let c, ins_resumed = start cfg in
  Coprocessor.Snapshot.restore c (Checkpoint.of_string (Option.get !mid));
  let resumed = finish c in
  check_stats_equal ctx ~ref_name:"straight" ~other_name:"resumed" straight
    resumed;
  Alcotest.(check (pair int int)) (ctx ^ ": resumed split") (split straight)
    (split resumed);
  match (ins_straight, ins_saved, ins_resumed) with
  | Some ins_straight, Some ins_saved, Some ((_, prof) as ins_resumed) ->
    check_instruments_equal ctx ~ref_name:"straight" ~other_name:"saved"
      ins_straight ins_saved;
    check_instruments_equal ctx ~ref_name:"straight" ~other_name:"resumed"
      ins_straight ins_resumed;
    for core = 0 to n_cores - 1 do
      Alcotest.(check int)
        (Printf.sprintf "%s: resumed core %d row closes" ctx core)
        resumed.Coprocessor.total_cycles
        (Profiler.row_sum prof ~core)
    done
  | _ -> ()

(* Snapshots while cores are parked on each of the three waits. *)
let test_park_snapshot_resume () =
  List.iter
    (fun (ctx, cfg, build) -> check_park_snapshots ctx cfg build)
    [
      ( "probers, 3 cores",
        Coprocessor.config ~mem:(mem_at 20) ~n_cores:3 (),
        termination_heap ~small:true );
      ( "scan lock, cup/16 fifo 4",
        Coprocessor.config ~mem:(mem_at ~fifo_capacity:4 0) ~n_cores:16 (),
        fun () -> Workloads.build_heap ~scale:0.02 ~seed:42 Workloads.cup );
      ( "header lock, javac/16",
        Coprocessor.config ~mem:(mem_at 20) ~n_cores:16 (),
        fun () -> Workloads.build_heap ~scale:0.02 ~seed:42 Workloads.javac );
    ]

(* A per-step trace attached mid-run, while cores are parked, samples
   the machine exactly as it samples the unparked twin, and the run
   still ends bit-identical to it, executed/skipped split included. *)
let test_park_trace_mid_run () =
  let cfg = Coprocessor.config ~mem:(mem_at 20) ~n_cores:3 () in
  let build = termination_heap ~small:true in
  let run cfg =
    let sim = Coprocessor.start cfg (build ()) in
    let trace = Trace.create ~interval:7 () in
    let steps = ref 0 in
    while not (Coprocessor.halted sim) do
      incr steps;
      (* Untraced for a stretch with probers parked, then traced. *)
      if !steps < 200 || !steps > 400 then Coprocessor.step sim
      else Coprocessor.step ~trace sim
    done;
    if Trace.length trace = 0 then Alcotest.fail "the trace took no sample";
    (Coprocessor.finalize sim, Trace.to_csv trace)
  in
  let parked, csv = run cfg and unparked, csv_twin = run (twin cfg) in
  check_stats_equal "trace mid-run" ~ref_name:"unparked" ~other_name:"parked"
    unparked parked;
  Alcotest.(check (pair int int))
    "trace mid-run: executed/skipped split"
    (unparked.Coprocessor.executed_cycles, unparked.Coprocessor.skipped_cycles)
    (parked.Coprocessor.executed_cycles, parked.Coprocessor.skipped_cycles);
  Alcotest.(check string) "trace samples" csv_twin csv

(* A watchdog trip while cores are parked: the same cycle and the same
   machine dump as the unparked twin. *)
let test_park_watchdog_dump () =
  let dump cfg =
    match
      Coprocessor.collect cfg (termination_heap ~small:true ())
    with
    | _ -> Alcotest.fail "the cycle budget did not trip"
    | exception Coprocessor.Stall_diagnosis d ->
      Format.asprintf "%a" Coprocessor.pp_diagnosis d
  in
  let cfg =
    Coprocessor.config ~mem:(mem_at 20) ~cycle_budget:5_000 ~n_cores:3 ()
  in
  Alcotest.(check string) "machine dump" (dump (twin cfg)) (dump cfg)

(* ------------------------------------------------------------------ *)
(* Spinner parking under the tracer and profiler                       *)
(* ------------------------------------------------------------------ *)

(* Instrumented runs park like plain ones, and the wake credits feed the
   tracer and profiler exactly what the skipped retries would have: the
   parked run and its unparked twin, both instrumented, end with equal
   statistics, split, rings and encodings. At scale 0.3 a 4 096-event
   ring overflows, so the kept prefix tests the emission order. *)
let test_park_instrumented_parity () =
  List.iter
    (fun (scale, capacity) ->
      List.iter
        (fun w ->
          List.iter
            (fun n_cores ->
              List.iter
                (fun lat ->
                  let ctx =
                    Printf.sprintf "%s/%d +%d scale %g" w.Workloads.name
                      n_cores lat scale
                  in
                  let run cfg =
                    let ((obs, prof) as ins) = instruments ?capacity n_cores in
                    let s =
                      Coprocessor.collect ~obs ~prof cfg
                        (Workloads.build_heap ~scale ~seed:42 w)
                    in
                    (s, ins)
                  in
                  let cfg = Coprocessor.config ~mem:(mem_at lat) ~n_cores () in
                  let unparked, ins_u = run (twin cfg) in
                  let parked, ins_p = run cfg in
                  check_stats_equal ctx ~ref_name:"unparked"
                    ~other_name:"parked" unparked parked;
                  Alcotest.(check (pair int int))
                    (ctx ^ ": executed/skipped split")
                    (split unparked) (split parked);
                  check_instruments_equal ctx ~ref_name:"unparked"
                    ~other_name:"parked" ins_u ins_p)
                latencies)
            [ 2; 4; 16 ])
        Workloads.all)
    [ (0.05, None); (0.3, Some 4096) ]

(* Instrumented runs keep the default engine's pinned executed/skipped
   split. *)
let test_park_instrumented_split () =
  List.iter
    (fun (name, n_cores, latency, total, executed, skipped) ->
      let w = Option.get (Workloads.find name) in
      let obs, prof = instruments n_cores in
      let s =
        Coprocessor.collect ~obs ~prof
          (Coprocessor.config ~mem:(mem_at latency) ~n_cores ())
          (Workloads.build_heap ~scale:0.05 ~seed:42 w)
      in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%s/%d cores/+%d: (total, executed, skipped)" name
           n_cores latency)
        (total, executed, skipped)
        ( s.Coprocessor.total_cycles,
          s.Coprocessor.executed_cycles,
          s.Coprocessor.skipped_cycles ))
    Test_kernel.pinned_splits

(* Snapshots of instrumented runs while cores are parked. *)
let test_park_instrumented_snapshots () =
  List.iter
    (fun (ctx, n_cores, mem, w) ->
      check_park_snapshots ~instrumented:true ctx
        (Coprocessor.config ~mem ~n_cores ())
        (fun () -> Workloads.build_heap ~scale:0.05 ~seed:42 w))
    [
      ("search/16 +20", 16, mem_at 20, Workloads.search);
      ("javac/16 +0", 16, mem_at 0, Workloads.javac);
      ("javac/16 +20", 16, mem_at 20, Workloads.javac);
      ("cup/16 fifo 4", 16, mem_at ~fifo_capacity:4 0, Workloads.cup);
      ("compress/8", 8, mem_at 0, Workloads.compress);
    ]

(* The compiled engine's parking shares the default engine's
   implementation, with no core-count ceiling: 64 and 100 cores (the
   latter past the wake queue's linear-scan regime) run its fast path. *)
let test_compiled_many_cores () =
  List.iter
    (fun n_cores ->
      check_three
        (Printf.sprintf "search at %d cores" n_cores)
        ~mem:Memsys.default_config ~n_cores (fun () ->
          Workloads.build_heap ~scale:0.05 ~seed:42 Workloads.search))
    [ 64; 100 ]

let suite =
  [
    Alcotest.test_case "compiled equivalent on workload grid" `Slow
      test_compiled_equivalent_on_workloads;
    Alcotest.test_case "compiled equivalent latency-bound" `Quick
      test_compiled_equivalent_latency_bound;
    QCheck_alcotest.to_alcotest qcheck_compiled_equivalent;
    QCheck_alcotest.to_alcotest qcheck_compiled_with_faults;
    Alcotest.test_case "compiled checkpoint/resume bit-identical" `Quick
      test_compiled_checkpoint_resume;
    Alcotest.test_case "traced compiled run matches naive digest" `Quick
      test_compiled_trace_digest_matches;
    Alcotest.test_case "parked scan-lock waiters" `Quick test_park_scan_lock;
    Alcotest.test_case "parked header-lock waiters" `Quick
      test_park_header_lock;
    Alcotest.test_case "termination with probers parked" `Quick
      test_park_termination;
    Alcotest.test_case "snapshots with cores parked" `Quick
      test_park_snapshot_resume;
    Alcotest.test_case "per-step trace attached mid-run" `Quick
      test_park_trace_mid_run;
    Alcotest.test_case "watchdog dump with cores parked" `Quick
      test_park_watchdog_dump;
    Alcotest.test_case "compiled engine at 64 and 100 cores" `Quick
      test_compiled_many_cores;
    Alcotest.test_case "instrumented parking matches the unparked twin" `Slow
      test_park_instrumented_parity;
    Alcotest.test_case "instrumented runs keep the pinned split" `Quick
      test_park_instrumented_split;
    Alcotest.test_case "instrumented snapshots with cores parked" `Quick
      test_park_instrumented_snapshots;
  ]
