(* Tests for spinner parking: a core that loses a synchronization wait
   in a parkable run is not stepped again until another core's write
   can change the retry's outcome, and its skipped retries are credited
   in bulk at the wake.

   Parking carries the event-driven engine's contract and one more:
   every reported simulation statistic — total cycles, per-core
   stall/work counters, memory-system and FIFO counters, the verified
   post-heap — is bit-identical to naive stepping, and the
   executed/skipped split, every snapshot section, trace event and
   profile cell equal those of an unparked twin (the same configuration
   with an inert fault plan, which turns parking off and changes
   nothing else). *)

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

let check_stats_equal = Test_kernel.check_stats_equal

(* Run the same prebuilt configuration under naive and default stepping
   and check full parity, canonical post-heap equality included. *)
let check_naive_parity ctx ~mem ~n_cores build =
  let run skip =
    let heap = build () in
    let stats =
      Coprocessor.collect (Coprocessor.config ~mem ~skip ~n_cores ()) heap
    in
    (stats, Verify.snapshot heap)
  in
  let naive, snap_naive = run false and default, snap_default = run true in
  check_stats_equal ctx ~ref_name:"naive" ~other_name:"default" naive default;
  if not (Verify.equal_snapshot snap_naive snap_default) then
    Alcotest.failf "%s: default post-heap differs from naive post-heap" ctx

(* ------------------------------------------------------------------ *)
(* Spinner parking                                                     *)
(* ------------------------------------------------------------------ *)

(* The unparked twin of a configuration: an inert fault plan (every
   probability zero) turns spinner parking off without changing
   anything the machine does, so the twin is the parked run's reference
   down to the executed/skipped split and the snapshot bytes. *)
let twin cfg = { cfg with Coprocessor.faults = Some Injector.default_spec }

(* Parity with naive stepping, plus split parity with the unparked
   twin. Returns the parked default-engine statistics. *)
let check_parking ctx ~mem ~n_cores build =
  check_naive_parity ctx ~mem ~n_cores build;
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
   unparked twin's at the same cycle every 53 steps, saving does not
   perturb the run, and
   a run resumed from a mid-run image ends bit-identical to a
   straight-through one, executed/skipped split included. With
   [instrumented], every run carries a tracer and a profiler: their
   sections are compared too, the saved and resumed runs end with the
   straight run's raw ring and encodings (so its digest), and the
   resumed profile rows close to the total. *)
let check_park_snapshots ?(instrumented = false) ?(every = 53) ctx cfg build =
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
    (* One step of [a] may retire several cycles (a single-due window),
       so the twin steps until it reaches [a]'s cycle. A horizon would
       add an executed cycle to the twin, so it steps without one. *)
    while Coprocessor.now b < Coprocessor.now a do
      Coprocessor.step b
    done;
    if Coprocessor.now b <> Coprocessor.now a then
      Alcotest.failf "%s: the twin passed cycle %d (at %d)" ctx
        (Coprocessor.now a) (Coprocessor.now b);
    incr steps;
    if !steps mod every = 0 then begin
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

(* After every step, single-due windows included: a window's copy run
   leaves the port and per-cycle registers as the shared cycle does, so
   its snapshot is the twin's byte for byte. *)
let test_window_snapshots () =
  List.iter
    (fun (ctx, n_cores, lat, w) ->
      check_park_snapshots ~every:1 ctx
        (Coprocessor.config ~mem:(mem_at lat) ~n_cores ())
        (fun () -> Workloads.build_heap ~scale:0.005 ~seed:42 w))
    [
      ("window, compress/2 +0", 2, 0, Workloads.compress);
      ("window, javac/2 +0", 2, 0, Workloads.javac);
      ("window, jflex/2 +20", 2, 20, Workloads.jflex);
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

(* Parking has no core-count ceiling: 64 and 100 cores (the latter past
   the wake queue's linear-scan regime) keep parity with naive
   stepping. *)
let test_many_cores () =
  List.iter
    (fun n_cores ->
      check_naive_parity
        (Printf.sprintf "search at %d cores" n_cores)
        ~mem:Memsys.default_config ~n_cores (fun () ->
          Workloads.build_heap ~scale:0.05 ~seed:42 Workloads.search))
    [ 64; 100 ]

let suite =
  [
    Alcotest.test_case "parked scan-lock waiters" `Quick test_park_scan_lock;
    Alcotest.test_case "parked header-lock waiters" `Quick
      test_park_header_lock;
    Alcotest.test_case "termination with probers parked" `Quick
      test_park_termination;
    Alcotest.test_case "snapshots with cores parked" `Quick
      test_park_snapshot_resume;
    Alcotest.test_case "snapshots after every single-due window" `Quick
      test_window_snapshots;
    Alcotest.test_case "per-step trace attached mid-run" `Quick
      test_park_trace_mid_run;
    Alcotest.test_case "watchdog dump with cores parked" `Quick
      test_park_watchdog_dump;
    Alcotest.test_case "naive/default parity on many cores" `Quick
      test_many_cores;
    Alcotest.test_case "instrumented parking matches the unparked twin" `Slow
      test_park_instrumented_parity;
    Alcotest.test_case "instrumented runs keep the pinned split" `Quick
      test_park_instrumented_split;
    Alcotest.test_case "instrumented snapshots with cores parked" `Quick
      test_park_instrumented_snapshots;
  ]
