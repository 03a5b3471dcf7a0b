(* Tests for the experiment runner and report rendering. *)

module Experiment = Hsgc_core.Experiment
module Report = Hsgc_core.Report
module Workloads = Hsgc_objgraph.Workloads
module Memsys = Hsgc_memsim.Memsys

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let small_sweep =
  lazy
    (Report.run_sweeps ~verify:true ~scale:0.02 ~seeds:[| 5 |] ~cores:[ 1; 2; 4 ] ())

let test_measure () =
  let m =
    Experiment.measure ~verify:true ~scale:0.02 ~seeds:[| 5 |]
      ~workload:Workloads.jlisp ~n_cores:2 ()
  in
  Alcotest.(check string) "workload name" "jlisp" m.Experiment.workload;
  Alcotest.(check int) "cores" 2 m.Experiment.n_cores;
  Alcotest.(check bool) "cycles positive" true (m.Experiment.cycles > 0.0);
  Alcotest.(check bool) "live objects positive" true (m.Experiment.live_objects > 0.0);
  Alcotest.(check bool) "empty fraction in [0,1]" true
    (m.Experiment.empty_frac >= 0.0 && m.Experiment.empty_frac <= 1.0)

let test_measure_multi_seed () =
  let m =
    Experiment.measure ~scale:0.02 ~seeds:[| 1; 2; 3 |] ~workload:Workloads.jlisp
      ~n_cores:1 ()
  in
  Alcotest.(check bool) "averaged cycles positive" true (m.Experiment.cycles > 0.0)

let test_sweep_and_speedups () =
  let points =
    Experiment.sweep ~scale:0.02 ~seeds:[| 5 |] ~cores:[ 1; 2; 4 ] Workloads.db
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  let sp = Experiment.speedups points in
  (match sp with
  | (1, s1) :: _ ->
    Alcotest.(check (float 1e-9)) "baseline speedup is 1" 1.0 s1
  | _ -> Alcotest.fail "first point should be 1 core");
  let _, s4 = List.nth sp 2 in
  Alcotest.(check bool) "db speeds up at 4 cores" true (s4 > 2.0)

let test_speedups_empty () =
  Alcotest.(check int) "no points, no speedups" 0
    (List.length (Experiment.speedups []))

let test_run_sweeps_structure () =
  let data = Lazy.force small_sweep in
  Alcotest.(check int) "eight workloads" 8 (List.length data);
  List.iter
    (fun (_, points) ->
      Alcotest.(check int) "three core counts" 3 (List.length points))
    data

let test_figure5_renders () =
  let s = Report.figure5 (Lazy.force small_sweep) in
  Alcotest.(check bool) "title" true (contains ~sub:"Figure 5" s);
  Alcotest.(check bool) "legend includes db" true (contains ~sub:"db" s);
  Alcotest.(check bool) "table header" true (contains ~sub:"Application" s)

let test_table1_renders () =
  let s = Report.table1 (Lazy.force small_sweep) in
  Alcotest.(check bool) "title" true (contains ~sub:"Table I" s);
  Alcotest.(check bool) "percent cells" true (contains ~sub:"%" s);
  Alcotest.(check bool) "all workloads" true
    (List.for_all
       (fun w -> contains ~sub:w.Workloads.name s)
       Workloads.all)

let test_table2_renders () =
  let s = Report.table2 ~n_cores:4 (Lazy.force small_sweep) in
  Alcotest.(check bool) "title" true (contains ~sub:"Table II" s);
  Alcotest.(check bool) "stall columns" true (contains ~sub:"Scan-lock stall" s)

let test_table2_missing_cores () =
  (* Requesting a core count absent from the sweep yields an empty table,
     not an exception. *)
  let s = Report.table2 ~n_cores:99 (Lazy.force small_sweep) in
  Alcotest.(check bool) "renders" true (contains ~sub:"Table II" s)

let test_fifo_summary_renders () =
  let s = Report.fifo_summary (Lazy.force small_sweep) in
  Alcotest.(check bool) "has header" true (contains ~sub:"FIFO" s)

let test_heap_size_invariance_renders () =
  let s = Report.heap_size_invariance ~scale:0.02 () in
  Alcotest.(check bool) "mentions heap factor" true (contains ~sub:"heap factor" s);
  (* the invariance itself: all four cycle counts equal *)
  let lines = String.split_on_char '\n' s in
  let cycles =
    List.filter_map
      (fun l ->
        match String.split_on_char 'x' l with
        | [ _; rest ] -> (
          match String.split_on_char ' ' (String.trim rest) with
          | c :: _ -> int_of_string_opt c
          | [] -> None)
        | _ -> None)
      lines
  in
  match cycles with
  | c :: rest ->
    List.iter (fun c' -> Alcotest.(check int) "cycles identical" c c') rest
  | [] -> Alcotest.fail "no data rows parsed"

let test_baselines_renders () =
  let s = Report.baselines ~scale:0.02 () in
  Alcotest.(check bool) "all schemes shown" true
    (contains ~sub:"sw-object" s && contains ~sub:"sw-steal" s
    && contains ~sub:"sw-push" s && contains ~sub:"hw-object" s)

let test_future_work_renders () =
  let s = Report.future_work ~scale:0.05 () in
  Alcotest.(check bool) "both ablations" true
    (contains ~sub:"32-word pieces" s && contains ~sub:"4096-entry cache" s)

let test_concurrent_pauses_renders () =
  let s = Report.concurrent_pauses ~scale:0.05 () in
  Alcotest.(check bool) "pause column" true (contains ~sub:"conc. pause" s);
  Alcotest.(check bool) "workloads" true
    (contains ~sub:"db" s && contains ~sub:"search" s)

let test_verification_failure_surfaces () =
  (* verify:true propagates broken collections as an exception — sanity
     check that the plumbing works by ensuring a correct run does not
     raise. *)
  let _ =
    Experiment.measure ~verify:true ~scale:0.02 ~seeds:[| 7 |]
      ~workload:Workloads.compress ~n_cores:3 ()
  in
  ()

(* The paper artifacts do not depend on how they were computed: the
   verified Figure 5 sweep (with Tables I and II) and the Figure 6
   sweep render byte-identically under naive stepping, idle-cycle
   skipping, and skipping with the points spread over two domains. *)
let test_artifacts_stepping_invariant () =
  let latency = Memsys.with_extra_latency Memsys.default_config 20 in
  let render ?mem ~skip ~jobs () =
    let d =
      Report.run_sweeps ~verify:true ~scale:0.02 ~seeds:[| 42 |] ?mem ~skip
        ~jobs ()
    in
    match mem with
    | None -> Report.figure5 d ^ Report.table1 d ^ Report.table2 d
    | Some _ -> Report.figure6 d
  in
  List.iter
    (fun (what, mem) ->
      let naive = render ?mem ~skip:false ~jobs:1 () in
      Alcotest.(check string) (what ^ ": skip = naive") naive
        (render ?mem ~skip:true ~jobs:1 ());
      Alcotest.(check string) (what ^ ": 2 jobs = naive") naive
        (render ?mem ~skip:true ~jobs:2 ()))
    [ ("figure 5", None); ("figure 6", Some latency) ]

let suite =
  [
    Alcotest.test_case "measure" `Quick test_measure;
    Alcotest.test_case "measure multi-seed" `Quick test_measure_multi_seed;
    Alcotest.test_case "sweep and speedups" `Quick test_sweep_and_speedups;
    Alcotest.test_case "speedups of empty list" `Quick test_speedups_empty;
    Alcotest.test_case "run_sweeps structure" `Slow test_run_sweeps_structure;
    Alcotest.test_case "figure5 renders" `Slow test_figure5_renders;
    Alcotest.test_case "table1 renders" `Slow test_table1_renders;
    Alcotest.test_case "table2 renders" `Slow test_table2_renders;
    Alcotest.test_case "table2 missing cores" `Slow test_table2_missing_cores;
    Alcotest.test_case "fifo summary renders" `Slow test_fifo_summary_renders;
    Alcotest.test_case "heap-size invariance" `Slow test_heap_size_invariance_renders;
    Alcotest.test_case "baselines renders" `Slow test_baselines_renders;
    Alcotest.test_case "future work renders" `Slow test_future_work_renders;
    Alcotest.test_case "concurrent pauses renders" `Slow
      test_concurrent_pauses_renders;
    Alcotest.test_case "verify plumbing" `Quick test_verification_failure_surfaces;
    Alcotest.test_case "artifacts identical: naive, skip, 2 jobs" `Slow
      test_artifacts_stepping_invariant;
  ]
