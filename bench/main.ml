(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation section, runs the extension experiments, and then
   times the underlying kernels with Bechamel (one Test.make per
   artifact).

     dune exec bench/main.exe                  — everything, paper-like scale
     HSGC_SCALE=0.2 dune exec bench/main.exe   — smaller/faster

   Experiment index (see DESIGN.md):
     E1  Figure 5   speedup vs cores, 8 workloads
     E2  Table I    fraction of cycles with the worklist empty
     E3  Table II   stall-cycle distribution at 16 cores
     E4  Figure 6   speedup with +20-cycle memory latency
     E5  baselines  software schemes vs hardware support (Section III)
     E6  swgc       real OCaml-Domains collector
     E7  ablations  Section VII future work: sub-object units, header cache
     E8  concurrent the coprocessor running while the mutator executes *)

module Report = Hsgc_core.Report
module Experiment = Hsgc_core.Experiment
module Memsys = Hsgc_memsim.Memsys
module Workloads = Hsgc_objgraph.Workloads
module Engine = Hsgc_baselines.Engine
module Parallel_copy = Hsgc_swgc.Parallel_copy
module Par = Hsgc_swgc.Par
module Coprocessor = Hsgc_coproc.Coprocessor
module Verify = Hsgc_heap.Verify
module Tbl = Hsgc_util.Table
open Bechamel
open Toolkit

let scale =
  match Sys.getenv_opt "HSGC_SCALE" with
  | Some s -> (try float_of_string s with Failure _ -> 1.0)
  | None -> 1.0

(* HSGC_JOBS=4 distributes sweep points over that many domains; every
   artifact is byte-identical at any value. *)
let jobs =
  match Sys.getenv_opt "HSGC_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 1)
  | None -> 1

let rule title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title (String.make 72 '=')

(* ------------------------------------------------------------------ *)
(* E1-E4: the paper's figures and tables                               *)
(* ------------------------------------------------------------------ *)

let paper_artifacts () =
  rule
    (Printf.sprintf
       "Reproduction of Horvath & Meyer, ICPP 2010 (workload scale %.2f)" scale);
  let base = Report.run_sweeps ~scale ~jobs () in
  print_endline (Report.figure5 base);
  print_endline (Report.table1 base);
  print_endline (Report.table2 base);
  print_endline (Report.fifo_summary base);
  let slow =
    Report.run_sweeps ~scale ~jobs
      ~mem:(Memsys.with_extra_latency Memsys.default_config 20)
      ()
  in
  print_endline (Report.figure6 slow);
  print_endline (Report.heap_size_invariance ~scale ())

(* ------------------------------------------------------------------ *)
(* E5: software schemes of Section III vs hardware support             *)
(* ------------------------------------------------------------------ *)

let baseline_artifacts () =
  print_string "\n";
  print_endline (Report.baselines ~scale:(0.2 *. scale) ())

(* ------------------------------------------------------------------ *)
(* E6: the real Domains-based collector                                *)
(* ------------------------------------------------------------------ *)

let swgc_artifacts () =
  rule "E6. Real parallel copying collector on OCaml domains";
  Printf.printf
    "Host exposes %d core(s) (Domain.recommended_domain_count); on a\n\
     single-core host extra domains only add contention — the measured\n\
     object is the synchronization cost, not the speedup.\n\n"
    (Domain.recommended_domain_count ());
  let w = Option.get (Workloads.find "db") in
  let header =
    [ "domains"; "live objects"; "time (ms)"; "CAS races"; "verified" ]
  in
  let rows =
    List.map
      (fun domains ->
        let heap = Workloads.build_heap ~scale:(2.0 *. scale) ~seed:7 w in
        let pre = Verify.snapshot heap in
        let s = Parallel_copy.collect ~domains heap in
        let ok =
          match Verify.check_collection ~pre heap with
          | Ok () -> "yes"
          | Error f -> Format.asprintf "NO: %a" Verify.pp_failure f
        in
        [
          string_of_int domains;
          string_of_int s.Parallel_copy.live_objects;
          Printf.sprintf "%.2f" (1000.0 *. s.Parallel_copy.elapsed_s);
          string_of_int s.Parallel_copy.cas_races_lost;
          ok;
        ])
      [ 1; 2; 4; 8 ]
  in
  Tbl.print ~header ~rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E7: the paper's Section VII future-work features, as ablations      *)
(* ------------------------------------------------------------------ *)

module Plan = Hsgc_objgraph.Plan

let future_work_artifacts () =
  print_endline (Report.future_work ~scale ())

(* ------------------------------------------------------------------ *)
(* E8: concurrent collection (the announced next step)                 *)
(* ------------------------------------------------------------------ *)

module Concurrent = Hsgc_coproc.Concurrent
module Heap = Hsgc_heap.Heap

let concurrent_artifacts () =
  print_endline (Report.concurrent_pauses ~scale:(0.5 *. scale) ())

(* ------------------------------------------------------------------ *)
(* Bechamel: one Test.make per artifact                                *)
(* ------------------------------------------------------------------ *)

let bench_scale = 0.05

let fig5_kernel () =
  (* the kernel behind Figure 5: one sweep point (db at 8 cores) *)
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.db in
  Coprocessor.collect (Coprocessor.config ~n_cores:8 ()) heap

let fig5_kernel_noskip () =
  (* same point with idle-cycle skipping disabled: the pair tracks the
     simulation kernel's own win across revisions *)
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.db in
  Coprocessor.collect (Coprocessor.config ~skip:false ~n_cores:8 ()) heap

let table1_kernel () =
  (* the kernel behind Table I: an empty-worklist-bound workload *)
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.search in
  Coprocessor.collect (Coprocessor.config ~n_cores:8 ()) heap

let table2_kernel () =
  (* the kernel behind Table II: the contention-heavy workload, 16 cores *)
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.javac in
  Coprocessor.collect (Coprocessor.config ~n_cores:16 ()) heap

let fig6_kernel () =
  let mem = Memsys.with_extra_latency Memsys.default_config 20 in
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.db in
  Coprocessor.collect (Coprocessor.config ~mem ~n_cores:8 ()) heap

let baselines_kernel =
  let plan = Workloads.db.Workloads.build ~scale:bench_scale ~seed:42 in
  fun () -> Engine.simulate ~plan ~workers:8 Engine.Work_stealing

let swgc_kernel () =
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.db in
  Parallel_copy.collect ~domains:2 heap

let seq_oracle_kernel () =
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.db in
  Hsgc_core.Cheney_seq.collect heap

let concurrent_kernel () =
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.db in
  Hsgc_coproc.Concurrent.collect
    (Hsgc_coproc.Concurrent.default_config ~n_cores:8 ())
    heap

let subobject_kernel () =
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.compress in
  Coprocessor.collect (Coprocessor.config ~scan_unit:32 ~n_cores:8 ()) heap

let header_cache_kernel () =
  let mem = Memsys.with_header_cache Memsys.default_config 1024 in
  let heap = Workloads.build_heap ~scale:bench_scale ~seed:42 Workloads.javac in
  Coprocessor.collect (Coprocessor.config ~mem ~n_cores:8 ()) heap

let tests =
  Test.make_grouped ~name:"hsgc"
    [
      Test.make ~name:"fig5_scaling" (Staged.stage fig5_kernel);
      Test.make ~name:"fig5_scaling_noskip" (Staged.stage fig5_kernel_noskip);
      Test.make ~name:"table1_empty_worklist" (Staged.stage table1_kernel);
      Test.make ~name:"table2_stalls" (Staged.stage table2_kernel);
      Test.make ~name:"fig6_latency_scaling" (Staged.stage fig6_kernel);
      Test.make ~name:"baselines_compare" (Staged.stage baselines_kernel);
      Test.make ~name:"swgc_domains" (Staged.stage swgc_kernel);
      Test.make ~name:"cheney_seq_oracle" (Staged.stage seq_oracle_kernel);
      Test.make ~name:"subobject_units" (Staged.stage subobject_kernel);
      Test.make ~name:"header_cache" (Staged.stage header_cache_kernel);
      Test.make ~name:"concurrent_cycle" (Staged.stage concurrent_kernel);
    ]

let run_bechamel () =
  rule "Bechamel micro-benchmarks (simulator kernels, reduced scale)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ~stabilize:true
      ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let per_run =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | Some [] | None -> nan
      in
      rows := [ name; Printf.sprintf "%.3f ms/run" (per_run /. 1e6) ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  Tbl.print ~header:[ "benchmark"; "monotonic clock" ] ~rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E9: stepping throughput (the `gcsim bench` perf suite, small scale)  *)
(* ------------------------------------------------------------------ *)

let stepping_throughput () =
  rule
    "E9  Stepping throughput (prebuilt heaps, sim-only wall; `gcsim bench` \
     runs the tracked BENCH_sim.json scale)";
  let suite = Hsgc_core.Perf.run ~scale:(0.2 *. scale) () in
  print_endline (Hsgc_core.Perf.summary suite);
  print_newline ()

let () =
  paper_artifacts ();
  baseline_artifacts ();
  swgc_artifacts ();
  future_work_artifacts ();
  concurrent_artifacts ();
  stepping_throughput ();
  run_bechamel ();
  print_endline "done."
