module Table = Hsgc_util.Table
module Counters = Hsgc_coproc.Counters
module Coprocessor = Hsgc_coproc.Coprocessor
module Workloads = Hsgc_objgraph.Workloads
module Verify = Hsgc_heap.Verify

type sweep_data = (string * Experiment.measurement list) list

let run_sweeps ?verify ?scale ?seeds ?mem ?skip ?sanitize ?cores
    ?(jobs = Experiment.default_jobs) () =
  let core_list =
    match cores with Some c -> c | None -> Experiment.default_cores
  in
  (* Flatten the workload x cores grid into one task list so the domain
     pool can balance across both axes, then regroup in workload order.
     Each task runs its own simulator; ordering, and therefore every
     rendered artifact, is independent of [jobs]. *)
  let tasks =
    List.concat_map
      (fun w -> List.map (fun n_cores -> (w, n_cores)) core_list)
      Workloads.all
  in
  let results =
    Hsgc_sim.Domain_pool.map_list ~jobs
      (fun (w, n_cores) ->
        Experiment.measure ?verify ?scale ?seeds ?mem ?skip ?sanitize
          ~workload:w ~n_cores ())
      tasks
  in
  let per_workload = List.length core_list in
  let rec regroup ws results =
    match ws with
    | [] -> []
    | w :: ws' ->
      let rec take n acc rest =
        if n = 0 then (List.rev acc, rest)
        else
          match rest with
          | [] -> invalid_arg "Report.run_sweeps: result count mismatch"
          | x :: rest' -> take (n - 1) (x :: acc) rest'
      in
      let points, rest = take per_workload [] results in
      (w.Workloads.name, points) :: regroup ws' rest
  in
  regroup Workloads.all results

let speedup_chart ~title data =
  let series =
    List.map
      (fun (name, points) ->
        {
          Table.Chart.label = name;
          points =
            List.map
              (fun (n, s) -> (float_of_int n, s))
              (Experiment.speedups points);
        })
      data
  in
  Table.Chart.render ~title ~x_label:"GC cores" ~y_label:"speedup" series

let speedup_table data =
  let cores =
    match data with
    | (_, points) :: _ -> List.map (fun p -> p.Experiment.n_cores) points
    | [] -> []
  in
  let header =
    "Application" :: List.map (fun c -> Printf.sprintf "%d cores" c) cores
  in
  let rows =
    List.map
      (fun (name, points) ->
        name
        :: List.map (fun (_, s) -> Table.fixed 2 s) (Experiment.speedups points))
      data
  in
  Table.render ~header ~rows

let figure5 data =
  speedup_chart ~title:"Figure 5. Scaling behavior (GC speedup vs. cores)" data
  ^ "\n" ^ speedup_table data

let figure6 data =
  speedup_chart
    ~title:
      "Figure 6. Scaling behavior (more realistic memory latency: +20 cycles)"
    data
  ^ "\n" ^ speedup_table data

let table1 data =
  let cores =
    match data with
    | (_, points) :: _ -> List.map (fun p -> p.Experiment.n_cores) points
    | [] -> []
  in
  let header =
    "Application" :: List.map (fun c -> Printf.sprintf "%d cores" c) cores
  in
  let rows =
    List.map
      (fun (name, points) ->
        name :: List.map (fun p -> Table.pct p.Experiment.empty_frac) points)
      data
  in
  "Table I. Fraction of clock cycles during which work list is empty\n"
  ^ Table.render ~header ~rows

let table2 ?(n_cores = 16) data =
  let header =
    "Application" :: "Total"
    :: List.map Counters.stall_name Counters.all_stalls
  in
  let rows =
    List.filter_map
      (fun (name, points) ->
        match
          List.find_opt (fun p -> p.Experiment.n_cores = n_cores) points
        with
        | None -> None
        | Some p ->
          let total = int_of_float p.Experiment.cycles in
          let stall s =
            Table.count_with_pct ~total (Counters.get p.Experiment.stalls_mean_core s)
          in
          Some
            (name :: string_of_int total :: List.map stall Counters.all_stalls))
      data
  in
  Printf.sprintf "Table II. Clock cycle distribution (for %d cores, mean per core)\n"
    n_cores
  ^ Table.render ~header ~rows

let fifo_summary data =
  let header =
    [ "Application"; "FIFO hits"; "FIFO overflows"; "Live objects" ]
  in
  let rows =
    List.filter_map
      (fun (name, points) ->
        match points with
        | [] -> None
        | p :: _ ->
          Some
            [
              name;
              Printf.sprintf "%.0f" p.Experiment.fifo_hits;
              Printf.sprintf "%.0f" p.Experiment.fifo_overflows;
              Printf.sprintf "%.0f" p.Experiment.live_objects;
            ])
      data
  in
  "Header-FIFO behavior (extension; mechanism behind cup's scan-lock stalls)\n"
  ^ Table.render ~header ~rows

let heap_size_invariance ?(scale = 1.0) ?(seed = 42) () =
  let module Plan = Hsgc_objgraph.Plan in
  let w = Option.get (Workloads.find "db") in
  let rows =
    List.map
      (fun factor ->
        let plan = w.Workloads.build ~scale ~seed in
        let heap = Plan.materialize ~heap_factor:factor plan in
        let s = Coprocessor.collect (Coprocessor.config ~n_cores:8 ()) heap in
        [
          Printf.sprintf "%.1fx" factor;
          string_of_int s.Coprocessor.total_cycles;
          string_of_int s.Coprocessor.live_objects;
        ])
      [ 1.2; 2.0; 4.0; 8.0 ]
  in
  "Heap-size invariance (paper Section VI-B: heap size has little to no\n\
   influence): db at 8 cores, semispace sized as a multiple of the live data.\n"
  ^ Table.render ~header:[ "heap factor"; "GC cycles"; "live objects" ] ~rows

let baselines ?(scale = 0.2) ?(seed = 7) () =
  let module Engine = Hsgc_baselines.Engine in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "E5. Software parallel-GC schemes (paper Section III) vs hardware\n\
     support. Speedup over the same scheme at 1 worker; sync = share of\n\
     worker time spent synchronizing (cost model: CAS 30, fence 50, lock\n\
     pair 80 cycles).\n\n";
  let workers = [ 1; 4; 8; 16 ] in
  List.iter
    (fun wname ->
      let w = Option.get (Workloads.find wname) in
      let plan = w.Workloads.build ~scale ~seed in
      Buffer.add_string buf (Printf.sprintf "workload %s\n" wname);
      let header =
        "scheme"
        :: List.concat_map (fun p -> [ Printf.sprintf "%dw" p; "sync" ]) workers
      in
      let rows =
        List.map
          (fun scheme ->
            let base = Engine.simulate ~plan ~workers:1 scheme in
            Engine.scheme_name scheme
            :: List.concat_map
                 (fun p ->
                   let r = Engine.simulate ~plan ~workers:p scheme in
                   [
                     Printf.sprintf "%.2fx" (Engine.speedup base r);
                     Table.pct
                       (float_of_int r.Engine.sync_cycles
                       /. float_of_int (r.Engine.total_cycles * p));
                   ])
                 workers)
          Engine.all_schemes
      in
      Buffer.add_string buf (Table.render ~header ~rows);
      Buffer.add_char buf '\n')
    [ "search"; "db"; "javac" ];
  Buffer.contents buf

let future_work ?(scale = 1.0) ?(seed = 42) () =
  let module Memsys = Hsgc_memsim.Memsys in
  let module Plan = Hsgc_objgraph.Plan in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "E7. Section VII future work, implemented as ablations.\n\n\
     (1) Sub-object (cache-line granularity) work units. Three large\n\
     arrays: object granularity caps the speedup at the object count;\n\
     32-word pieces spread each array over all cores until bandwidth\n\
     binds.\n\n";
  let arrays_plan () =
    let p = Plan.create () in
    let hub = Plan.obj p ~pi:3 ~delta:0 in
    let words = max 64 (int_of_float (3000.0 *. scale)) in
    for i = 0 to 2 do
      let arr = Plan.obj p ~pi:0 ~delta:words in
      Plan.link p ~parent:hub ~slot:i ~child:arr
    done;
    Plan.add_root p hub;
    p
  in
  let cycles ~scan_unit n_cores =
    let heap = Plan.materialize (arrays_plan ()) in
    let cfg = Coprocessor.config ?scan_unit ~n_cores () in
    (Coprocessor.collect cfg heap).Coprocessor.total_cycles
  in
  let cores = [ 1; 2; 4; 8; 16 ] in
  let header =
    "configuration" :: List.map (fun c -> Printf.sprintf "%d cores" c) cores
  in
  let row name scan_unit =
    let base = cycles ~scan_unit 1 in
    name
    :: List.map
         (fun c ->
           Printf.sprintf "%.2fx"
             (float_of_int base /. float_of_int (cycles ~scan_unit c)))
         cores
  in
  Buffer.add_string buf
    (Table.render ~header
       ~rows:[ row "object granularity" None; row "32-word pieces" (Some 32) ]);
  Buffer.add_string buf
    "\n(2) On-chip header cache: javac at 16 cores — cached symbol headers\n\
     shorten both the header-load stalls and the header-lock hold time.\n\n";
  let run_javac mem =
    let heap =
      Workloads.build_heap ~scale:(0.5 *. scale) ~seed Workloads.javac
    in
    Coprocessor.collect (Coprocessor.config ~mem ~n_cores:16 ()) heap
  in
  let describe name (s : Coprocessor.gc_stats) =
    let mean = Coprocessor.stalls_mean_per_core s in
    [
      name;
      string_of_int s.Coprocessor.total_cycles;
      Table.count_with_pct ~total:s.Coprocessor.total_cycles
        (Counters.get mean Counters.Header_lock);
      Table.count_with_pct ~total:s.Coprocessor.total_cycles
        (Counters.get mean Counters.Header_load);
      string_of_int s.Coprocessor.header_cache_hits;
    ]
  in
  Buffer.add_string buf
    (Table.render
       ~header:
         [
           "configuration"; "cycles"; "header-lock stall"; "header load stall";
           "cache hits";
         ]
       ~rows:
         [
           describe "no cache (published design)" (run_javac Memsys.default_config);
           describe "4096-entry cache"
             (run_javac (Memsys.with_header_cache Memsys.default_config 4096));
         ]);
  Buffer.contents buf

let concurrent_pauses ?(scale = 0.5) ?(seed = 42) () =
  let module Concurrent = Hsgc_coproc.Concurrent in
  let module Heap = Hsgc_heap.Heap in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "E8. Concurrent collection (paper Sections V-B/VII next step): the\n\
     main processor stops only for the root phase, then runs one\n\
     operation every 4 cycles while the cores collect. Every run is\n\
     verified.\n\n";
  let rows =
    List.map
      (fun wname ->
        let w = Option.get (Workloads.find wname) in
        let heap = Workloads.build_heap ~scale ~seed w in
        let stw = Coprocessor.collect (Coprocessor.config ~n_cores:8 ()) heap in
        let heap = Workloads.build_heap ~scale ~seed w in
        let orig_roots = Array.length heap.Heap.roots in
        let pre = Verify.snapshot heap in
        let stats = Concurrent.collect (Concurrent.default_config ()) heap in
        let all = heap.Heap.roots in
        Heap.set_roots heap (Array.sub all 0 orig_roots);
        let iso = Verify.equal_snapshot pre (Verify.snapshot heap) in
        Heap.set_roots heap all;
        if
          not
            (iso
            && Verify.check_space heap = Ok ()
            && Concurrent.check_new_objects heap stats = Ok ())
        then failwith ("concurrent verification failed for " ^ wname);
        [
          wname;
          string_of_int stw.Coprocessor.total_cycles;
          string_of_int stats.Concurrent.pause_cycles;
          string_of_int stats.Concurrent.barrier_evacuations;
          string_of_int
            (stats.Concurrent.mutator_reads + stats.Concurrent.mutator_allocs);
        ])
      [ "db"; "javac"; "javacc"; "search" ]
  in
  Buffer.add_string buf
    (Table.render
       ~header:
         [ "workload"; "STW pause"; "conc. pause"; "barrier evacs"; "mutator ops" ]
       ~rows);
  Buffer.contents buf

let profile_table ~total prof =
  let module Prof = Hsgc_obs.Profiler in
  let n = Prof.n_cores prof in
  let bucket_ids = List.init Prof.n_buckets (fun b -> b) in
  let header =
    ("core" :: List.map Prof.bucket_name bucket_ids) @ [ "total" ]
  in
  let rows =
    List.init n (fun c ->
        (string_of_int c
        :: List.map
             (fun b -> string_of_int (Prof.get prof ~core:c ~bucket:b))
             bucket_ids)
        @ [ string_of_int (Prof.row_sum prof ~core:c) ])
  in
  let agg = total * n in
  let all_row =
    ("ALL"
    :: List.map
         (fun b -> Table.count_with_pct ~total:agg (Prof.column prof ~bucket:b))
         bucket_ids)
    @ [ string_of_int agg ]
  in
  Printf.sprintf
    "Stall attribution (cycles; every core x cycle lands in exactly one\n\
     bucket, so each row sums to the %d simulated cycles)\n"
    total
  ^ Table.render ~header ~rows:(rows @ [ all_row ])

let metrics_summary m =
  let module M = Hsgc_obs.Metrics in
  let hist_rows =
    List.filter_map
      (fun h ->
        if M.hist_count h = 0 then None
        else
          Some
            [
              M.hist_name h;
              string_of_int (M.hist_count h);
              Table.fixed 1 (M.hist_mean h);
              string_of_int (M.hist_percentile h 50);
              string_of_int (M.hist_percentile h 90);
              string_of_int (M.hist_percentile h 99);
              string_of_int (M.hist_max h);
            ])
      (M.all_hists m)
  in
  let counter_rows =
    List.map
      (fun c -> [ M.counter_name c; string_of_int (M.counter_value c) ])
      (M.all_counters m)
  in
  "Cycle metrics (log2-bucketed histograms; percentiles are bucket upper\n\
   bounds, conservative and deterministic)\n"
  ^ Table.render
      ~header:[ "metric"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ]
      ~rows:hist_rows
  ^ "\n"
  ^ Table.render ~header:[ "counter"; "value" ] ~rows:counter_rows

let stall_diagnosis d =
  Format.asprintf
    "The simulator tripped its watchdog and aborted the collection.\n\
     The dump below is the complete machine state at the trip point;\n\
     start from the lock owners and the non-idle ports.\n\n%a"
    Coprocessor.pp_diagnosis d

let sanitizer_findings ~total findings =
  let buf = Buffer.create 1024 in
  let kept = List.length findings in
  Buffer.add_string buf
    (Printf.sprintf
       "The machine sanitizer flagged %d violation%s (%d kept after \
        deduplication).\n\
        Each line gives the cycle, the reporting core, the word address \
        involved\n\
        and the lockset the core held at the access.\n\n"
       total
       (if total = 1 then "" else "s")
       kept);
  List.iter
    (fun d ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (Hsgc_sanitizer.Diag.to_string d);
      Buffer.add_char buf '\n')
    findings;
  Buffer.contents buf
