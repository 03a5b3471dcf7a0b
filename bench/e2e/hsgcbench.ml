(* hsgcbench: the end-to-end, layer-attributed benchmark (README.md).

     hsgcbench --workload fig5-base --seed 42 --seconds 15 --trace 1
     hsgcbench                 all four workloads, one child process each
     hsgcbench --spec          print BENCHMARK.json
     hsgcbench --smoke         every workload at scale 0.05, one repeat

   Per workload: one warm-up repeat (for the sweeps, the user path
   Report.run_sweeps, whose rendering the timed pipeline must reproduce),
   then untraced repeats, each after Gc.compact, until --seconds have
   passed, timed in CPU time rescaled to the reference host (Calib), then
   with --trace 1 one traced run. The last stdout line is
   the result record; the line before it is the detail record with the
   host descriptor and every metric. *)

module P = Pipelines

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;
  repeats : int option;
  commit : string;
}

let min_repeats = 3
let max_repeats = 25

(* Each catalog workload's pipeline, and for the sweeps the kind of
   Report.run_sweeps output its rendering must equal. *)
let pipeline = function
  | "fig5-base" -> (P.sweep P.Fig5, Some P.Fig5)
  | "fig6-latency" -> (P.sweep P.Fig6, Some P.Fig6)
  | "banked-16c" -> (P.banked, None)
  | "long-run-observed" -> (P.long_run, None)
  | name -> invalid_arg ("hsgcbench: no pipeline for " ^ name)

let workload_names = List.map fst Catalog.workloads

(* --- statistics ------------------------------------------------------ *)

(* Quartiles as Python's statistics.quantiles(values, n=4) computes
   them (the default "exclusive" method). *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* --- host ------------------------------------------------------------ *)

let proc_status key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> find ())
    in
    let r = find () in
    close_in ic;
    r

(* Peak resident set (VmHWM) in MB; the OCaml heap high-water mark
   where /proc is unavailable. *)
let peak_rss_mb () =
  match proc_status "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> ( try fi (int_of_string kb) /. 1024.0 with Failure _ -> 0.0)
    | [] -> 0.0)
  | None ->
    fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* CPUs this process may run on, from a list like "0-1,4". *)
let nproc () =
  let count list =
    List.fold_left
      (fun acc range ->
        match String.split_on_char '-' (String.trim range) with
        | [ a ] when a <> "" -> acc + (ignore (int_of_string a); 1)
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | _ -> acc)
      0
      (String.split_on_char ',' list)
  in
  match proc_status "Cpus_allowed_list" with
  | Some l -> ( try count l with Failure _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let host_json commit =
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domains\": %d, \"ocaml\": %s, \
     \"word_size\": %d, \"commit\": %s}"
    (nproc ())
    (Domain.recommended_domain_count ())
    (Catalog.json_string Sys.ocaml_version)
    Sys.word_size
    (Catalog.json_string commit)

(* --- metrics --------------------------------------------------------- *)

let num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* One pipeline run. Untraced, [factor] rescales its CPU times to the
   reference host ([Calib]); samples are excluded from both times. *)
type rep = { tally : P.tally; wall_s : float; cpu_s : float; factor : float }

type result = {
  name : string;
  attempted : int;
  failed : int;
  values : (string, float) Hashtbl.t;
  e2e_spread : (string * (float * float * float * int)) list;
  layers : (string * float * int) list;  (** traced self time per layer *)
  host : string;
}

let set values name v =
  match Catalog.find name with
  | Some _ -> Hashtbl.replace values name v
  | None -> invalid_arg ("hsgcbench: metric not in the catalog: " ^ name)

let layer_metrics values (t : P.tally) ~wall ~untraced_wall ~lane_speedup
    ~obs_overhead =
  let set = set values in
  let s l = Probe.seconds l in
  let per_ns l n = ratio (s l *. 1e9) (fi n) in
  let steps = Probe.steps in
  set "objgraph.build_s" (s Objgraph);
  set "objgraph.ns_per_object" (per_ns Objgraph t.objects_built);
  set "heap.materialize_s" (s Materialize);
  set "heap.snapshot_s" (s Snapshot);
  set "heap.verify_s" (s Verify);
  set "heap.verify_ns_per_word" (per_ns Verify t.words_verified);
  set "coproc.start_s" (s Start);
  set "coproc.step_s" (s Step);
  set "coproc.finalize_s" (s Finalize);
  set "coproc.step_calls" (fi steps.step_calls);
  set "coproc.executed_cycles" (fi t.executed_cycles);
  set "coproc.skipped_frac" (ratio (fi t.skipped_cycles) (fi t.total_cycles));
  set "coproc.mcycles_per_s" (ratio (fi t.total_cycles) (s Step) /. 1e6);
  set "coproc.ns_per_exec_cycle" (per_ns Step t.executed_cycles);
  set "coproc.exec_mcycles_per_s.c1" (ratio (fi t.exec_c1 *. 1e3) (fi t.step_ns_c1));
  set "coproc.exec_mcycles_per_s.c16"
    (ratio (fi t.exec_c16 *. 1e3) (fi t.step_ns_c16));
  set "coproc.ns_per_exec_cycle.c1" (ratio (fi t.step_ns_c1) (fi t.exec_c1));
  set "coproc.ns_per_exec_cycle.c16" (ratio (fi t.step_ns_c16) (fi t.exec_c16));
  set "coproc.ff_calls" (fi steps.ff_calls);
  set "coproc.ff_time_frac" (ratio (fi steps.sampled_ff_ns) (fi steps.sampled_ns));
  set "coproc.minor_words_per_exec_cycle"
    (ratio steps.minor_words (fi t.executed_cycles));
  set "coproc.empty_worklist_frac" (ratio (fi t.empty_cycles) (fi t.total_cycles));
  set "memsim.loads" (fi t.mem_loads);
  set "memsim.stores" (fi t.mem_stores);
  set "memsim.rejected_bw_frac"
    (ratio (fi t.mem_rejected_bw) (fi (t.mem_loads + t.mem_stores + t.mem_rejected_bw)));
  set "memsim.fifo_overflows" (fi t.fifo_overflows);
  set "memsim.fifo_hit_frac" (ratio (fi t.fifo_hits) (fi (t.fifo_hits + t.fifo_misses)));
  set "hwsync.scan_lock_stall_frac" (ratio (fi t.scan_lock_stalls) (fi t.core_cycles));
  set "hwsync.header_lock_stall_frac"
    (ratio (fi t.header_lock_stalls) (fi t.core_cycles));
  set "banked.wall_frac" (ratio (s Banked) wall);
  set "banked.collect_s" (s Banked);
  set "banked.mcycles_per_s" (ratio (fi t.banked_cycles) (s Banked) /. 1e6);
  set "banked.ns_per_modeled_cycle" (per_ns Banked t.banked_cycles);
  set "banked.supersteps" (fi t.supersteps);
  set "banked.parked_frac" (ratio (fi t.parked_steps) (fi t.bank_slots));
  set "banked.arb_frac" (ratio (fi t.arb_cycles) (fi t.banked_cycles));
  set "banked.remote_per_object" (ratio (fi t.remote_requests) (fi t.banked_objects));
  set "banked.requeues" (fi t.requeues);
  set "banked.modeled_ratio" (ratio (fi t.banked_cycles) (fi t.dense_ref_cycles));
  set "banked.lane_speedup" lane_speedup;
  set "obs.overhead" obs_overhead;
  set "obs.events_kept" (fi t.events_kept);
  set "obs.dropped_frac"
    (ratio (fi t.events_dropped) (fi (t.events_kept + t.events_dropped)));
  set "checkpoint.saves" (fi t.saves);
  set "checkpoint.wall_frac" (ratio (s Save +. s Resume) wall);
  set "checkpoint.mb_per_save" (ratio (fi t.disk_bytes /. 1e6) (fi t.saves));
  set "checkpoint.save_s" (s Save);
  set "checkpoint.save_mb_per_s" (ratio (fi t.disk_bytes /. 1e6) (s Save));
  set "checkpoint.resume_s" (s Resume);
  set "checkpoint.resume_mb_per_s" (ratio (fi t.resume_bytes /. 1e6) (s Resume));
  set "report.render_s" (s Report);
  set "bench.traced_wall_s" wall;
  set "bench.trace_overhead" (ratio wall untraced_wall -. 1.0);
  set "bench.unattributed_frac" (ratio (wall -. Probe.total_seconds ()) wall)

(* --- one workload ----------------------------------------------------- *)

let run_workload opts name =
  let pipeline, reference_kind = pipeline name in
  let scale = opts.scale and seed = opts.seed in
  let tmp = Filename.concat (Sys.getcwd ()) (Printf.sprintf ".hsgcbench-tmp-%d" (Unix.getpid ())) in
  P.rm_rf tmp;
  Sys.mkdir tmp 0o755;
  let attempted = ref 0 and failed = ref 0 in
  let account (t : P.tally) =
    attempted := !attempted + t.attempted;
    failed := !failed + t.failed
  in
  let side = P.tally () in
  let reference =
    match reference_kind with
    | None -> None
    | Some kind ->
      P.guard side "reference sweep (Report.run_sweeps)" (fun () ->
          P.sweep_reference kind ~scale ~seed)
  in
  let run_once ~traced =
    let t = P.tally () in
    let dir = Filename.concat tmp "ckpt" in
    Sys.mkdir dir 0o755;
    Probe.reset ();
    Probe.reset_steps ();
    Probe.on := traced;
    if not traced then Calib.start ();
    Fun.protect
      ~finally:(fun () ->
        Probe.on := false;
        Calib.stop ();
        P.rm_rf dir)
      (fun () ->
        let (), wall_ns, cpu_ns = Calib.timed (fun () -> pipeline t ~scale ~seed ~dir) in
        (match reference_kind with
        | None -> ()
        | Some _ ->
          P.check t "rendered artifact equals Report.run_sweeps"
            (reference = Some t.artifact));
        account t;
        {
          tally = t;
          wall_s = fi wall_ns *. 1e-9;
          cpu_s = fi cpu_ns *. 1e-9;
          factor = Calib.factor ();
        })
  in
  Fun.protect
    ~finally:(fun () -> P.rm_rf tmp)
    (fun () ->
      (* Warm-up: the user path for the sweeps, one repeat otherwise. *)
      if reference_kind = None then
        ignore (run_once ~traced:false);
      let reps = ref [] in
      let t_start = Probe.now_ns () in
      let more () =
        let n = List.length !reps in
        match opts.repeats with
        | Some r -> n < r
        | None ->
          n < min_repeats
          || (n < max_repeats && Probe.seconds_since t_start < opts.seconds)
      in
      (* Peak RSS after the warm-up and the first repeat: a fixed amount
         of work, so the figure does not grow with the repeat count. *)
      let rss = ref 0.0 in
      while more () do
        Gc.compact ();
        reps := run_once ~traced:false :: !reps;
        if List.length !reps = 1 then rss := peak_rss_mb ()
      done;
      let reps = List.rev !reps in
      let last = (List.nth reps (List.length reps - 1)).tally in
      List.iter
        (fun r ->
          P.check side "simulated cycles repeat exactly"
            (r.tally.sim_cycles = last.sim_cycles))
        reps;
      let values = Hashtbl.create 64 in
      let of_reps f = List.map f reps in
      let walls = of_reps (fun r -> r.wall_s) in
      let raw_cpus = of_reps (fun r -> r.cpu_s) in
      let raw_setups = of_reps (fun r -> fi r.tally.setup_ns *. 1e-9) in
      let factors = of_reps (fun r -> r.factor) in
      let cpus = List.map2 ( *. ) raw_cpus factors in
      let setups = List.map2 ( *. ) raw_setups factors in
      let spread v =
        let q1, m, q3 = quartiles v in
        (q1, m, q3, List.length v)
      in
      set values "cpu_s" (median cpus);
      set values "setup_s" (median setups);
      set values "wall_s" (median walls);
      set values "raw_cpu_s" (median raw_cpus);
      set values "raw_setup_s" (median raw_setups);
      set values "host_speed" (median factors);
      set values "peak_rss_mb" !rss;
      set values "sim_cycles" (fi last.sim_cycles);
      set values "disk_mb" (fi last.disk_bytes /. 1e6);
      Option.iter (set values "paper_err_pp") last.paper_err_pp;
      let layers =
        if not opts.trace then []
        else begin
          Gc.compact ();
          let traced = run_once ~traced:true in
          let layers =
            List.map (fun l -> (Probe.name l, Probe.seconds l, Probe.count l)) Probe.all
          in
          let lane_speedup =
            if name = "banked-16c" then P.banked_lane_speedup side ~scale ~seed else 0.0
          in
          let obs_overhead =
            if name = "long-run-observed" then P.obs_overhead ~scale ~seed else 0.0
          in
          layer_metrics values traced.tally ~wall:traced.wall_s
            ~untraced_wall:(median walls) ~lane_speedup
            ~obs_overhead;
          layers
        end
      in
      account side;
      set values "failed_frac" (ratio (fi !failed) (fi !attempted));
      {
        name;
        attempted = !attempted;
        failed = !failed;
        values;
        e2e_spread =
          [
            ("cpu_s", spread cpus);
            ("setup_s", spread setups);
            ("wall_s", spread walls);
            ("host_speed", spread factors);
          ];
        layers;
        host = host_json opts.commit;
      })

(* --- output ----------------------------------------------------------- *)

let metric_json values (m : Catalog.metric) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Catalog.json_string m.name)
    (match Hashtbl.find_opt values m.name with Some v -> num v | None -> "null")
    (Catalog.json_string m.unit_)

let missing values select =
  List.filter
    (fun (m : Catalog.metric) ->
      select m
      && match Hashtbl.find_opt values m.name with
         | Some v -> not (Float.is_finite v)
         | None -> true)
    Catalog.metrics

let print_layers r =
  if r.layers <> [] then begin
    let wall = Hashtbl.find r.values "bench.traced_wall_s" in
    let rows =
      List.map
        (fun (name, s, calls) ->
          [ name; Printf.sprintf "%.4f" s; Hsgc_util.Table.pct (ratio s wall); string_of_int calls ])
        r.layers
      @ [
          (let frac = Hashtbl.find r.values "bench.unattributed_frac" in
           [
             "unattributed";
             Printf.sprintf "%.4f" (wall *. frac);
             Hsgc_util.Table.pct frac;
             "";
           ]);
          [ "traced wall"; Printf.sprintf "%.4f" wall; "100.00 %"; "" ];
        ]
    in
    Printf.printf "%s: host time by layer (traced run)\n%s\n" r.name
      (Hsgc_util.Table.render ~header:[ "layer"; "self s"; "share"; "calls" ] ~rows)
  end

let print_result ~trace r =
  print_layers r;
  let select = if trace then Catalog.is_layer else Catalog.is_e2e in
  let miss = missing r.values select in
  List.iter
    (fun (m : Catalog.metric) -> Printf.eprintf "hsgcbench: metric %s missing\n" m.name)
    miss;
  let spreads =
    String.concat ", "
      (List.map
         (fun (n, (q1, m, q3, k)) ->
           Printf.sprintf "%s: {\"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d}"
             (Catalog.json_string n) (num m) (num q1) (num q3) k)
         r.e2e_spread)
  in
  let all =
    List.filter (fun (m : Catalog.metric) -> Hashtbl.mem r.values m.name) Catalog.metrics
  in
  Printf.printf
    "{\"detail\": {\"workload\": %s, \"host\": %s, \"spread\": {%s}, \"metrics\": {%s}}}\n"
    (Catalog.json_string r.name) r.host spreads
    (String.concat ", " (List.map (metric_json r.values) all));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0 && miss = [])
    r.attempted r.failed
    (String.concat ", "
       (List.map (metric_json r.values) (List.filter select Catalog.metrics)))

(* --- modes ------------------------------------------------------------ *)

let run_all opts =
  let self = Sys.executable_name in
  let ok =
    List.fold_left
      (fun ok name ->
        let args =
          [
            self; "--workload"; name; "--seed"; string_of_int opts.seed;
            "--seconds"; Printf.sprintf "%g" opts.seconds; "--trace";
            (if opts.trace then "1" else "0"); "--commit"; opts.commit;
          ]
        in
        let pid =
          Unix.create_process self (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> ok | _ -> false)
      true workload_names
  in
  if ok then 0 else 1

(* Every workload at a small scale, one repeat, traced: every metric of
   BENCHMARK.json is emitted with its unit, nothing fails, and the layer
   spans account for the traced wall. *)
let smoke opts =
  let opts = { opts with scale = 0.05; repeats = Some 1; trace = true } in
  let ok =
    List.for_all
      (fun name ->
        let r = run_workload opts name in
        let miss =
          missing r.values (fun m -> Catalog.is_e2e m || Catalog.is_layer m)
        in
        let unattributed = Hashtbl.find r.values "bench.unattributed_frac" in
        let ok = r.failed = 0 && miss = [] && unattributed <= 0.05 in
        Printf.printf "smoke %-18s attempted %d failed %d missing %d unattributed %.4f %s\n%!"
          name r.attempted r.failed (List.length miss) unattributed
          (if ok then "ok" else "FAIL");
        ok)
      workload_names
  in
  if ok then 0 else 1

let () =
  let workload = ref None
  and seed = ref 42
  and seconds = ref (float_of_int Catalog.run_seconds)
  and trace = ref 0
  and commit = ref "unknown"
  and mode = ref `Run in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> workload := if w = "all" then None else Some w),
        "NAME  one of the four workloads, or all (default)" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  time spent on untraced repeats");
      ("--trace", Arg.Set_int trace, "0|1  print per-layer (1) or end-to-end (0) metrics");
      ("--commit", Arg.Set_string commit, "SHA  recorded in the host descriptor");
      ("--spec", Arg.Unit (fun () -> mode := `Spec), "  print BENCHMARK.json");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), "  quick self-check of every workload");
    ]
  in
  let usage = "hsgcbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "hsgcbench: --trace takes 0 or 1";
    exit 2
  end;
  (match !workload with
  | Some w when not (List.mem w workload_names) ->
    Printf.eprintf "hsgcbench: unknown workload %s (one of: %s)\n" w
      (String.concat ", " workload_names);
    exit 2
  | _ -> ());
  let opts =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      scale = 1.0;
      repeats = None;
      commit = !commit;
    }
  in
  exit
    (match !mode with
    | `Spec ->
      print_string (Catalog.spec ());
      0
    | `Smoke -> smoke opts
    | `Run -> (
      match opts.workload with
      | None -> run_all opts
      | Some name ->
        print_result ~trace:opts.trace (run_workload opts name);
        0))
