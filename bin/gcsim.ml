(* gcsim — drive the GC-coprocessor simulator from the command line.

   Subcommands:
     gcsim list                         — available workloads
     gcsim run -w db -n 8               — one collection, full statistics
     gcsim sweep -w db                  — core-count sweep with speedups
     gcsim cycles -w db -n 8 -g 3       — repeated GC cycles with mutator churn
*)

module Workloads = Hsgc_objgraph.Workloads
module Mutator = Hsgc_objgraph.Mutator
module Coprocessor = Hsgc_coproc.Coprocessor
module Bsp = Hsgc_coproc.Bsp
module Banked = Hsgc_coproc.Banked
module Partition = Hsgc_sim.Partition
module Domain_pool = Hsgc_sim.Domain_pool
module Counters = Hsgc_coproc.Counters
module Trace = Hsgc_coproc.Trace
module Concurrent = Hsgc_coproc.Concurrent
module Memsys = Hsgc_memsim.Memsys
module Tracer = Hsgc_obs.Tracer
module Profiler = Hsgc_obs.Profiler
module Perfetto = Hsgc_obs.Perfetto
module Experiment = Hsgc_core.Experiment
module Chaos = Hsgc_core.Chaos
module Perf = Hsgc_core.Perf
module Report = Hsgc_core.Report
module Resume = Hsgc_core.Resume
module Checkpoint = Hsgc_checkpoint.Checkpoint
module Verify = Hsgc_heap.Verify
module Table = Hsgc_util.Table
module Rng = Hsgc_util.Rng
open Cmdliner

(* Distinct exit codes so scripts can tell a wrong answer from a hung
   machine: 3 = verification failure, 4 = watchdog stall diagnosis,
   5 = machine-sanitizer violation, 6 = corrupt or incompatible
   snapshot on --resume-from. *)
let exit_verify_failed = 3
let exit_stalled = 4
let exit_sanitizer = 5
let exit_snapshot = 6

let sanitize_conv =
  Arg.conv
    ( (fun s ->
        match Hsgc_sanitizer.Sanitizer.mode_of_string s with
        | Some m -> Ok m
        | None ->
          Error (`Msg (Printf.sprintf "bad sanitize mode %S (check|strict)" s))),
      fun ppf m ->
        Format.pp_print_string ppf (Hsgc_sanitizer.Sanitizer.mode_to_string m) )

let sanitize_arg =
  Arg.(
    value
    & opt ~vopt:Hsgc_sanitizer.Sanitizer.Check sanitize_conv
        Hsgc_sanitizer.Sanitizer.Off
    & info [ "sanitize" ] ~docv:"MODE"
        ~doc:
          "Attach the machine sanitizer (lockset race detection and protocol \
           linting over every simulated shared-memory access). Bare \
           $(b,--sanitize) records findings and exits with code 5 if any; \
           $(b,--sanitize=strict) aborts at the first violation.")

(* Integer argument converters that reject values Memsys.validate_config
   would refuse, so the user gets a clean usage error instead of an
   Invalid_argument backtrace from deep inside the simulator. *)
let bounded_int_conv ~min name =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | None -> Error (`Msg (Printf.sprintf "%s must be an integer, got %S" name s))
        | Some n when n < min ->
          Error (`Msg (Printf.sprintf "%s must be >= %d (got %d)" name min n))
        | Some n -> Ok n),
      Format.pp_print_int )

let positive_conv name = bounded_int_conv ~min:1 name
let nonneg_conv name = bounded_int_conv ~min:0 name

let workload_conv =
  Arg.conv
    ( (fun s ->
        match Workloads.find s with
        | Some w -> Ok w
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown workload %S (try `gcsim list')" s))),
      fun ppf w -> Format.pp_print_string ppf w.Workloads.name )

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to collect.")

(* [run] alone can omit the workload: a snapshot given to --resume-from
   records it. The requirement is re-imposed in code for every other
   path. *)
let workload_opt_arg =
  Arg.(
    value
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:
          "Workload to collect (optional with $(b,--resume-from): the \
           snapshot records it).")

let cores_arg =
  Arg.(value & opt int 8 & info [ "n"; "cores" ] ~doc:"Number of GC cores.")

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Workload size multiplier.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload random seed.")

let latency_arg =
  Arg.(
    value
    & opt (nonneg_conv "extra latency") 0
    & info [ "extra-latency" ]
        ~doc:"Extra cycles added to every memory access (paper Fig. 6 uses 20).")

let fifo_arg =
  Arg.(
    value
    & opt (positive_conv "FIFO capacity") Memsys.default_config.Memsys.fifo_capacity
    & info [ "fifo" ] ~doc:"Header FIFO capacity in entries.")

let bandwidth_arg =
  Arg.(
    value
    & opt (positive_conv "bandwidth") Memsys.default_config.Memsys.bandwidth
    & info [ "bandwidth" ] ~doc:"Memory transactions accepted per cycle.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ] ~doc:"Check heap invariants after each collection.")

let scan_unit_arg =
  Arg.(
    value & opt int 0
    & info [ "scan-unit" ]
        ~doc:
          "Sub-object work distribution (paper Section VII): hand out \
           objects bigger than N body words in N-word pieces. 0 disables.")

let header_cache_arg =
  Arg.(
    value
    & opt (nonneg_conv "header cache size") 0
    & info [ "header-cache" ]
        ~doc:
          "On-chip header cache entries (paper Section VII). 0 disables.")

let mem_config extra_latency fifo bandwidth header_cache =
  let c =
    {
      Memsys.default_config with
      Memsys.fifo_capacity = fifo;
      bandwidth;
      header_cache_entries = header_cache;
    }
  in
  let c = Memsys.with_extra_latency c extra_latency in
  (match Memsys.validate_config c with
  | Ok () -> ()
  | Error msg ->
    (* Arg converters above should make this unreachable; belt and braces
       for combinations (e.g. a future latency formula going negative). *)
    Format.eprintf "gcsim: invalid memory configuration: %s@." msg;
    exit 2);
  c

let scan_unit_opt n = if n <= 0 then None else Some n

let no_skip_arg =
  Arg.(
    value & flag
    & info [ "no-skip" ]
        ~doc:
          "Force naive cycle-by-cycle stepping: disables both idle-cycle \
           skipping and event-driven core sleeps. The parity contract is \
           that every statistic and artifact is bit-identical either way \
           (only wall time changes); use this flag to check it on any \
           configuration. Documented alias for $(b,--engine naive).")

(* The three stepping engines (docs/PERFORMANCE.md). [--no-skip]
   predates [--engine] and is kept as a documented alias; contradictions
   exit 2. *)
type engine = Naive | Skip | Compiled

let engine_arg =
  Arg.(
    value
    & opt (some (enum [ ("naive", Naive); ("skip", Skip); ("compiled", Compiled) ]))
        None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Stepping engine: $(b,naive) polls every core every cycle (the \
           parity reference); $(b,skip) (the default) adds event-driven \
           core sleeps and idle-cycle skipping; $(b,compiled) further \
           retires already-determined memory transactions in batches in \
           the plain configuration. All \
           three produce bit-identical statistics, verify results and \
           counters — only wall time and the executed/skipped split \
           differ. $(b,--no-skip) is the documented alias for \
           $(b,--engine naive). With $(b,--profile) the compiled engine \
           runs its general paths (same results, no batching). \
           $(b,--engine compiled) rejects $(b,--sanitize), \
           $(b,--par-domains) and $(b,--scan-unit) (exit code 2).")

let resolve_engine ~engine ~no_skip ~sanitize ~par_domains ~scan_unit =
  let reject what =
    Format.eprintf "gcsim run: %s@." what;
    exit 2
  in
  match engine with
  | None -> if no_skip then Naive else Skip
  | Some Naive -> Naive
  | Some Skip ->
    if no_skip then reject "--engine skip contradicts --no-skip";
    Skip
  | Some Compiled ->
    if no_skip then reject "--engine compiled contradicts --no-skip";
    if sanitize <> Hsgc_sanitizer.Sanitizer.Off then
      reject "--engine compiled is incompatible with --sanitize (the \
              compiled engine resolves the sanitizer hooks away at \
              instantiation; use --engine skip or naive)";
    if par_domains <> None then
      reject "--engine compiled is incompatible with --par-domains (the \
              compiled engine steps the machine on one domain; use \
              --engine skip for the BSP parallel kernel)";
    if scan_unit > 0 then
      reject "--engine compiled is incompatible with --scan-unit \
              (sub-object scanning uses the general engine)";
    Compiled

let jobs_arg =
  Arg.(
    value
    & opt (nonneg_conv "jobs") 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run sweep points on up to $(docv) domains in parallel; 0 (the \
           default) means auto — the runtime's recommended domain count, \
           clamped to the number of points. Output is identical at any \
           value.")

let print_stats (stats : Coprocessor.gc_stats) =
  let total = stats.Coprocessor.total_cycles in
  Printf.printf "total cycles        %d\n" total;
  Printf.printf "kernel              executed=%d skipped=%d (%s of total)\n"
    stats.Coprocessor.executed_cycles stats.Coprocessor.skipped_cycles
    (Table.pct
       (float_of_int stats.Coprocessor.skipped_cycles /. float_of_int total));
  if stats.Coprocessor.wall_seconds > 0.0 then
    Printf.printf "kernel throughput   %.2f Mcycles/s (%.4f s wall)\n"
      (float_of_int total /. stats.Coprocessor.wall_seconds /. 1e6)
      stats.Coprocessor.wall_seconds;
  Printf.printf "root phase cycles   %d\n" stats.Coprocessor.root_cycles;
  Printf.printf "worklist empty      %s\n"
    (Table.pct
       (float_of_int stats.Coprocessor.empty_worklist_cycles /. float_of_int total));
  Printf.printf "live objects        %d\n" stats.Coprocessor.live_objects;
  Printf.printf "live words          %d\n" stats.Coprocessor.live_words;
  Printf.printf "header FIFO         hits=%d misses=%d overflows=%d\n"
    stats.Coprocessor.fifo_hits stats.Coprocessor.fifo_misses
    stats.Coprocessor.fifo_overflows;
  if stats.Coprocessor.header_cache_hits + stats.Coprocessor.header_cache_misses > 0
  then
    Printf.printf "header cache        hits=%d misses=%d\n"
      stats.Coprocessor.header_cache_hits stats.Coprocessor.header_cache_misses;
  Printf.printf "memory              loads=%d stores=%d bw-rejects=%d order-holds=%d\n"
    stats.Coprocessor.mem_loads stats.Coprocessor.mem_stores
    stats.Coprocessor.mem_rejected_bandwidth stats.Coprocessor.mem_rejected_order;
  let mean = Coprocessor.stalls_mean_per_core stats in
  print_endline "stalls (mean per core):";
  List.iter
    (fun s ->
      Printf.printf "  %-20s %s\n" (Counters.stall_name s)
        (Table.count_with_pct ~total (Counters.get mean s)))
    Counters.all_stalls

let list_cmd =
  let run () =
    List.iter
      (fun w -> Printf.printf "%-9s %s\n" w.Workloads.name w.Workloads.description)
      Workloads.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"list available workloads") Term.(const run $ const ())

let cycle_budget_arg =
  Arg.(
    value
    & opt (some (positive_conv "cycle budget")) None
    & info [ "cycle-budget" ] ~docv:"CYCLES"
        ~doc:
          "Abort with a full machine dump (exit code 4) if the collection \
           has not finished after $(docv) simulated cycles.")

(* Crash-safe run path: --checkpoint-every/--checkpoint-dir/--resume-from
   route the collection through the Resume driver, which steps the same
   machine with every step horizon-capped at the next checkpoint
   boundary (snapshots land exactly on multiples of the period) and can
   rebuild a machine from any snapshot. SIGINT/SIGTERM write a final
   checkpoint and exit 130/143; a corrupt or incompatible snapshot on
   resume exits with [exit_snapshot]. *)
let require_workload = function
  | Some w -> w
  | None ->
    Format.eprintf
      "gcsim run: required option --workload is missing (only --resume-from \
       can omit it: the snapshot records the workload)@.";
    exit 2

let run_with_checkpoints ~workload ~n_cores ~scale ~seed ~mem ~scan_unit
    ~verify ~engine ~cycle_budget ~profile ~par_domains ~span_timeout
    ~ckpt_every ~ckpt_dir ~resume_from =
  (match (ckpt_every, ckpt_dir) with
  | Some _, None ->
    Format.eprintf "gcsim run: --checkpoint-every needs --checkpoint-dir@.";
    exit 2
  | None, Some _ ->
    Format.eprintf "gcsim run: --checkpoint-dir needs --checkpoint-every@.";
    exit 2
  | _ -> ());
  (match ckpt_dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | _ -> ());
  let resumed =
    match resume_from with
    | None -> None
    | Some path -> (
      match Resume.resume ~path () with
      | r -> Some r
      | exception Checkpoint.Corrupt msg ->
        Format.eprintf "gcsim run: cannot resume from %s: %s@." path msg;
        exit exit_snapshot)
  in
  let sim, cfg, meta, heap, pre, prof =
    match resumed with
    | Some r ->
      Printf.printf "resumed workload %s at cycle %d from %s\n"
        r.Resume.meta.Resume.workload
        (Coprocessor.now r.Resume.sim)
        (Option.get resume_from);
      (r.Resume.sim, r.Resume.cfg, r.Resume.meta, r.Resume.heap, r.Resume.pre,
       r.Resume.prof)
    | None ->
      let workload = require_workload workload in
      let heap = Workloads.build_heap ~scale ~seed workload in
      let pre = Verify.snapshot heap in
      let prof =
        if profile then begin
          let p = Profiler.create ~n_cores () in
          Profiler.enable p;
          Some p
        end
        else None
      in
      let cfg =
        Coprocessor.config ~mem
          ?scan_unit:(scan_unit_opt scan_unit)
          ?cycle_budget ~skip:(engine <> Naive)
          ~compiled:(engine = Compiled) ~n_cores ()
      in
      let meta =
        {
          Resume.workload = workload.Workloads.name;
          scale;
          seed;
          partitions = 1;
          obs_on = false;
          obs_capacity = 0;
          obs_interval = 0;
          prof_on = profile;
        }
      in
      (Coprocessor.start ?prof cfg heap, cfg, meta, heap, pre, prof)
  in
  let eff_cores = cfg.Coprocessor.n_cores in
  (match par_domains with
  | None -> ()
  | Some p -> (
    match Partition.validate ~n_cores:eff_cores ~n_partitions:p with
    | Ok () -> ()
    | Error msg ->
      Format.eprintf "gcsim run: --par-domains: %s@." msg;
      exit 2));
  let partitions =
    (* The compiled engine steps the machine on one domain (its batched
       segments subsume the BSP exclusive spans); naive stepping keeps
       every core due every cycle, degenerating BSP to leader-only. *)
    if (not cfg.Coprocessor.skip) || cfg.Coprocessor.compiled then 1
    else
      match par_domains with
      | Some p -> p
      | None -> (
        match resumed with
        | Some r -> r.Resume.meta.Resume.partitions
        | None -> 1)
  in
  let meta = { meta with Resume.partitions } in
  (* A signal ends the run at the next cycle boundary with a final
     checkpoint, then exits with the conventional 128+signal code. *)
  let stop_signal = ref None in
  let install s =
    try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop_signal := Some s))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  install Sys.sigint;
  install Sys.sigterm;
  match
    Resume.drive ?every:ckpt_every ?dir:ckpt_dir
      ~should_stop:(fun () -> !stop_signal <> None)
      ?span_timeout_s:span_timeout ~partitions ~meta sim
  with
  | exception Coprocessor.Stall_diagnosis d ->
    prerr_endline (Report.stall_diagnosis d);
    (match ckpt_dir with
    | Some dir ->
      Format.eprintf "post-mortem snapshot written to %s@."
        (Filename.concat dir Resume.postmortem_name)
    | None -> ());
    exit_stalled
  | Resume.Stopped { at_cycle; checkpoint } ->
    let terminated = !stop_signal = Some Sys.sigterm in
    Format.eprintf "gcsim run: %s at cycle %d%s@."
      (if terminated then "terminated" else "interrupted")
      at_cycle
      (match checkpoint with
      | Some p -> Printf.sprintf "; checkpoint written to %s" p
      | None -> "");
    if terminated then 143 else 130
  | Resume.Finished (stats, bsp) -> (
    Printf.printf "workload %s, %d cores\n" meta.Resume.workload eff_cores;
    print_stats stats;
    (match bsp with
    | None -> ()
    | Some b ->
      Printf.printf "parallel kernel     %d partitions: %s\n" partitions
        (Format.asprintf "%a" Bsp.pp_stats b);
      (match b.Bsp.degraded with
      | Some reason ->
        Format.eprintf
          "gcsim run: warning: parallel kernel degraded to leader-only \
           stepping: %s@."
          reason
      | None -> ()));
    (match prof with
    | None -> ()
    | Some p ->
      print_newline ();
      print_string (Report.profile_table ~total:stats.Coprocessor.total_cycles p));
    if not verify then 0
    else
      match Verify.check_collection ~pre heap with
      | Ok () ->
        print_endline "verification        OK (graph isomorphic, compacted)";
        0
      | Error f ->
        Format.eprintf "verification FAILED: %a@." Verify.pp_failure f;
        exit_verify_failed)

(* The banked machine is its own run path: every non-default engine or
   observation mode is either meaningless for it (BSP span supervision,
   checkpoints of per-bank machines) or has no banked variant (the
   compiled engine, sub-object scanning, the profiler) — reject them
   up front with a usage error rather than silently ignoring them. *)
let run_banked ~workload ~n_cores ~scale ~seed ~mem ~scan_unit ~verify ~engine
    ~no_skip ~cycle_budget ~sanitize ~profile ~par_domains ~span_timeout
    ~ckpt_every ~ckpt_dir ~resume_from ~bank_quantum =
  let reject msg =
    Format.eprintf "gcsim run: %s@." msg;
    exit 2
  in
  if engine <> None && engine <> Some Skip then
    reject "--banked uses the event-driven engine (only --engine skip is valid)";
  if no_skip then reject "--banked is incompatible with --no-skip";
  if profile then
    reject "--banked is incompatible with --profile (no banked profiler)";
  if scan_unit_opt scan_unit <> None then
    reject "--banked is incompatible with --scan-unit";
  if span_timeout <> None then
    reject "--banked is incompatible with --span-timeout (no BSP spans)";
  if ckpt_every <> None || ckpt_dir <> None || resume_from <> None then
    reject
      "--banked is incompatible with checkpointing (per-bank machines are \
       not snapshottable)";
  let banks =
    match par_domains with
    | Some p -> (
      match Partition.validate_banked ~n_cores ~n_partitions:p with
      | Ok () -> p
      | Error msg -> reject ("--par-domains: " ^ msg))
    | None -> Partition.default_banked_partitions ~n_cores
  in
  let workload = require_workload workload in
  let heap = Workloads.build_heap ~scale ~seed workload in
  let pre = if verify then Some (Verify.snapshot heap) else None in
  let cfg = Coprocessor.config ~mem ?cycle_budget ~sanitize ~n_cores () in
  match Banked.collect ?quantum:bank_quantum ~banks cfg heap with
  | exception Coprocessor.Stall_diagnosis d ->
    prerr_endline (Report.stall_diagnosis d);
    exit_stalled
  | exception Hsgc_sanitizer.Diag.Violation d ->
    Format.eprintf "sanitizer VIOLATION: %s@." (Hsgc_sanitizer.Diag.to_string d);
    exit_sanitizer
  | stats, bstats ->
    Printf.printf "workload %s, %d cores (banked)\n" workload.Workloads.name
      n_cores;
    print_stats stats;
    Format.printf "%a@." Banked.pp_stats bstats;
    if sanitize <> Hsgc_sanitizer.Sanitizer.Off then
      if stats.Coprocessor.sanitizer_findings = [] then
        print_endline "sanitizer           OK (no findings)"
      else
        prerr_endline
          (Report.sanitizer_findings ~total:stats.Coprocessor.sanitizer_total
             stats.Coprocessor.sanitizer_findings);
    if stats.Coprocessor.sanitizer_findings <> [] then exit_sanitizer
    else
      match pre with
      | None -> 0
      | Some pre -> (
        match Verify.check_collection ~pre heap with
        | Ok () ->
          print_endline "verification        OK (graph isomorphic, compacted)";
          0
        | Error f ->
          Format.eprintf "verification FAILED: %a@." Verify.pp_failure f;
          exit_verify_failed)

let run_cmd =
  let run workload n_cores scale seed extra_latency fifo bandwidth header_cache
      scan_unit verify engine no_skip cycle_budget sanitize profile par_domains
      span_timeout ckpt_every ckpt_dir resume_from banked bank_quantum =
    let mem = mem_config extra_latency fifo bandwidth header_cache in
    if banked then
      run_banked ~workload ~n_cores ~scale ~seed ~mem ~scan_unit ~verify
        ~engine ~no_skip ~cycle_budget ~sanitize ~profile ~par_domains
        ~span_timeout ~ckpt_every ~ckpt_dir ~resume_from ~bank_quantum
    else begin
    if bank_quantum <> None then begin
      Format.eprintf "gcsim run: --bank-quantum needs --banked@.";
      exit 2
    end;
    let engine =
      resolve_engine ~engine ~no_skip ~sanitize ~par_domains ~scan_unit
    in
    if ckpt_every <> None || ckpt_dir <> None || resume_from <> None then begin
      if sanitize <> Hsgc_sanitizer.Sanitizer.Off then begin
        Format.eprintf
          "gcsim run: checkpointing is incompatible with --sanitize (the \
           sanitizer's interned state is process-local)@.";
        exit 2
      end;
      run_with_checkpoints ~workload ~n_cores ~scale ~seed ~mem ~scan_unit
        ~verify ~engine ~cycle_budget ~profile ~par_domains ~span_timeout
        ~ckpt_every ~ckpt_dir ~resume_from
    end
    else
    let workload = require_workload workload in
    let heap = Workloads.build_heap ~scale ~seed workload in
    let pre = if verify then Some (Verify.snapshot heap) else None in
    let prof =
      if profile then begin
        let p = Profiler.create ~n_cores () in
        Profiler.enable p;
        Some p
      end
      else None
    in
    let skip = engine <> Naive in
    (* An explicit --par-domains must be a valid partition count for
       this core count even when naive stepping then forces the
       single-partition schedule. *)
    (match par_domains with
    | None -> ()
    | Some p -> (
      match Partition.validate ~n_cores ~n_partitions:p with
      | Ok () -> ()
      | Error msg ->
        Format.eprintf "gcsim run: --par-domains: %s@." msg;
        exit 2));
    let partitions =
      (* Naive stepping keeps every core due every cycle, so the BSP
         schedule would degenerate to leader-only stepping anyway; the
         compiled engine's batched segments subsume the BSP exclusive
         spans. Both take the direct path. *)
      if engine <> Skip then 1
      else
        match par_domains with
        | Some p -> p
        | None -> 1
    in
    let cfg =
      Coprocessor.config ~mem
        ?scan_unit:(scan_unit_opt scan_unit)
        ?cycle_budget ~sanitize ~skip ~compiled:(engine = Compiled) ~n_cores ()
    in
    let bsp_stats = ref None in
    let collect_once () =
      if partitions <= 1 then Coprocessor.collect ?prof cfg heap
      else begin
        let stats, b =
          Bsp.collect_par ?prof ?span_timeout_s:span_timeout ~partitions cfg
            heap
        in
        bsp_stats := Some b;
        stats
      end
    in
    match collect_once () with
    | exception Coprocessor.Stall_diagnosis d ->
      prerr_endline (Report.stall_diagnosis d);
      exit_stalled
    | exception Hsgc_sanitizer.Diag.Violation d ->
      (* --sanitize=strict aborts the collection at the first finding. *)
      Format.eprintf "sanitizer VIOLATION: %s@." (Hsgc_sanitizer.Diag.to_string d);
      exit_sanitizer
    | stats -> (
      Printf.printf "workload %s, %d cores\n" workload.Workloads.name n_cores;
      print_stats stats;
      (match !bsp_stats with
      | None -> ()
      | Some b ->
        Printf.printf "parallel kernel     %d partitions: %s\n" partitions
          (Format.asprintf "%a" Bsp.pp_stats b);
        (match b.Bsp.degraded with
        | Some reason ->
          Format.eprintf
            "gcsim run: warning: parallel kernel degraded to leader-only \
             stepping: %s@."
            reason
        | None -> ()));
      (match prof with
      | None -> ()
      | Some p ->
        print_newline ();
        print_string
          (Report.profile_table ~total:stats.Coprocessor.total_cycles p));
      if sanitize <> Hsgc_sanitizer.Sanitizer.Off then
        if stats.Coprocessor.sanitizer_findings = [] then
          print_endline "sanitizer           OK (no findings)"
        else begin
          prerr_endline
            (Report.sanitizer_findings ~total:stats.Coprocessor.sanitizer_total
               stats.Coprocessor.sanitizer_findings)
        end;
      if stats.Coprocessor.sanitizer_findings <> [] then exit_sanitizer
      else
        match pre with
        | None -> 0
        | Some pre -> (
          match Verify.check_collection ~pre heap with
          | Ok () ->
            print_endline "verification        OK (graph isomorphic, compacted)";
            0
          | Error f ->
            Format.eprintf "verification FAILED: %a@." Verify.pp_failure f;
            exit_verify_failed))
    end
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach the stall-attribution profiler and print the per-core \
             cycle-accounting table: every simulated cycle of every core \
             lands in exactly one of busy / the seven stall categories / \
             idle, so each row sums to the total cycle count. Runs on any \
             engine; the table and every statistic are bit-identical on \
             all of them.")
  in
  let par_domains_arg =
    Arg.(
      value
      & opt (some (positive_conv "par-domains")) None
      & info [ "par-domains" ] ~docv:"N"
          ~doc:
            "Step the machine as $(docv) BSP partitions (one pool lane \
             each). The default is 1, the direct sequential path: the \
             dense kernel serializes every superstep and runs slower on \
             more domains than on one (docs/PARALLEL.md, section 4). \
             Every statistic, verify result and trace digest is \
             bit-identical at any value. Must be between 1 and the core \
             count. \
             Interaction: $(b,--no-skip) forces naive stepping, under \
             which every core is due every cycle and the BSP schedule \
             degenerates to leader-only stepping — gcsim takes the direct \
             sequential path there.")
  in
  let span_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "span-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Supervise parallel span dispatch: a worker lane that has not \
             finished its span after $(docv) seconds of wall clock is \
             abandoned (the lane is poisoned) and the run degrades to \
             leader-only stepping with a warning — still completing with \
             bit-identical results — instead of hanging the process.")
  in
  let ckpt_every_arg =
    Arg.(
      value
      & opt (some (positive_conv "checkpoint period")) None
      & info [ "checkpoint-every" ] ~docv:"CYCLES"
          ~doc:
            "Write a crash-safe snapshot of the complete machine state every \
             $(docv) simulated cycles (requires $(b,--checkpoint-dir)). \
             Snapshots are written atomically with per-section CRCs, land \
             exactly on multiples of the period, and perturb nothing but the \
             executed/skipped cycle split. SIGINT/SIGTERM write a final \
             checkpoint and exit 130/143; a watchdog stall leaves a \
             post-mortem snapshot next to the diagnosis. Incompatible with \
             $(b,--sanitize).")
  in
  let ckpt_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for $(b,--checkpoint-every) snapshots (created if \
             missing).")
  in
  let resume_from_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume-from" ] ~docv:"FILE"
          ~doc:
            "Resume a collection from a snapshot written by \
             $(b,--checkpoint-every) (or the watchdog post-mortem). The \
             machine configuration, workload, and instrumentation come from \
             the snapshot; a corrupt snapshot or one written by a different \
             build exits with code 6. Combine with the checkpoint flags to \
             keep checkpointing the resumed run.")
  in
  let banked_arg =
    Arg.(
      value & flag
      & info [ "banked" ]
          ~doc:
            "Run the banked variant machine instead of the paper's dense \
             machine: the cores are split into equal banks, each with a \
             private synchronization block over a home range of the heap \
             and a private memory-arbitration lane; banks step \
             concurrently on real domains and cross-bank pointers are \
             routed through a barrier-drained header-FIFO arbitration \
             step. Cycle counts are $(i,not) comparable to the dense \
             machine — collection semantics are (checked by the \
             differential harness; see docs/PARALLEL.md). \
             $(b,--par-domains) selects the bank count (default: auto; \
             must divide the core count, exit code 2 otherwise). \
             Incompatible with $(b,--engine naive/compiled), \
             $(b,--no-skip), $(b,--profile), $(b,--scan-unit), \
             $(b,--span-timeout) and checkpointing.")
  in
  let bank_quantum_arg =
    Arg.(
      value
      & opt (some (positive_conv "bank quantum")) None
      & info [ "bank-quantum" ] ~docv:"STEPS"
          ~doc:
            "Step calls each bank gets per superstep between arbitration \
             barriers (default 512). Any value yields the same final heap \
             and live-set statistics; only the arbitration interleave's \
             cycle accounting shifts. Needs $(b,--banked).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"run one collection and print full statistics")
    Term.(
      const run $ workload_opt_arg $ cores_arg $ scale_arg $ seed_arg
      $ latency_arg $ fifo_arg $ bandwidth_arg $ header_cache_arg
      $ scan_unit_arg $ verify_arg $ engine_arg $ no_skip_arg $ cycle_budget_arg
      $ sanitize_arg $ profile_arg $ par_domains_arg $ span_timeout_arg
      $ ckpt_every_arg $ ckpt_dir_arg $ resume_from_arg $ banked_arg
      $ bank_quantum_arg)

let sweep_cmd =
  let run workload scale seed extra_latency fifo bandwidth header_cache verify
      jobs =
    let mem = mem_config extra_latency fifo bandwidth header_cache in
    let points =
      Experiment.sweep ~verify ~scale ~seeds:[| seed |] ~mem ~jobs workload
    in
    let rows =
      List.map2
        (fun p (_, s) ->
          [
            string_of_int p.Experiment.n_cores;
            Printf.sprintf "%.0f" p.Experiment.cycles;
            Table.fixed 2 s;
            Table.pct p.Experiment.empty_frac;
          ])
        points (Experiment.speedups points)
    in
    Printf.printf "workload %s\n" workload.Workloads.name;
    Table.print ~header:[ "cores"; "cycles"; "speedup"; "worklist empty" ] ~rows;
    0
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"sweep core counts and report speedups")
    Term.(
      const run $ workload_arg $ scale_arg $ seed_arg $ latency_arg $ fifo_arg
      $ bandwidth_arg $ header_cache_arg $ verify_arg $ jobs_arg)

let cycles_cmd =
  let run workload n_cores scale seed gcs churn verify =
    let heap = Workloads.build_heap ~scale ~seed workload in
    let mut = Mutator.create heap (Rng.create (seed + 1)) in
    let cfg = Coprocessor.config ~n_cores () in
    let header = [ "gc"; "cycles"; "live objects"; "live words"; "allocated" ] in
    let rows = ref [] in
    for gc = 1 to gcs do
      (match Mutator.churn mut ~allocs:churn with `Ok | `Heap_full -> ());
      let pre = if verify then Some (Verify.snapshot heap) else None in
      let stats = Coprocessor.collect cfg heap in
      (match pre with
      | Some pre -> (
        match Verify.check_collection ~pre heap with
        | Ok () -> ()
        | Error f ->
          Format.eprintf "gc %d verification FAILED: %a@." gc Verify.pp_failure f;
          exit exit_verify_failed)
      | None -> ());
      rows :=
        [
          string_of_int gc;
          string_of_int stats.Coprocessor.total_cycles;
          string_of_int stats.Coprocessor.live_objects;
          string_of_int stats.Coprocessor.live_words;
          string_of_int (Mutator.allocated mut);
        ]
        :: !rows
    done;
    Printf.printf "workload %s, %d cores, %d GC cycles with mutator churn\n"
      workload.Workloads.name n_cores gcs;
    Table.print ~header ~rows:(List.rev !rows);
    0
  in
  let gcs_arg =
    Arg.(value & opt int 5 & info [ "g"; "gcs" ] ~doc:"Number of GC cycles.")
  in
  let churn_arg =
    Arg.(
      value & opt int 2000
      & info [ "churn" ] ~doc:"Objects the mutator allocates between GCs.")
  in
  Cmd.v
    (Cmd.info "cycles"
       ~doc:"run repeated collections with mutator churn in between")
    Term.(
      const run $ workload_arg $ cores_arg $ scale_arg $ seed_arg $ gcs_arg
      $ churn_arg $ verify_arg)

let trace_cmd =
  let run workload n_cores scale seed interval format out no_skip =
    let heap = Workloads.build_heap ~scale ~seed workload in
    (* Write the artifact to [out] when given, stdout otherwise; status
       lines go to stdout only in the file case so a stdout export stays
       a clean machine-readable stream. *)
    let emit ~what text =
      match out with
      | None -> print_string text
      | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.printf "%s written to %s\n" what path
    in
    (match format with
    | `Ascii | `Csv ->
      let trace = Trace.create ~interval () in
      let stats =
        Coprocessor.collect ~trace (Coprocessor.config ~n_cores ()) heap
      in
      (match format with
      | `Csv ->
        emit
          ~what:(Printf.sprintf "%d samples (CSV)" (Trace.length trace))
          (Trace.to_csv trace)
      | _ ->
        Printf.printf "workload %s, %d cores, %d cycles, %d live objects\n\n"
          workload.Workloads.name n_cores stats.Coprocessor.total_cycles
          stats.Coprocessor.live_objects;
        emit ~what:"timeline" (Trace.timeline trace))
    | `Perfetto ->
      let obs = Tracer.create ~interval ~n_cores () in
      Tracer.enable obs;
      let stats =
        Coprocessor.collect ~obs
          (Coprocessor.config ~skip:(not no_skip) ~n_cores ())
          heap
      in
      emit
        ~what:
          (Printf.sprintf
             "Chrome trace JSON (%d cycles, %d events, %d dropped, digest %s)"
             stats.Coprocessor.total_cycles (Tracer.length obs)
             (Tracer.dropped obs) (Tracer.digest obs))
        (Perfetto.to_string obs));
    0
  in
  let interval_arg =
    Arg.(
      value & opt int 16
      & info [ "interval" ]
          ~doc:
            "Cycles between samples (signal samples for ascii/csv, counter \
             samples for perfetto).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("ascii", `Ascii); ("csv", `Csv); ("perfetto", `Perfetto) ])
          `Ascii
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,ascii) — activity timeline; $(b,csv) — the \
             sampled signals; $(b,perfetto) — Chrome trace-event JSON of the \
             span tracer (per-core phase and stall tracks, kernel and FIFO \
             tracks, gray-backlog and FIFO-depth counters), loadable at \
             ui.perfetto.dev.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the export to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "collect once while sampling internal signals; print an activity \
          timeline, CSV samples, or a Perfetto trace (the paper's monitoring \
          framework)")
    Term.(
      const run $ workload_arg $ cores_arg $ scale_arg $ seed_arg $ interval_arg
      $ format_arg $ out_arg $ no_skip_arg)

let ablate_cmd =
  let run scale seed =
    (* FIFO capacity on cup: the overflow -> scan-lock-stall mechanism. *)
    print_endline
      "FIFO capacity ablation (cup, 16 cores): smaller FIFOs overflow more,\n\
       lengthening the scan-lock critical section.\n";
    let cup = Option.get (Workloads.find "cup") in
    let rows =
      List.map
        (fun fifo ->
          let mem = { Memsys.default_config with Memsys.fifo_capacity = fifo } in
          let heap = Workloads.build_heap ~scale ~seed cup in
          let s = Coprocessor.collect (Coprocessor.config ~mem ~n_cores:16 ()) heap in
          let mean = Coprocessor.stalls_mean_per_core s in
          [
            string_of_int fifo;
            string_of_int s.Coprocessor.total_cycles;
            string_of_int s.Coprocessor.fifo_overflows;
            Table.count_with_pct ~total:s.Coprocessor.total_cycles
              (Counters.get mean Counters.Scan_lock);
          ])
        [ 128; 1024; 8192; 32768; 131072 ]
    in
    Table.print
      ~header:[ "FIFO entries"; "cycles"; "overflows"; "scan-lock stall" ]
      ~rows;
    print_newline ();
    (* Bandwidth on db at 16 cores: the paper's second limiter. *)
    print_endline
      "Memory bandwidth ablation (db, 16 cores): the second scalability\n\
       limiter the paper identifies.\n";
    let db = Option.get (Workloads.find "db") in
    let base =
      let heap = Workloads.build_heap ~scale ~seed db in
      (Coprocessor.collect (Coprocessor.config ~n_cores:1 ()) heap)
        .Coprocessor.total_cycles
    in
    let rows =
      List.map
        (fun bandwidth ->
          let mem = { Memsys.default_config with Memsys.bandwidth } in
          let heap = Workloads.build_heap ~scale ~seed db in
          let s = Coprocessor.collect (Coprocessor.config ~mem ~n_cores:16 ()) heap in
          [
            string_of_int bandwidth;
            string_of_int s.Coprocessor.total_cycles;
            Printf.sprintf "%.2fx"
              (float_of_int base /. float_of_int s.Coprocessor.total_cycles);
            string_of_int s.Coprocessor.mem_rejected_bandwidth;
          ])
        [ 1; 2; 4; 8; 16 ]
    in
    Table.print
      ~header:
        [ "words/cycle"; "cycles @16 cores"; "speedup vs 1 core"; "bw rejections" ]
      ~rows;
    0
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:"sweep the design parameters DESIGN.md calls out (FIFO, bandwidth)")
    Term.(const run $ scale_arg $ seed_arg)

let concurrent_cmd =
  let run workload n_cores scale seed period alloc_percent =
    let heap = Workloads.build_heap ~scale ~seed workload in
    let orig_roots = Array.length heap.Hsgc_heap.Heap.roots in
    let pre = Verify.snapshot heap in
    let cfg =
      {
        (Concurrent.default_config ~n_cores ()) with
        Concurrent.mutator_period = period;
        alloc_percent;
        seed;
      }
    in
    let stats = Concurrent.collect cfg heap in
    let all = heap.Hsgc_heap.Heap.roots in
    Hsgc_heap.Heap.set_roots heap (Array.sub all 0 orig_roots);
    let iso = Verify.equal_snapshot pre (Verify.snapshot heap) in
    Hsgc_heap.Heap.set_roots heap all;
    Printf.printf "workload %s, %d cores, mutator op every %d cycles\n"
      workload.Workloads.name n_cores period;
    Printf.printf "pause (root phase)    %d cycles\n" stats.Concurrent.pause_cycles;
    Printf.printf "whole cycle           %d cycles\n"
      stats.Concurrent.gc.Coprocessor.total_cycles;
    Printf.printf "mutator ops during GC %d reads, %d allocations\n"
      stats.Concurrent.mutator_reads stats.Concurrent.mutator_allocs;
    Printf.printf "read-barrier evacs    %d\n" stats.Concurrent.barrier_evacuations;
    Printf.printf "mutator lock waits    %d cycles\n"
      stats.Concurrent.mutator_wait_cycles;
    let space_ok = Verify.check_space heap = Ok () in
    let new_ok = Concurrent.check_new_objects heap stats = Ok () in
    Printf.printf "verified              old graph %s, space %s, new objects %s\n"
      (if iso then "isomorphic" else "CORRUPT")
      (if space_ok then "well-formed" else "CORRUPT")
      (if new_ok then "intact" else "CORRUPT");
    if iso && space_ok && new_ok then 0 else exit_verify_failed
  in
  let period_arg =
    Arg.(
      value & opt int 4
      & info [ "period" ] ~doc:"Coprocessor cycles between mutator operations.")
  in
  let alloc_arg =
    Arg.(
      value & opt int 30
      & info [ "alloc-percent" ] ~doc:"Share of mutator operations that allocate.")
  in
  Cmd.v
    (Cmd.info "concurrent"
       ~doc:"collect while the main processor keeps running (Section VII next step)")
    Term.(
      const run $ workload_arg $ cores_arg $ scale_arg $ seed_arg $ period_arg
      $ alloc_arg)

let chaos_cmd =
  let run workload cores scale seed jobs retries json_out interrupt =
    let workloads = Option.map (fun w -> [ w.Workloads.name ]) workload in
    if interrupt then begin
      let points =
        Chaos.Interrupt.default_matrix ?workloads ~cores:[ cores ] ~seed ()
      in
      let jobs = Domain_pool.resolve_jobs ~limit:(List.length points) jobs in
      Printf.printf "interrupt campaign: %d points (%d jobs)\n\n%!"
        (List.length points) jobs;
      let s = Chaos.Interrupt.run ~scale ~jobs points in
      print_string (Chaos.Interrupt.render s);
      (match json_out with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Chaos.Interrupt.to_json s);
        output_char oc '\n';
        close_out oc;
        Printf.printf "\nJSON written to %s\n" path);
      if Chaos.Interrupt.passed s then 0 else exit_verify_failed
    end
    else
    let points = Chaos.default_matrix ?workloads ~cores:[ cores ] ~seed () in
    let jobs = Domain_pool.resolve_jobs ~limit:(List.length points) jobs in
    Printf.printf "chaos campaign: %d points (%d jobs, %d retries per point)\n\n%!"
      (List.length points) jobs retries;
    let summary =
      Chaos.run ~scale ~jobs
        ~on_error:(if retries > 0 then Hsgc_sim.Domain_pool.Retry retries
                   else Hsgc_sim.Domain_pool.Skip)
        points
    in
    print_string (Chaos.render summary);
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Chaos.to_json summary);
      close_out oc;
      Printf.printf "\nJSON written to %s\n" path);
    let silent = summary.Chaos.corruption_silent > 0 in
    let hung = summary.Chaos.delay_terminated < summary.Chaos.delay_points in
    let unclean = summary.Chaos.delay_clean < summary.Chaos.delay_points in
    if silent || unclean then exit_verify_failed
    else if hung then exit_stalled
    else 0
  in
  let workload_opt_arg =
    Arg.(
      value
      & opt (some workload_conv) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:"Restrict the campaign to one workload (default: all).")
  in
  let retries_arg =
    Arg.(
      value
      & opt (nonneg_conv "retries") 0
      & info [ "retries" ]
          ~doc:
            "Re-run a crashed campaign point up to this many times with a \
             deterministically reseeded fault plan before recording it.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "json" ] ~docv:"FILE"
          ~doc:"Also write the campaign summary as JSON.")
  in
  let interrupt_arg =
    Arg.(
      value & flag
      & info [ "interrupt" ]
          ~doc:
            "Run the interrupt campaign instead of the fault matrix: kill a \
             checkpointing run at a deterministic random cycle, resume from \
             the latest snapshot, and demand the resumed final state (verify \
             result, cycle count, per-core counters, trace digest) is \
             identical to an uninterrupted run's; also flip one byte per \
             snapshot section and demand every flip is refused by its CRC. \
             Exits 3 unless both rates are 100%.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "run the fault-injection campaign matrix (fault class x intensity x \
          workload) and report termination, detection, and overhead rates")
    Term.(
      const run $ workload_opt_arg $ cores_arg $ scale_arg $ seed_arg $ jobs_arg
      $ retries_arg $ json_arg $ interrupt_arg)

let bench_cmd =
  let run scale seed out check quiet =
    let progress (l : Perf.leg) =
      if not quiet then
        Printf.printf "  %-9s %2d cores  %9d cycles  %5.1f%% skipped  %7.2f \
                       Mcycles/s\n%!"
          l.Perf.workload l.Perf.n_cores l.Perf.cycles
          (100.0 *. float_of_int l.Perf.skipped /. float_of_int (max 1 l.Perf.cycles))
          (float_of_int l.Perf.cycles /. Float.max 1e-9 l.Perf.skip_wall_s /. 1e6)
    in
    match Perf.run ~scale ~seed ~progress () with
    | exception Perf.Perf_regression msg ->
      Format.eprintf "gcsim bench: %s@." msg;
      exit_verify_failed
    | suite -> (
      print_newline ();
      print_endline (Perf.summary suite);
      (match out with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Perf.to_json suite);
        close_out oc;
        Printf.printf "wrote %s\n" path);
      match check with
      | None -> 0
      | Some path -> (
        let ic = open_in path in
        let baseline = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Perf.check ~baseline suite with
        | Ok () ->
          Printf.printf "perf smoke vs %s: OK\n" path;
          0
        | Error msgs ->
          List.iter (fun m -> Format.eprintf "gcsim bench: %s@." m) msgs;
          exit_verify_failed))
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "json" ] ~docv:"FILE"
          ~doc:"Write the suite as JSON (the tracked BENCH_sim.json artifact).")
  in
  let check_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "check" ] ~docv:"BASELINE"
          ~doc:
            "Compare against a committed BENCH_sim.json and fail (exit code 3) \
             on a >20% regression of any host-independent metric: skipped \
             fraction, minor words per cycle, latency-bound skip speedup, the \
             BSP kernel's exclusive-span fraction, and the banked machine's \
             modeled-cycle ratio and remote-request fraction. Absolute \
             Mcycles/s and the wall-clock speedups are never gated — they \
             depend on the host (the banked self-speedup floor arms only on \
             hosts with at least 4 recommended domains).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-leg progress.")
  in
  let bench_scale_arg =
    Arg.(
      value & opt float 0.5
      & info [ "scale" ]
          ~doc:
            "Workload size multiplier (default 0.5, matching the committed \
             baseline — the skipped fractions are only comparable at equal \
             scale).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "time the stepping loop on prebuilt heaps (sim-only wall) across the \
          fig5 grid, naive vs event-driven, at base and +20-cycle memory \
          latency")
    Term.(const run $ bench_scale_arg $ seed_arg $ out_arg $ check_arg $ quiet_arg)

(* gcsim model — the bounded model checker over the abstracted
   hardware-sync protocol (lib/model, docs/MODELCHECK.md). Single-run
   mode explores one (graph, cores, mutation) configuration; --matrix
   runs the full tracked suite behind BENCH_model.json. *)
let model_cmd =
  let module Proto = Hsgc_model.Proto in
  let module Explore = Hsgc_model.Explore in
  let module Replay = Hsgc_model.Replay in
  let module Mutation = Hsgc_model.Mutation in
  let module MBench = Hsgc_model.Bench in
  let run cores graph_name objects mutation_name list_mutations no_por
      no_symmetry max_states matrix out check quiet =
    if list_mutations then begin
      List.iter
        (fun (e : Mutation.entry) ->
          Printf.printf "%-26s @%-8s %-17s %s\n" e.Mutation.name
            e.Mutation.graph
            (Proto.check_name e.Mutation.model_check)
            e.Mutation.blurb)
        Mutation.all;
      0
    end
    else if matrix then begin
      let progress = if quiet then None else Some print_endline in
      let s = MBench.run ?progress () in
      if not quiet then print_newline ();
      print_string (MBench.summary s);
      (match out with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (MBench.to_json s);
        close_out oc;
        Printf.printf "wrote %s\n" path);
      match check with
      | None -> if MBench.all_ok s then 0 else exit_sanitizer
      | Some path -> (
        let ic = open_in path in
        let baseline = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match MBench.check ~baseline s with
        | Ok () ->
          Printf.printf "model matrix vs %s: OK\n" path;
          0
        | Error msgs ->
          List.iter (fun m -> Format.eprintf "gcsim model: %s@." m) msgs;
          exit_verify_failed)
    end
    else begin
      let mutation, entry =
        match mutation_name with
        | None -> (Proto.Correct, None)
        | Some name -> (
          match Mutation.find name with
          | Some e -> (e.Mutation.mutation, Some e)
          | None ->
            Format.eprintf
              "gcsim model: unknown mutation %S (try --list-mutations)@." name;
            exit 2)
      in
      match Proto.graph_of_string graph_name ~objects with
      | Error msg ->
        Format.eprintf "gcsim model: %s@." msg;
        2
      | Ok graph ->
        let cfg =
          {
            (Explore.default_config ~graph ~n_cores:cores) with
            Explore.mutation;
            por = not no_por;
            symmetry = not no_symmetry;
            max_states;
          }
        in
        let outcome = Explore.run cfg in
        let s = Explore.outcome_stats outcome in
        Printf.printf
          "%s  %d cores  %s%s\n\
           %d states, %d transitions (%d slept), depth %d, %d final\n"
          graph.Proto.gname cores
          (match mutation_name with
          | None -> "correct protocol"
          | Some m -> "mutation: " ^ m)
          ((match (cfg.Explore.por, cfg.Explore.symmetry) with
           | true, true -> ""
           | false, true -> "  [no por]"
           | true, false -> "  [no symmetry]"
           | false, false -> "  [no reductions]")
          ^ if Proto.symmetric mutation then "" else "  [asymmetric]")
          s.Explore.states s.Explore.transitions s.Explore.slept
          s.Explore.max_depth s.Explore.finals;
        let replay_and_report sched =
          Printf.printf "counterexample (%d sync-block operations):\n"
            (List.length sched);
          Explore.pp_schedule Format.std_formatter sched;
          Format.pp_print_flush Format.std_formatter ();
          let res = Replay.run cfg sched in
          Printf.printf "replay through sync block + sanitizer: %s\n"
            (if res.Replay.flagged then
               "flagged [" ^ String.concat ", " res.Replay.checks ^ "]"
             else "silent");
          (match entry with
          | Some { Mutation.dynamic_check = Some expected; _ } ->
            Printf.printf "expected dynamic check %s: %s\n"
              (Hsgc_sanitizer.Diag.check_name expected)
              (if Replay.hits res expected then "confirmed" else "NOT FLAGGED")
          | _ -> ())
        in
        (match outcome with
        | Explore.Verified _ ->
          Printf.printf "verified: every interleaving satisfies the protocol\n"
        | Explore.Violation (v, sched, _) ->
          Printf.printf "VIOLATION %s: %s\n"
            (Proto.check_name v.Proto.vcheck)
            v.Proto.vdetail;
          replay_and_report sched
        | Explore.Deadlock (sched, _) ->
          Printf.printf "DEADLOCK: no core can make progress\n";
          Printf.printf "schedule (%d sync-block operations):\n"
            (List.length sched);
          Explore.pp_schedule Format.std_formatter sched;
          Format.pp_print_flush Format.std_formatter ()
        | Explore.Livelock (sched, _) ->
          Printf.printf
            "LIVELOCK: quiescence unreachable from the state below\n";
          Printf.printf "schedule (%d sync-block operations):\n"
            (List.length sched);
          Explore.pp_schedule Format.std_formatter sched;
          Format.pp_print_flush Format.std_formatter ()
        | Explore.Out_of_bounds _ ->
          Printf.printf "inconclusive: state bound %d exhausted\n"
            cfg.Explore.max_states);
        (match outcome with
        | Explore.Verified _ -> 0
        | Explore.Out_of_bounds _ -> exit_stalled
        | Explore.Violation _ | Explore.Deadlock _ | Explore.Livelock _ ->
          exit_sanitizer)
    end
  in
  let cores_arg =
    Arg.(
      value
      & opt (positive_conv "cores") 3
      & info [ "n"; "cores" ] ~doc:"Model cores to interleave (default 3).")
  in
  let graph_arg =
    Arg.(
      value & opt string "diamond"
      & info [ "g"; "graph" ] ~docv:"NAME"
          ~doc:
            "Object graph topology: $(b,diamond) (two roots share all \
             children — the evacuation race), $(b,chain), $(b,fork), \
             $(b,twin) (disjoint children — concurrent claims), \
             $(b,garbage) (one unreachable object).")
  in
  let objects_arg =
    Arg.(
      value
      & opt (positive_conv "objects") 4
      & info [ "objects" ] ~doc:"Objects in the graph (default 4).")
  in
  let mutation_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "m"; "mutation" ] ~docv:"NAME"
          ~doc:
            "Model-check a broken-collector variant instead of the correct \
             protocol (see $(b,--list-mutations)); expect a counterexample.")
  in
  let list_mutations_arg =
    Arg.(
      value & flag
      & info [ "list-mutations" ] ~doc:"List the mutation catalog and exit.")
  in
  let no_por_arg =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "Disable partial-order reduction (sleep sets); the search walks \
             every transition and counterexamples are minimal (BFS).")
  in
  let no_symmetry_arg =
    Arg.(
      value & flag
      & info [ "no-symmetry" ]
          ~doc:
            "Disable core-symmetry reduction (canonical visited-state keys).")
  in
  let max_states_arg =
    Arg.(
      value
      & opt (positive_conv "state bound") 2_000_000
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "Exploration bound; exceeding it exits 4 (inconclusive, not \
             verified).")
  in
  let matrix_arg =
    Arg.(
      value & flag
      & info [ "matrix" ]
          ~doc:
            "Run the full tracked suite (verification grid, reduction \
             cross-validation, silent baseline replay, mutation catalog) \
             instead of a single configuration.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "json" ] ~docv:"FILE"
          ~doc:
            "With $(b,--matrix): write the suite as JSON (the tracked \
             BENCH_model.json artifact).")
  in
  let check_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "check" ] ~docv:"BASELINE"
          ~doc:
            "With $(b,--matrix): compare against a committed \
             BENCH_model.json and fail (exit code 3) on any gate drift. \
             Exploration is deterministic, so state counts and verdicts \
             must match exactly.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress lines.")
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "bounded model checker for the hardware-sync protocol: exhaustively \
          verify every core interleaving of an abstracted collector \
          microprogram (exit 5 on violation/deadlock/livelock, 4 if the \
          state bound is hit), with counterexample replay through the real \
          sync block and sanitizer")
    Term.(
      const run $ cores_arg $ graph_arg $ objects_arg $ mutation_arg
      $ list_mutations_arg $ no_por_arg $ no_symmetry_arg $ max_states_arg
      $ matrix_arg $ out_arg $ check_arg $ quiet_arg)

let () =
  let doc = "fine-grained parallel compacting GC coprocessor simulator" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "gcsim" ~doc)
          [
            list_cmd; run_cmd; sweep_cmd; cycles_cmd; trace_cmd; ablate_cmd;
            concurrent_cmd; chaos_cmd; bench_cmd; model_cmd;
          ]))
