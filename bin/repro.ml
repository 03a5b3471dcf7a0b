(* Regenerate every table and figure of the paper's evaluation section.

   Usage:
     repro                 — everything at the default scale
     repro fig5|table1|table2|fig6|fifo
     repro --scale 0.3 --seeds 3 fig5
     repro --jobs 4 all    — sweep points distributed over 4 domains
*)

module Report = Hsgc_core.Report
module Experiment = Hsgc_core.Experiment
module Chaos = Hsgc_core.Chaos
module Memsys = Hsgc_memsim.Memsys
module San = Hsgc_sanitizer.Sanitizer
open Cmdliner

(* Exit codes match gcsim: 5 = the machine sanitizer flagged a protocol
   violation during a sweep run under --sanitize. *)
let exit_sanitizer = 5

type artifact =
  | Fig5
  | Table1
  | Table2
  | Fig6
  | Fifo
  | Heapsize
  | Baselines
  | Future_work
  | Concurrent
  | Chaos_campaign
  | All

let artifact_name = function
  | Fig5 -> "fig5"
  | Table1 -> "table1"
  | Table2 -> "table2"
  | Fig6 -> "fig6"
  | Fifo -> "fifo"
  | Heapsize -> "heapsize"
  | Baselines -> "baselines"
  | Future_work -> "future-work"
  | Concurrent -> "concurrent"
  | Chaos_campaign -> "chaos"
  | All -> "all"

let artifact_of_string = function
  | "fig5" | "figure5" -> Ok Fig5
  | "table1" -> Ok Table1
  | "table2" -> Ok Table2
  | "fig6" | "figure6" -> Ok Fig6
  | "fifo" -> Ok Fifo
  | "heapsize" -> Ok Heapsize
  | "baselines" | "e5" -> Ok Baselines
  | "future-work" | "e7" -> Ok Future_work
  | "concurrent" | "e8" -> Ok Concurrent
  | "chaos" -> Ok Chaos_campaign
  | "all" -> Ok All
  | s -> Error (`Msg (Printf.sprintf "unknown artifact %S" s))

let artifact_conv =
  Arg.conv
    (artifact_of_string, fun ppf a -> Format.pp_print_string ppf (artifact_name a))

(* The chaos campaign (docs/ROBUSTNESS.md): the full fault matrix —
   class x intensity x workload — with termination/detection rates as
   the artifact and BENCH_chaos.json as the tracked record. Exit codes
   match gcsim: 3 = a point verified wrong (silent corruption or an
   unclean delay run), 4 = a delay-class point hung. *)
let run_chaos ~scale ~jobs ~retries ~chaos_out =
  let points = Chaos.default_matrix () in
  let cjobs = Hsgc_sim.Domain_pool.resolve_jobs ~limit:(List.length points) jobs in
  Printf.printf "chaos campaign: %d points at scale %g (%d jobs)\n\n%!"
    (List.length points) scale cjobs;
  let on_error =
    if retries > 0 then Hsgc_sim.Domain_pool.Retry retries
    else Hsgc_sim.Domain_pool.Skip
  in
  let summary = Chaos.run ~scale ~jobs:cjobs ~on_error points in
  print_string (Chaos.render summary);
  (* Crash-safety leg: the interrupt campaign (kill at a deterministic
     random cycle, resume from the latest checkpoint, demand resume
     equivalence; flip one byte per snapshot section, demand every flip
     is refused). Recorded under "interrupt" in BENCH_chaos.json and
     gated at 100% on both rates. *)
  let ipoints = Chaos.Interrupt.default_matrix () in
  let ijobs =
    Hsgc_sim.Domain_pool.resolve_jobs ~limit:(List.length ipoints) jobs
  in
  Printf.printf "\ninterrupt campaign: %d points (%d jobs)\n\n%!"
    (List.length ipoints) ijobs;
  let interrupt = Chaos.Interrupt.run ~scale ~jobs:ijobs ipoints in
  print_string (Chaos.Interrupt.render interrupt);
  let oc = open_out chaos_out in
  output_string oc (Chaos.to_json ~interrupt summary);
  close_out oc;
  Printf.printf "wrote %s\n" chaos_out;
  if
    summary.Chaos.corruption_silent > 0
    || summary.Chaos.delay_clean < summary.Chaos.delay_points
    || not (Chaos.Interrupt.passed interrupt)
  then 3
  else if summary.Chaos.delay_terminated < summary.Chaos.delay_points then 4
  else 0

(* Observability run (--trace / --profile): one instrumented collection
   of the Table-II headline configuration — javac at 16 cores — with the
   span tracer and/or the stall-attribution profiler attached. --trace
   writes the Chrome trace-event JSON for ui.perfetto.dev; --profile
   prints the per-core cycle-accounting table (each row sums to the
   simulated cycle count). Runs instead of the artifact sequence. *)
let run_observe ~scale ~seed ~profile ~trace_out =
  let module Workloads = Hsgc_objgraph.Workloads in
  let module Coprocessor = Hsgc_coproc.Coprocessor in
  let module Tracer = Hsgc_obs.Tracer in
  let module Profiler = Hsgc_obs.Profiler in
  let n_cores = 16 in
  let w = Workloads.javac in
  let heap = Workloads.build_heap ~scale ~seed w in
  let obs =
    Option.map
      (fun _ ->
        let t = Tracer.create ~n_cores () in
        Tracer.enable t;
        t)
      trace_out
  in
  let prof =
    if profile then begin
      let p = Profiler.create ~n_cores () in
      Profiler.enable p;
      Some p
    end
    else None
  in
  let stats =
    Coprocessor.collect ?obs ?prof (Coprocessor.config ~n_cores ()) heap
  in
  Printf.printf "observability run: %s, %d cores, %d cycles\n"
    w.Workloads.name n_cores stats.Coprocessor.total_cycles;
  (match prof with
  | None -> ()
  | Some p ->
    print_newline ();
    print_string
      (Report.profile_table ~total:stats.Coprocessor.total_cycles p));
  (match (obs, trace_out) with
  | Some t, Some path ->
    let oc = open_out path in
    Hsgc_obs.Perfetto.to_channel oc t;
    close_out oc;
    Printf.printf "wrote %s (%d events, %d dropped, digest %s)\n" path
      (Tracer.length t) (Tracer.dropped t) (Tracer.digest t)
  | _ -> ());
  0

(* Completed-artifact journal: `repro all` appends each artifact's name
   as it completes, so an interrupted run can be resumed with --resume
   (already-journaled artifacts are skipped, the note goes to stderr so
   stdout stays a clean concatenation of artifacts). The journal is
   deleted once the whole run finishes. *)
let journal_header () =
  Printf.sprintf "# hsgc-journal v1 fingerprint=%s"
    (Hsgc_core.Resume.fingerprint ())

let journal_lines path =
  if Sys.file_exists path then (
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (if line = "" then acc else line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let lines = go [] in
    close_in ic;
    lines)
  else []

let journal_read path =
  List.filter (fun l -> l.[0] <> '#') (journal_lines path)

(* The build fingerprint recorded in the journal's header line, if the
   journal has one (journals written by older builds do not). *)
let journal_fingerprint path =
  match journal_lines path with
  | line :: _ when String.length line > 0 && line.[0] = '#' -> (
    let key = "fingerprint=" in
    match String.index_opt line '=' with
    | Some _ -> (
      let rec find i =
        if i + String.length key > String.length line then None
        else if String.sub line i (String.length key) = key then
          Some (String.sub line
                  (i + String.length key)
                  (String.length line - i - String.length key))
        else find (i + 1)
      in
      find 0)
    | None -> None)
  | _ -> None

(* Each journal entry is flushed and fsynced before the artifact run
   moves on — a crash (or power cut) right after an artifact completes
   cannot lose its journal record, so --resume never repeats work. *)
let journal_append path name =
  let fresh = not (Sys.file_exists path) in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  if fresh then output_string oc (journal_header () ^ "\n");
  output_string oc (name ^ "\n");
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc)
   with Unix.Unix_error _ -> ());
  close_out oc

let run artifact scale seeds verify jobs quick sanitize chaos_out retries
    keep_going resume journal profile trace_out =
  let scale = if quick then scale *. 0.05 else scale in
  if profile || trace_out <> None then
    run_observe ~scale ~seed:42 ~profile ~trace_out
  else begin
  let seeds = Array.init seeds (fun i -> 42 + (1000 * i)) in
  let sanitize = if sanitize then San.Check else San.Off in
  let base_sweep =
    lazy (Report.run_sweeps ~verify ~scale ~seeds ~jobs ~sanitize ())
  in
  let latency_sweep =
    lazy
      (Report.run_sweeps ~verify ~scale ~seeds ~jobs ~sanitize
         ~mem:(Memsys.with_extra_latency Memsys.default_config 20)
         ())
  in
  let emit = function
    | Fig5 -> print_endline (Report.figure5 (Lazy.force base_sweep)); 0
    | Table1 -> print_endline (Report.table1 (Lazy.force base_sweep)); 0
    | Table2 -> print_endline (Report.table2 (Lazy.force base_sweep)); 0
    | Fig6 -> print_endline (Report.figure6 (Lazy.force latency_sweep)); 0
    | Fifo -> print_endline (Report.fifo_summary (Lazy.force base_sweep)); 0
    | Heapsize -> print_endline (Report.heap_size_invariance ~scale ()); 0
    | Baselines -> print_endline (Report.baselines ~scale:(0.2 *. scale) ()); 0
    | Future_work -> print_endline (Report.future_work ~scale ()); 0
    | Concurrent ->
      print_endline (Report.concurrent_pauses ~scale:(0.5 *. scale) ());
      0
    | Chaos_campaign -> run_chaos ~scale ~jobs ~retries ~chaos_out
    | All -> assert false
  in
  let guard_sanitizer f =
    match f () with
    | code -> code
    | exception Experiment.Sanitizer_failed msg ->
      Printf.eprintf "repro: sanitizer FAILED:\n%s\n%!" msg;
      exit_sanitizer
  in
  let emit a = guard_sanitizer (fun () -> emit a) in
  match artifact with
  | All ->
    let sequence =
      [ Fig5; Table1; Table2; Fig6; Fifo; Heapsize; Baselines; Future_work;
        Concurrent ]
    in
    let done_already =
      if not resume then []
      else begin
        (* A journal written by a different build records artifacts that
           binary produced — resuming would mix outputs of two builds in
           one artifact set. Refuse; the user reruns from scratch. *)
        (match journal_fingerprint journal with
        | Some fp when fp <> Hsgc_core.Resume.fingerprint () ->
          Printf.eprintf
            "repro: --resume refused: %s was written by a different build \
             (journal fingerprint %s, this binary %s); delete the journal or \
             rerun without --resume\n%!"
            journal fp
            (Hsgc_core.Resume.fingerprint ());
          exit 2
        | _ -> ());
        journal_read journal
      end
    in
    if (not resume) && Sys.file_exists journal then Sys.remove journal;
    let failures = ref [] in
    List.iter
      (fun a ->
        let name = artifact_name a in
        if List.mem name done_already then
          Printf.eprintf "repro: %s already journaled, skipping (--resume)\n%!"
            name
        else
          match emit a with
          | _retcode -> journal_append journal name
          | exception e when keep_going ->
            let msg = Printexc.to_string e in
            Printf.eprintf "repro: artifact %s FAILED: %s (continuing)\n%!" name
              msg;
            failures := (name, msg) :: !failures)
      sequence;
    (match List.rev !failures with
    | [] ->
      if Sys.file_exists journal then Sys.remove journal;
      0
    | fs ->
      (* Partial run: leave the journal for --resume and record what
         broke in a machine-readable manifest next to the artifacts. *)
      let oc = open_out "REPRO_failures.json" in
      Printf.fprintf oc "{\n  \"failed_artifacts\": [\n%s\n  ]\n}\n"
        (String.concat ",\n"
           (List.map
              (fun (name, msg) ->
                Printf.sprintf {|    {"artifact": "%s", "error": "%s"}|} name
                  (String.concat "" (List.map (function
                     | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n"
                     | c -> String.make 1 c)
                     (List.init (String.length msg) (String.get msg)))))
              fs));
      close_out oc;
      Printf.eprintf
        "repro: %d artifact(s) failed; manifest in REPRO_failures.json, \
         journal kept for --resume\n%!"
        (List.length fs);
      1)
  | a -> emit a
  end

let cmd =
  let artifact =
    Arg.(value & pos 0 artifact_conv All & info [] ~docv:"ARTIFACT")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~doc:"Workload size multiplier (1.0 = paper-like).")
  in
  let seeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~doc:"Number of random seeds to average over.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Check graph isomorphism after every collection (slower).")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ]
          ~doc:
            "Run sweep points on up to this many domains in parallel; 0 \
             (the default) means auto — the runtime's recommended domain \
             count, clamped to the number of points. Output is \
             byte-identical at any value.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Shrink workloads 20x (smoke-test scale).")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Attach the machine sanitizer to every collection in the sweep \
             artifacts; any finding aborts with exit code 5.")
  in
  let chaos_out =
    Arg.(
      value
      & opt string "BENCH_chaos.json"
      & info [ "chaos-out" ]
          ~doc:"Where the chaos campaign writes its JSON record.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ]
          ~doc:
            "Chaos campaign: re-run a crashed point up to this many times \
             with a deterministically reseeded fault plan.")
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "keep-going"; "k" ]
          ~doc:
            "For `all': when one artifact fails, keep producing the rest and \
             write the failures to REPRO_failures.json instead of aborting.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "For `all': skip artifacts recorded in the journal by an earlier \
             interrupted run.")
  in
  let journal =
    Arg.(
      value
      & opt string "repro.journal"
      & info [ "journal" ]
          ~doc:
            "Completed-artifact journal for `all' (written as artifacts \
             finish, deleted when the run completes).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Instead of artifacts: run the Table-II headline configuration \
             (javac, 16 cores) with the stall-attribution profiler attached \
             and print the per-core cycle-accounting table (each row sums to \
             the simulated cycle count). Combines with $(b,--trace).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Instead of artifacts: run the Table-II headline configuration \
             (javac, 16 cores) with the span tracer attached and write the \
             Chrome trace-event JSON to $(docv) (loadable at \
             ui.perfetto.dev). Combines with $(b,--profile).")
  in
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "repro" ~doc)
    Term.(
      const run $ artifact $ scale $ seeds $ verify $ jobs $ quick $ sanitize
      $ chaos_out $ retries $ keep_going $ resume $ journal $ profile
      $ trace_out)

let () = exit (Cmd.eval' cmd)
