(* The four workloads as end-to-end pipelines: workload spec -> graph
   -> heap -> verified collections -> rendered artifact. The same code
   runs the untraced repeats and the traced run; only [Probe.on]
   differs. Every pipeline calls public library functions only. *)

module W = Hsgc_objgraph.Workloads
module Plan = Hsgc_objgraph.Plan
module Verify = Hsgc_heap.Verify
module Header = Hsgc_heap.Header
module C = Hsgc_coproc.Coprocessor
module Counters = Hsgc_coproc.Counters
module Banked = Hsgc_coproc.Banked
module Memsys = Hsgc_memsim.Memsys
module Experiment = Hsgc_core.Experiment
module Report = Hsgc_core.Report
module Resume = Hsgc_core.Resume
module Tracer = Hsgc_obs.Tracer
module Profiler = Hsgc_obs.Profiler
module Table = Hsgc_util.Table

(* Everything one pipeline run counts: checks, set-up time, and the
   simulated and host-side totals the per-layer metrics are made of. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable setup_ns : int;  (** CPU time *)
  mutable sim_cycles : int;
  mutable objects_built : int;
  mutable words_verified : int;
  (* dense collections *)
  mutable total_cycles : int;
  mutable executed_cycles : int;
  mutable skipped_cycles : int;
  mutable empty_cycles : int;
  mutable step_ns_c1 : int;
  mutable exec_c1 : int;
  mutable step_ns_c16 : int;
  mutable exec_c16 : int;
  (* memory system and sync block, over the workload's primary
     collections (the banked ones on banked-16c) *)
  mutable core_cycles : int;
  mutable mem_loads : int;
  mutable mem_stores : int;
  mutable mem_rejected_bw : int;
  mutable fifo_hits : int;
  mutable fifo_misses : int;
  mutable fifo_overflows : int;
  mutable scan_lock_stalls : int;
  mutable header_lock_stalls : int;
  (* banked machine *)
  mutable banked_cycles : int;
  mutable dense_ref_cycles : int;
  mutable supersteps : int;
  mutable bank_slots : int;
  mutable parked_steps : int;
  mutable arb_cycles : int;
  mutable remote_requests : int;
  mutable banked_objects : int;
  mutable requeues : int;
  (* checkpointing and observability *)
  mutable saves : int;
  mutable disk_bytes : int;
  mutable resume_bytes : int;
  mutable events_kept : int;
  mutable events_dropped : int;
  mutable paper_err_pp : float option;
  mutable artifact : string;
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    setup_ns = 0;
    sim_cycles = 0;
    objects_built = 0;
    words_verified = 0;
    total_cycles = 0;
    executed_cycles = 0;
    skipped_cycles = 0;
    empty_cycles = 0;
    step_ns_c1 = 0;
    exec_c1 = 0;
    step_ns_c16 = 0;
    exec_c16 = 0;
    core_cycles = 0;
    mem_loads = 0;
    mem_stores = 0;
    mem_rejected_bw = 0;
    fifo_hits = 0;
    fifo_misses = 0;
    fifo_overflows = 0;
    scan_lock_stalls = 0;
    header_lock_stalls = 0;
    banked_cycles = 0;
    dense_ref_cycles = 0;
    supersteps = 0;
    bank_slots = 0;
    parked_steps = 0;
    arb_cycles = 0;
    remote_requests = 0;
    banked_objects = 0;
    requeues = 0;
    saves = 0;
    disk_bytes = 0;
    resume_bytes = 0;
    events_kept = 0;
    events_dropped = 0;
    paper_err_pp = None;
    artifact = "";
  }

(* One checked operation. A failure is counted, reported on stderr and
   the run carries on. *)
let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "hsgcbench: check failed: %s\n%!" what
  end

let guard t what f =
  match f () with
  | r -> Some r
  | exception e ->
    check t (Printf.sprintf "%s raised %s" what (Printexc.to_string e)) false;
    None

let verify t what ~pre heap =
  t.words_verified <-
    t.words_verified + Hsgc_heap.Semispace.used (Hsgc_heap.Heap.from_space heap);
  match Probe.span Verify (fun () -> Verify.check_collection ~pre heap) with
  | Ok () -> check t what true
  | Error f -> check t (Format.asprintf "%s: %a" what Verify.pp_failure f) false

let setup t f =
  let r, _, cpu_ns = Calib.timed f in
  t.setup_ns <- t.setup_ns + cpu_ns;
  r

let build t w ~scale ~seed =
  let plan =
    setup t (fun () -> Probe.span Objgraph (fun () -> w.W.build ~scale ~seed))
  in
  t.objects_built <- t.objects_built + Plan.n_objects plan;
  plan

let materialize t plan =
  setup t (fun () -> Probe.span Materialize (fun () -> Plan.materialize plan))

let snapshot heap = Probe.span Snapshot (fun () -> Verify.snapshot heap)

let sum_per_core (s : C.gc_stats) f =
  Array.fold_left (fun acc c -> acc + f c) 0 s.C.per_core

let tally_machine t (s : C.gc_stats) =
  t.core_cycles <- t.core_cycles + (Array.length s.C.per_core * s.C.total_cycles);
  t.mem_loads <- t.mem_loads + s.C.mem_loads;
  t.mem_stores <- t.mem_stores + s.C.mem_stores;
  t.mem_rejected_bw <- t.mem_rejected_bw + s.C.mem_rejected_bandwidth;
  t.fifo_hits <- t.fifo_hits + s.C.fifo_hits;
  t.fifo_misses <- t.fifo_misses + s.C.fifo_misses;
  t.fifo_overflows <- t.fifo_overflows + s.C.fifo_overflows;
  t.scan_lock_stalls <-
    t.scan_lock_stalls + sum_per_core s (fun c -> c.Counters.scan_lock);
  t.header_lock_stalls <-
    t.header_lock_stalls + sum_per_core s (fun c -> c.Counters.header_lock)

let tally_dense t ~n_cores ~step_ns (s : C.gc_stats) =
  t.total_cycles <- t.total_cycles + s.C.total_cycles;
  t.executed_cycles <- t.executed_cycles + s.C.executed_cycles;
  t.skipped_cycles <- t.skipped_cycles + s.C.skipped_cycles;
  t.empty_cycles <- t.empty_cycles + s.C.empty_worklist_cycles;
  if n_cores = 1 then begin
    t.step_ns_c1 <- t.step_ns_c1 + step_ns;
    t.exec_c1 <- t.exec_c1 + s.C.executed_cycles
  end
  else if n_cores = 16 then begin
    t.step_ns_c16 <- t.step_ns_c16 + step_ns;
    t.exec_c16 <- t.exec_c16 + s.C.executed_cycles
  end

let step_ns () = Probe.self_ns.(Probe.index Probe.Step)

(* One dense collection through the cycle-stepped interface. *)
let collect t cfg heap =
  let sim = Probe.span Start (fun () -> C.start cfg heap) in
  let step0 = step_ns () in
  Probe.span Step (fun () -> Probe.run_steps sim);
  let s = Probe.span Finalize (fun () -> C.finalize sim) in
  tally_dense t ~n_cores:cfg.C.n_cores ~step_ns:(step_ns () - step0) s;
  s

(* --- fig5-base / fig6-latency --------------------------------------- *)

let fig6_mem = Memsys.with_extra_latency Memsys.default_config 20

(* The Experiment.measure record of a one-seed point, so the timed
   pipeline renders through the same Report functions as the user path. *)
let measurement w n_cores (s : C.gc_stats) =
  {
    Experiment.workload = w.W.name;
    n_cores;
    cycles = float_of_int s.C.total_cycles;
    empty_frac =
      float_of_int s.C.empty_worklist_cycles
      /. float_of_int (max 1 s.C.total_cycles);
    stalls_mean_core = C.stalls_mean_per_core s;
    root_cycles = float_of_int s.C.root_cycles;
    live_objects = float_of_int s.C.live_objects;
    live_words = float_of_int s.C.live_words;
    fifo_overflows = float_of_int s.C.fifo_overflows;
    fifo_hits = float_of_int s.C.fifo_hits;
    mem_rejected_bandwidth = float_of_int s.C.mem_rejected_bandwidth;
    skipped_cycles = float_of_int s.C.skipped_cycles;
    wall_s = s.C.wall_seconds;
  }

type sweep = Fig5 | Fig6

let sweep_mem = function Fig5 -> Memsys.default_config | Fig6 -> fig6_mem

let render_sweep kind data =
  match kind with
  | Fig5 -> Report.figure5 data ^ Report.table1 data ^ Report.table2 data
  | Fig6 -> Report.figure6 data

(* Paper Table I, 16-core column, and the two Table II signature cells,
   in percent (EXPERIMENTS.md E2/E3). The model was tuned on them. *)
let paper_table1_16 =
  [
    ("compress", 99.72); ("cup", 0.10); ("db", 0.06); ("javac", 0.08);
    ("javacc", 5.34); ("jflex", 35.35); ("jlisp", 2.59); ("search", 99.76);
  ]

let paper_err_pp data =
  let at16 name =
    List.find (fun p -> p.Experiment.n_cores = 16) (List.assoc name data)
  in
  let stall_pct name stall =
    let p = at16 name in
    100.0 *. float_of_int (Counters.get p.Experiment.stalls_mean_core stall)
    /. p.Experiment.cycles
  in
  let errs =
    List.map
      (fun (name, paper) -> Float.abs ((100.0 *. (at16 name).Experiment.empty_frac) -. paper))
      paper_table1_16
    @ [
        Float.abs (stall_pct "javac" Counters.Header_lock -. 29.40);
        Float.abs (stall_pct "cup" Counters.Scan_lock -. 10.49);
      ]
  in
  List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

(* The user path: what `repro fig5`/`fig6` runs. Its rendering is the
   reference the timed pipeline must reproduce byte for byte. *)
let sweep_reference kind ~scale ~seed =
  Report.run_sweeps ~verify:true ~jobs:1 ~seeds:[| seed |] ~scale
    ~mem:(sweep_mem kind) ()
  |> render_sweep kind

let sweep kind t ~scale ~seed ~dir:_ =
  let mem = sweep_mem kind in
  let data =
    List.map
      (fun w ->
        let points =
          List.filter_map
            (fun n_cores ->
              guard t (Printf.sprintf "%s/%d" w.W.name n_cores) (fun () ->
                  let plan = build t w ~scale ~seed in
                  let heap = materialize t plan in
                  let pre = snapshot heap in
                  let s = collect t (C.config ~mem ~n_cores ()) heap in
                  verify t (Printf.sprintf "verify %s/%d" w.W.name n_cores) ~pre heap;
                  t.sim_cycles <- t.sim_cycles + s.C.total_cycles;
                  tally_machine t s;
                  measurement w n_cores s))
            Experiment.default_cores
        in
        (w.W.name, points))
      W.all
  in
  t.artifact <- Probe.span Report (fun () -> render_sweep kind data);
  if kind = Fig5 then
    t.paper_err_pp <- (try Some (paper_err_pp data) with Not_found -> None)

(* --- banked-16c ----------------------------------------------------- *)

let banked_cores = 16
let bank_counts = [ 2; 4; 8 ]
let banked_lanes = 2

let live_of (pre : Verify.snapshot) =
  ( Array.length pre.Verify.objects,
    Array.fold_left
      (fun acc o -> acc + Header.size_of ~pi:o.Verify.pi ~delta:o.Verify.delta)
      0 pre.Verify.objects )

let banked_point t ~lanes ~banks ~pre ~plan w =
  let cfg = C.config ~n_cores:banked_cores () in
  let heap = materialize t plan in
  let s, b =
    Probe.span Banked (fun () -> Banked.collect ~lanes ~banks cfg heap)
  in
  let what = Printf.sprintf "%s/%d banks" w.W.name banks in
  verify t ("verify " ^ what) ~pre heap;
  let objects, words = live_of pre in
  check t ("live set " ^ what)
    (s.C.live_objects = objects && s.C.live_words = words);
  check t ("arbitration identities " ^ what)
    (b.Banked.remote_requests = b.Banked.fixups_applied
    && b.Banked.remote_hits + b.Banked.arb_evacuations
       = b.Banked.fixups_applied + b.Banked.root_routes);
  (s, b)

let banked t ~scale ~seed ~dir:_ =
  let rows =
    List.concat_map
      (fun w ->
        Option.value ~default:[]
          (guard t w.W.name (fun () ->
               let plan = build t w ~scale ~seed in
               let heap = materialize t plan in
               let pre = snapshot heap in
               let dense = collect t (C.config ~n_cores:banked_cores ()) heap in
               verify t ("verify dense " ^ w.W.name) ~pre heap;
               List.map
                 (fun banks ->
                   let s, b =
                     banked_point t ~lanes:banked_lanes ~banks ~pre ~plan w
                   in
                   t.sim_cycles <- t.sim_cycles + s.C.total_cycles;
                   t.banked_cycles <- t.banked_cycles + s.C.total_cycles;
                   t.dense_ref_cycles <- t.dense_ref_cycles + dense.C.total_cycles;
                   t.supersteps <- t.supersteps + b.Banked.supersteps;
                   t.bank_slots <- t.bank_slots + (b.Banked.supersteps * banks);
                   t.parked_steps <- t.parked_steps + b.Banked.parked_steps;
                   t.arb_cycles <- t.arb_cycles + b.Banked.arb_cycles;
                   t.remote_requests <- t.remote_requests + b.Banked.remote_requests;
                   t.banked_objects <- t.banked_objects + s.C.live_objects;
                   t.requeues <- t.requeues + b.Banked.requeues;
                   tally_machine t s;
                   [
                     w.W.name;
                     string_of_int banks;
                     string_of_int dense.C.total_cycles;
                     string_of_int s.C.total_cycles;
                     string_of_int b.Banked.arb_cycles;
                     string_of_int b.Banked.remote_requests;
                     Table.fixed 2
                       (float_of_int s.C.total_cycles
                       /. float_of_int dense.C.total_cycles);
                   ])
                 bank_counts)))
      W.all
  in
  t.artifact <-
    Probe.span Report (fun () ->
        Table.render
          ~header:
            [
              "workload"; "banks"; "dense cycles"; "banked cycles"; "arbitration";
              "remote"; "ratio";
            ]
          ~rows)

(* The lane-speedup leg of the traced run: every 8-bank point on one
   lane and on two, back to back so that both see the same host.
   Returns the summed one-lane wall over the summed two-lane wall. *)
let banked_lane_speedup t ~scale ~seed =
  let one = ref 0.0 and two = ref 0.0 in
  List.iter
    (fun w ->
      let plan = w.W.build ~scale ~seed in
      let pre = Verify.snapshot (Plan.materialize plan) in
      List.iter
        (fun (lanes, acc) ->
          let s, _ = banked_point t ~lanes ~banks:8 ~pre ~plan w in
          acc := !acc +. s.C.wall_seconds)
        [ (banked_lanes, two); (1, one) ])
    W.all;
  !one /. !two

(* --- long-run-observed ---------------------------------------------- *)

let long_workload = W.javac
let long_scale = 2.0
let long_cores = 16
let long_every = 100_000
let obs_interval = 256
let long_cfg () = C.config ~mem:fig6_mem ~n_cores:long_cores ()

let observers () =
  let obs =
    Tracer.create ~capacity:Tracer.default_capacity ~interval:obs_interval
      ~n_cores:long_cores ()
  in
  Tracer.enable obs;
  let prof = Profiler.create ~n_cores:long_cores () in
  Profiler.enable prof;
  (obs, prof)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let checkpoints dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let file_bytes path = (Unix.stat path).Unix.st_size

(* [Resume.drive] re-enacted with a span around each [Resume.save]:
   the same horizon-capped steps, so the same snapshots land on the same
   cycles. *)
let drive_traced ~every ~dir ~meta sim =
  let rec go due =
    Probe.span Step (fun () -> Probe.run_steps ~until:due ~horizon:due sim);
    if C.now sim >= due then begin
      let path = Resume.checkpoint_path ~dir ~cycle:(C.now sim) in
      Probe.span Save (fun () -> Resume.save sim meta ~path)
    end;
    if not (C.halted sim) then go (((C.now sim / every) + 1) * every)
  in
  go every;
  Probe.span Finalize (fun () -> C.finalize sim)

(* Run [sim] to the end the way each mode does: through the library
   [Resume.drive] when untraced, re-enacted under spans when traced. *)
let drive t ?every ?dir ~meta sim =
  if !Probe.on then begin
    let s =
      match (every, dir) with
      | Some every, Some dir -> drive_traced ~every ~dir ~meta sim
      | _ ->
        Probe.span Step (fun () -> Probe.run_steps sim);
        Probe.span Finalize (fun () -> C.finalize sim)
    in
    Some s
  end
  else
    let should_stop () =
      Calib.tick ();
      false
    in
    match Resume.drive ?every ?dir ~should_stop ~partitions:1 ~meta sim with
    | Resume.Finished (s, _) -> Some s
    | Resume.Stopped { at_cycle; _ } ->
      check t (Printf.sprintf "run stopped early at cycle %d" at_cycle) false;
      None

let rows_close prof ~total =
  List.for_all
    (fun c -> Profiler.row_sum prof ~core:c = total)
    (List.init (Profiler.n_cores prof) Fun.id)

let long_run t ~scale ~seed ~dir =
  let scale = long_scale *. scale in
  let every = max 1 (int_of_float (float_of_int long_every *. scale /. long_scale)) in
  let plan = build t long_workload ~scale ~seed in
  let heap = materialize t plan in
  let pre = snapshot heap in
  let obs, prof = Probe.span Obs observers in
  let meta =
    {
      Resume.workload = long_workload.W.name;
      scale;
      seed;
      partitions = 1;
      obs_on = true;
      obs_capacity = Tracer.default_capacity;
      obs_interval;
      prof_on = true;
    }
  in
  let cfg = long_cfg () in
  let sim = Probe.span Start (fun () -> C.start ~obs ~prof cfg heap) in
  let step0 = step_ns () in
  match drive t ~every ~dir ~meta sim with
  | None -> ()
  | Some straight ->
    tally_dense t ~n_cores:long_cores ~step_ns:(step_ns () - step0) straight;
    tally_machine t straight;
    t.sim_cycles <- t.sim_cycles + straight.C.total_cycles;
    verify t "verify straight run" ~pre heap;
    let total = straight.C.total_cycles in
    check t "profiler rows sum to total cycles" (rows_close prof ~total);
    t.events_kept <- Tracer.length obs;
    t.events_dropped <- Tracer.dropped obs;
    let files = checkpoints dir in
    t.saves <- List.length files;
    t.disk_bytes <- List.fold_left (fun acc f -> acc + file_bytes f) 0 files;
    check t "at least one checkpoint" (files <> []);
    (match files with
    | [] -> ()
    | _ ->
      let mid = List.nth files (List.length files / 2) in
      t.resume_bytes <- file_bytes mid;
      ignore
        (guard t "resume from the middle checkpoint" (fun () ->
             let r = Probe.span Resume (fun () -> Resume.resume ~path:mid ()) in
             let step0 = step_ns () in
             match drive t ~meta:r.Resume.meta r.Resume.sim with
             | None -> ()
             | Some resumed ->
               tally_dense t ~n_cores:long_cores ~step_ns:(step_ns () - step0)
                 resumed;
               verify t "verify resumed run" ~pre:r.Resume.pre r.Resume.heap;
               check t "resumed run equals the straight run"
                 (resumed.C.total_cycles = total
                 && resumed.C.per_core = straight.C.per_core);
               match r.Resume.prof with
               | Some p ->
                 check t "resumed profiler rows sum to total cycles"
                   (rows_close p ~total)
               | None -> check t "resumed run has its profiler" false)));
    t.artifact <-
      Probe.span Report (fun () ->
          Report.profile_table ~total prof
          ^ Report.metrics_summary (Tracer.metrics obs))

(* The observability-overhead leg of the traced run: plain and
   instrumented collections of the long run's heap, no checkpoints,
   alternated three times so both sides see the same host. Returns the
   ratio of the instrumented median wall to the plain one. *)
let obs_overhead ~scale ~seed =
  let plan = long_workload.W.build ~scale:(long_scale *. scale) ~seed in
  let timed f =
    let heap = Plan.materialize plan in
    Gc.compact ();
    let t0 = Probe.now_ns () in
    f heap;
    Probe.seconds_since t0
  in
  let pairs =
    List.init 3 (fun _ ->
        let plain = timed (fun heap -> ignore (C.collect (long_cfg ()) heap)) in
        let instrumented =
          timed (fun heap ->
              let obs, prof = observers () in
              ignore (C.collect ~obs ~prof (long_cfg ()) heap))
        in
        (plain, instrumented))
  in
  let median l = List.nth (List.sort compare l) 1 in
  median (List.map snd pairs) /. median (List.map fst pairs)
