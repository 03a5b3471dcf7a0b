module Workloads = Hsgc_objgraph.Workloads
module Coprocessor = Hsgc_coproc.Coprocessor
module Verify = Hsgc_heap.Verify
module Injector = Hsgc_fault.Injector
module Domain_pool = Hsgc_sim.Domain_pool
module Table = Hsgc_util.Table

type klass = [ `Delay | `Corruption ]

type point = {
  klass : klass;
  intensity : float;
  workload : string;
  n_cores : int;
  seed : int;
}

type classification =
  | Clean
  | Detected of string
  | Silent of int
  | Hung of string

type point_result = {
  point : point;
  attempt : int;
  terminated : bool;
  classification : classification;
  faults : int;
  corruptions : int;
  cycles : int;
  baseline_cycles : int;
}

type summary = {
  results : point_result list;
  delay_points : int;
  delay_terminated : int;
  delay_clean : int;
  corruption_points : int;
  corruption_armed : int;
  corruption_detected : int;
  corruption_silent : int;
  mean_delay_overhead : float;
}

let default_intensities = function
  | `Delay -> [ 0.02; 0.1; 0.3 ]
  | `Corruption -> [ 0.002; 0.01; 0.05 ]

let default_matrix ?workloads ?(cores = [ 8 ])
    ?(intensities = default_intensities) ?(seed = 42) () =
  let names =
    match workloads with
    | Some ws -> ws
    | None -> List.map (fun w -> w.Workloads.name) Workloads.all
  in
  List.concat_map
    (fun klass ->
      List.concat_map
        (fun intensity ->
          List.concat_map
            (fun workload ->
              List.map
                (fun n_cores -> { klass; intensity; workload; n_cores; seed })
                cores)
            names)
        (intensities klass))
    [ `Delay; `Corruption ]

let find_workload name =
  match Workloads.find name with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Chaos: unknown workload %S" name)

(* The injector seed must differ from the workload seed (independent
   streams), vary across the matrix (so equal-seed points explore
   different fault patterns), and move deterministically on retry. *)
let injector_seed p ~attempt =
  (p.seed * 1_000_003)
  + (int_of_float (p.intensity *. 1_000_000.0) * 97)
  + (p.n_cores * 13)
  + (match p.klass with `Delay -> 0 | `Corruption -> 1)
  + (attempt * 7919)

let oracle_snapshot ~scale ~seed w =
  let heap = Workloads.build_heap ~scale ~seed w in
  ignore (Cheney_seq.collect heap);
  Verify.snapshot heap

let run_point ?(scale = 1.0) ?(attempt = 0) p =
  let w = find_workload p.workload in
  (* Fault-free reference: collection length for the overhead figure and
     the cycle budget of the faulted run. *)
  let baseline_cycles =
    let heap = Workloads.build_heap ~scale ~seed:p.seed w in
    (Coprocessor.collect (Coprocessor.config ~n_cores:p.n_cores ()) heap)
      .Coprocessor.total_cycles
  in
  (* Generous but finite: delay faults at the clamped maximum intensity
     slow acceptance by at most ~20x (p <= 0.95) plus bounded extra
     latency, so 50x + slack means a budget trip is a genuine hang. *)
  let budget = (50 * baseline_cycles) + 1_000_000 in
  let spec =
    Injector.of_class p.klass
      ~seed:(injector_seed p ~attempt)
      ~intensity:p.intensity ()
  in
  let cfg =
    Coprocessor.config ~faults:spec ~cycle_budget:budget ~n_cores:p.n_cores ()
  in
  let heap = Workloads.build_heap ~scale ~seed:p.seed w in
  let pre = Verify.snapshot heap in
  let finish ~terminated ~classification ~faults ~corruptions ~cycles =
    {
      point = p;
      attempt;
      terminated;
      classification;
      faults;
      corruptions;
      cycles;
      baseline_cycles;
    }
  in
  match Coprocessor.collect cfg heap with
  | stats ->
    let faults = stats.Coprocessor.faults_injected in
    let corruptions = stats.Coprocessor.corruptions_injected in
    let cycles = stats.Coprocessor.total_cycles in
    let verdict = Verify.check_collection ~pre heap in
    let classification =
      match (p.klass, verdict) with
      | `Corruption, Error f ->
        Detected (Format.asprintf "%a" Verify.pp_failure f)
      | `Corruption, Ok () ->
        if corruptions = 0 then Clean else Silent corruptions
      | `Delay, Error f ->
        (* A delay-class fault changed the result graph: a metamorphic
           violation, reported like a hang (it is a microprogram bug). *)
        Hung (Format.asprintf "verification: %a" Verify.pp_failure f)
      | `Delay, Ok () ->
        (* Oracle cross-check: the faulted run must match the sequential
           Cheney collector on the same initial heap. *)
        if
          Verify.equal_snapshot (Verify.snapshot heap)
            (oracle_snapshot ~scale ~seed:p.seed w)
        then Clean
        else Hung "oracle mismatch: coprocessor result differs from Cheney"
    in
    finish ~terminated:true ~classification ~faults ~corruptions ~cycles
  | exception Coprocessor.Stall_diagnosis d ->
    let reason = Format.asprintf "%a" Coprocessor.pp_diagnosis d in
    let classification =
      match p.klass with
      | `Delay -> Hung reason
      | `Corruption -> Detected reason
    in
    finish ~terminated:false ~classification ~faults:0 ~corruptions:0 ~cycles:0
  | exception Coprocessor.Heap_overflow ->
    let classification =
      match p.klass with
      | `Delay -> Hung "heap overflow"
      | `Corruption -> Detected "heap overflow"
    in
    finish ~terminated:false ~classification ~faults:0 ~corruptions:0 ~cycles:0
  | exception Coprocessor.Simulation_diverged msg ->
    let classification =
      match p.klass with
      | `Delay -> Hung ("diverged: " ^ msg)
      | `Corruption -> Detected ("diverged: " ^ msg)
    in
    finish ~terminated:false ~classification ~faults:0 ~corruptions:0 ~cycles:0

let summarize results =
  let delay, corruption =
    List.partition (fun r -> r.point.klass = `Delay) results
  in
  let terminated = List.filter (fun r -> r.terminated) delay in
  let clean = List.filter (fun r -> r.classification = Clean) delay in
  let armed = List.filter (fun r -> r.corruptions > 0) corruption in
  let detected =
    List.filter
      (fun r -> match r.classification with Detected _ -> true | _ -> false)
      corruption
  in
  let silent =
    List.filter
      (fun r -> match r.classification with Silent _ -> true | _ -> false)
      corruption
  in
  let overheads =
    List.filter_map
      (fun r ->
        if r.terminated && r.baseline_cycles > 0 then
          Some
            ((float_of_int r.cycles /. float_of_int r.baseline_cycles) -. 1.0)
        else None)
      delay
  in
  {
    results;
    delay_points = List.length delay;
    delay_terminated = List.length terminated;
    delay_clean = List.length clean;
    corruption_points = List.length corruption;
    corruption_armed = List.length armed;
    corruption_detected = List.length detected;
    corruption_silent = List.length silent;
    mean_delay_overhead =
      (match overheads with
      | [] -> 0.0
      | _ ->
        List.fold_left ( +. ) 0.0 overheads
        /. float_of_int (List.length overheads));
  }

let run ?scale ?(jobs = 1) ?(on_error = Domain_pool.Skip) points =
  let jobs = Domain_pool.resolve_jobs ~limit:(List.length points) jobs in
  let outcomes =
    Domain_pool.map_list_policy ~on_error ~jobs
      (fun ~attempt p -> run_point ?scale ~attempt p)
      points
  in
  (* A point that kept failing even under the policy still must not sink
     the campaign: it becomes a synthetic Hung result. *)
  let results =
    List.map2
      (fun p -> function
        | Domain_pool.Done r -> r
        | Domain_pool.Failed { attempts; error } ->
          {
            point = p;
            attempt = attempts - 1;
            terminated = false;
            classification = Hung ("harness: " ^ Printexc.to_string error);
            faults = 0;
            corruptions = 0;
            cycles = 0;
            baseline_cycles = 0;
          })
      points outcomes
  in
  summarize results

let klass_name = function `Delay -> "delay" | `Corruption -> "corruption"

let classification_label = function
  | Clean -> "clean"
  | Detected _ -> "detected"
  | Silent n -> Printf.sprintf "SILENT(%d)" n
  | Hung _ -> "HUNG"

let rate num den =
  if den = 0 then "n/a" else Table.pct (float_of_int num /. float_of_int den)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render s =
  let header =
    [
      "class"; "intensity"; "workload"; "cores"; "outcome"; "faults";
      "corruptions"; "cycles"; "overhead";
    ]
  in
  let rows =
    List.map
      (fun r ->
        [
          klass_name r.point.klass;
          Printf.sprintf "%g" r.point.intensity;
          r.point.workload;
          string_of_int r.point.n_cores;
          classification_label r.classification;
          string_of_int r.faults;
          string_of_int r.corruptions;
          (if r.terminated then string_of_int r.cycles else "-");
          (if r.terminated && r.baseline_cycles > 0 then
             Printf.sprintf "%+.1f%%"
               (100.0
               *. ((float_of_int r.cycles /. float_of_int r.baseline_cycles)
                  -. 1.0))
           else "-");
        ])
      s.results
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Chaos campaign (fault class x intensity x workload). Delay-class\n\
     faults only move events in time: every run must terminate and verify\n\
     (vs. snapshot isomorphism and the Cheney oracle). Corruption-class\n\
     faults flip copied bits: every armed run must be detected.\n\n";
  Buffer.add_string buf (Table.render ~header ~rows);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Printf.sprintf "delay:      %d points, termination %s, clean verification %s\n"
       s.delay_points
       (rate s.delay_terminated s.delay_points)
       (rate s.delay_clean s.delay_points));
  Buffer.add_string buf
    (Printf.sprintf
       "corruption: %d points (%d armed), detection %s, silent passes %d\n"
       s.corruption_points s.corruption_armed
       (rate s.corruption_detected s.corruption_armed)
       s.corruption_silent);
  Buffer.add_string buf
    (Printf.sprintf "delay overhead: %+.1f%% mean collection-cycle cost\n"
       (100.0 *. s.mean_delay_overhead));
  Buffer.contents buf

(* --- interrupt campaign ------------------------------------------- *)

(* The crash-safety counterpart of the fault campaign: instead of
   perturbing the machine, kill the *process model* at a deterministic
   random cycle mid-collection, resume from the latest checkpoint, and
   demand the resumed run is indistinguishable from an uninterrupted
   one — same verify result, same total cycles, same per-core counters,
   same trace digest. A corrupt-detection leg flips one byte in every
   section payload of the kill-time snapshot and demands the loader
   refuses each mutant. *)
module Interrupt = struct
  module Tracer = Hsgc_obs.Tracer
  module Rng = Hsgc_util.Rng
  module Checkpoint = Hsgc_checkpoint.Checkpoint

  type point = { workload : string; n_cores : int; seed : int; draw : int }

  type point_result = {
    point : point;
    total_cycles : int;
    kill_cycle : int;
    checkpoints : int;
    equivalent : bool;
    mismatch : string option;
    corrupt_flips : int;
    corrupt_caught : int;
  }

  type summary = {
    results : point_result list;
    points : int;
    equivalent : int;
    corrupt_flips : int;
    corrupt_caught : int;
  }

  (* Modest tracer so a campaign of points (possibly across domains)
     stays cheap; both runs of a point use the same capacity, so drops
     are identical and the digest comparison is exact. *)
  let obs_capacity = 1 lsl 15
  let obs_interval = 64

  let default_matrix ?workloads ?(cores = [ 8 ]) ?(draws = 2) ?(seed = 42)
      () =
    let names =
      match workloads with
      | Some ws -> ws
      | None -> List.map (fun w -> w.Workloads.name) Workloads.all
    in
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun n_cores ->
            List.init draws (fun draw -> { workload; n_cores; seed; draw }))
          cores)
      names

  let rm_rf dir =
    (match Sys.readdir dir with
    | entries ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        entries
    | exception Sys_error _ -> ());
    try Sys.rmdir dir with Sys_error _ -> ()

  (* One byte flipped anywhere in a section payload must be refused by
     that section's CRC. Returns (flippable sections, flips caught). *)
  let corrupt_check path =
    let raw = In_channel.with_open_bin path In_channel.input_all in
    let flippable =
      List.filter (fun (_, _, len) -> len > 0) (Checkpoint.payload_ranges path)
    in
    let caught =
      List.fold_left
        (fun acc (_name, off, len) ->
          let b = Bytes.of_string raw in
          let i = off + (len / 2) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
          match Checkpoint.of_string (Bytes.to_string b) with
          | _ -> acc
          | exception Checkpoint.Corrupt _ -> acc + 1)
        0 flippable
    in
    (List.length flippable, caught)

  let run_point ?(scale = 1.0) p =
    let w = find_workload p.workload in
    let cfg = Coprocessor.config ~n_cores:p.n_cores () in
    let mk_obs () =
      let o =
        Tracer.create ~capacity:obs_capacity ~interval:obs_interval
          ~n_cores:p.n_cores ()
      in
      Tracer.enable o;
      o
    in
    (* Uninterrupted reference run. *)
    let base_stats, base_ok, base_digest =
      let heap = Workloads.build_heap ~scale ~seed:p.seed w in
      let pre = Verify.snapshot heap in
      let obs = mk_obs () in
      let stats = Coprocessor.collect ~obs cfg heap in
      (stats, Verify.check_collection ~pre heap = Ok (), Tracer.digest obs)
    in
    let total = base_stats.Coprocessor.total_cycles in
    (* Deterministic random kill cycle, strictly inside the run. The 31
       is what a partition count of 1 added when points still carried
       one, so draw-0 points keep the kill cycles recorded before. *)
    let rng =
      Rng.create
        (p.seed
        + (p.draw * 7919)
        + (p.n_cores * 131)
        + 31
        + Hashtbl.hash p.workload)
    in
    let kill_cycle = 1 + Rng.int rng (total - 1) in
    (* At least one periodic checkpoint strictly before the kill, plus
       the final one written at the kill itself. *)
    let every = max 1 ((kill_cycle + 1) / 2) in
    let meta =
      {
        Resume.workload = p.workload;
        scale;
        seed = p.seed;
        partitions = 1;
        obs_on = true;
        obs_capacity;
        obs_interval;
        prof_on = false;
      }
    in
    let dir = Filename.temp_dir "hsgc-interrupt" "" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    (* The run that gets killed: checkpointing on, stopped in its
       tracks at the kill cycle (in-process stand-in for SIGINT; the CI
       resume-smoke job covers a real SIGKILL). *)
    let killed =
      let heap = Workloads.build_heap ~scale ~seed:p.seed w in
      let sim = Coprocessor.start ~obs:(mk_obs ()) cfg heap in
      Resume.drive ~every ~dir ~stop_at:kill_cycle ~meta sim
    in
    match killed with
    | Resume.Finished _ ->
      failwith "Chaos.Interrupt: run finished before its kill cycle"
    | Resume.Stopped { checkpoint = None; _ } ->
      failwith "Chaos.Interrupt: killed run left no checkpoint"
    | Resume.Stopped { at_cycle = _; checkpoint = Some _ } ->
      let checkpoints = Array.length (Sys.readdir dir) in
      let latest =
        match Resume.latest ~dir with
        | Some f -> f
        | None -> failwith "Chaos.Interrupt: no checkpoint to resume from"
      in
      let corrupt_flips, corrupt_caught = corrupt_check latest in
      (* Resume from the latest checkpoint and run to completion. *)
      let r = Resume.resume ~path:latest () in
      let finish ~equivalent ~mismatch =
        {
          point = p;
          total_cycles = total;
          kill_cycle;
          checkpoints;
          equivalent;
          mismatch;
          corrupt_flips;
          corrupt_caught;
        }
      in
      (match Resume.drive ~meta:r.Resume.meta r.Resume.sim with
      | Resume.Stopped _ ->
        finish ~equivalent:false
          ~mismatch:(Some "resumed run stopped without a stop condition")
      | Resume.Finished (gc, _) ->
        let resumed_ok =
          Verify.check_collection ~pre:r.Resume.pre r.Resume.heap = Ok ()
        in
        let resumed_digest = Tracer.digest (Option.get r.Resume.obs) in
        let mismatch =
          if gc.Coprocessor.total_cycles <> total then
            Some
              (Printf.sprintf "total_cycles: resumed %d, uninterrupted %d"
                 gc.Coprocessor.total_cycles total)
          else if not (resumed_ok && base_ok) then
            Some
              (Printf.sprintf "verification: resumed %b, uninterrupted %b"
                 resumed_ok base_ok)
          else if gc.Coprocessor.per_core <> base_stats.Coprocessor.per_core
          then Some "per-core counters differ"
          else if resumed_digest <> base_digest then
            Some "trace digest differs"
          else None
        in
        finish ~equivalent:(mismatch = None) ~mismatch)

  let summarize (results : point_result list) =
    {
      results;
      points = List.length results;
      equivalent =
        List.length
          (List.filter (fun (r : point_result) -> r.equivalent) results);
      corrupt_flips =
        List.fold_left
          (fun a (r : point_result) -> a + r.corrupt_flips)
          0 results;
      corrupt_caught =
        List.fold_left
          (fun a (r : point_result) -> a + r.corrupt_caught)
          0 results;
    }

  let run ?scale ?(jobs = 1) points =
    let jobs = Domain_pool.resolve_jobs ~limit:(List.length points) jobs in
    summarize
      (Domain_pool.map_list ~jobs (fun p -> run_point ?scale p) points)

  let passed s = s.equivalent = s.points && s.corrupt_caught = s.corrupt_flips

  let render s =
    let header =
      [
        "workload"; "cores"; "draw"; "kill@"; "of"; "ckpts"; "resume";
        "corrupt";
      ]
    in
    let rows =
      List.map
        (fun r ->
          [
            r.point.workload;
            string_of_int r.point.n_cores;
            string_of_int r.point.draw;
            string_of_int r.kill_cycle;
            string_of_int r.total_cycles;
            string_of_int r.checkpoints;
            (if r.equivalent then "identical"
             else
               Printf.sprintf "MISMATCH: %s"
                 (Option.value r.mismatch ~default:"?"));
            Printf.sprintf "%d/%d" r.corrupt_caught r.corrupt_flips;
          ])
        s.results
    in
    let buf = Buffer.create 2048 in
    Buffer.add_string buf
      "Interrupt campaign. Each point kills a checkpointing run at a\n\
       deterministic random cycle, resumes from the latest snapshot and\n\
       demands the resumed final state (verify result, cycle count,\n\
       per-core counters, trace digest) equals an uninterrupted run's;\n\
       the corrupt leg flips one byte per snapshot section and demands\n\
       every flip is refused by its CRC.\n\n";
    Buffer.add_string buf (Table.render ~header ~rows);
    Buffer.add_string buf "\n";
    Buffer.add_string buf
      (Printf.sprintf "resume equivalence:  %s (%d/%d points)\n"
         (rate s.equivalent s.points)
         s.equivalent s.points);
    Buffer.add_string buf
      (Printf.sprintf "corrupt detection:   %s (%d/%d flips refused)\n"
         (rate s.corrupt_caught s.corrupt_flips)
         s.corrupt_caught s.corrupt_flips);
    Buffer.contents buf

  (* The JSON object that BENCH_chaos.json records under "interrupt"
     (also the standalone payload of [gcsim chaos --interrupt -o]). The
     acceptance gates: both rates must be 1.0. *)
  let to_json s =
    let point_json r =
      Printf.sprintf
        {|    {"workload": "%s", "cores": %d, "seed": %d, "draw": %d, "total_cycles": %d, "kill_cycle": %d, "checkpoints": %d, "equivalent": %b, "mismatch": %s, "corrupt_flips": %d, "corrupt_caught": %d}|}
        (json_escape r.point.workload)
        r.point.n_cores r.point.seed r.point.draw
        r.total_cycles r.kill_cycle r.checkpoints r.equivalent
        (match r.mismatch with
        | None -> "null"
        | Some m -> Printf.sprintf "\"%s\"" (json_escape m))
        r.corrupt_flips r.corrupt_caught
    in
    Printf.sprintf
      {|{
  "interrupt_points": %d,
  "interrupt_equivalent": %d,
  "resume_equivalence_rate": %.4f,
  "corrupt_checks": %d,
  "corrupt_detected": %d,
  "corrupt_detection_rate": %.4f,
  "points": [
%s
  ]
}|}
      s.points s.equivalent
      (if s.points = 0 then 1.0
       else float_of_int s.equivalent /. float_of_int s.points)
      s.corrupt_flips s.corrupt_caught
      (if s.corrupt_flips = 0 then 1.0
       else float_of_int s.corrupt_caught /. float_of_int s.corrupt_flips)
      (String.concat ",\n" (List.map point_json s.results))
end

let to_json ?interrupt s =
  let point_json r =
    Printf.sprintf
      {|    {"class": "%s", "intensity": %g, "workload": "%s", "cores": %d, "seed": %d, "attempt": %d, "terminated": %b, "outcome": "%s", "faults": %d, "corruptions": %d, "cycles": %d, "baseline_cycles": %d}|}
      (klass_name r.point.klass) r.point.intensity
      (json_escape r.point.workload)
      r.point.n_cores r.point.seed r.attempt r.terminated
      (json_escape (classification_label r.classification))
      r.faults r.corruptions r.cycles r.baseline_cycles
  in
  Printf.sprintf
    {|{
  "benchmark": "hsgc chaos campaign",
  "delay_points": %d,
  "delay_terminated": %d,
  "delay_clean": %d,
  "termination_rate": %.4f,
  "clean_verification_rate": %.4f,
  "corruption_points": %d,
  "corruption_armed": %d,
  "corruption_detected": %d,
  "corruption_silent": %d,
  "detection_rate": %.4f,
  "mean_delay_overhead": %.4f,%s
  "points": [
%s
  ]
}
|}
    s.delay_points s.delay_terminated s.delay_clean
    (if s.delay_points = 0 then 1.0
     else float_of_int s.delay_terminated /. float_of_int s.delay_points)
    (if s.delay_points = 0 then 1.0
     else float_of_int s.delay_clean /. float_of_int s.delay_points)
    s.corruption_points s.corruption_armed s.corruption_detected
    s.corruption_silent
    (if s.corruption_armed = 0 then 1.0
     else
       float_of_int s.corruption_detected /. float_of_int s.corruption_armed)
    s.mean_delay_overhead
    (match interrupt with
    | None -> ""
    | Some i -> Printf.sprintf "\n  \"interrupt\": %s," (Interrupt.to_json i))
    (String.concat ",\n" (List.map point_json s.results))
