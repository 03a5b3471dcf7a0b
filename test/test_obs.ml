(* Tests for the observability layer: metrics registry, event tracer,
   stall-attribution profiler, Perfetto export, and the accounting
   identities the profiler guarantees against the live coprocessor. *)

module Metrics = Hsgc_obs.Metrics
module Tracer = Hsgc_obs.Tracer
module Profiler = Hsgc_obs.Profiler
module Perfetto = Hsgc_obs.Perfetto
module Timeline = Hsgc_obs.Timeline
module Coprocessor = Hsgc_coproc.Coprocessor
module Counters = Hsgc_coproc.Counters
module Workloads = Hsgc_objgraph.Workloads
module Injector = Hsgc_fault.Injector
module Memsys = Hsgc_memsim.Memsys

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.hist m "latency" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 7; 8; 100 ];
  Alcotest.(check int) "count" 8 (Metrics.hist_count h);
  Alcotest.(check int) "sum" 125 (Metrics.hist_sum h);
  Alcotest.(check int) "max" 100 (Metrics.hist_max h);
  Alcotest.(check (float 1e-9)) "mean" (125.0 /. 8.0) (Metrics.hist_mean h);
  (* Percentiles are conservative bucket upper bounds, clamped at the
     true maximum: p100's observation (100) lives in bucket 7 (64..127)
     but the bound is tightened to the recorded max. *)
  Alcotest.(check int) "p100 clamped to max" 100 (Metrics.hist_percentile h 100);
  Alcotest.(check int) "p1 is the zero bucket" 0 (Metrics.hist_percentile h 1);
  (* p50: 4th of 8 observations, value 3, bucket 2 (2..3). *)
  Alcotest.(check int) "p50" 3 (Metrics.hist_percentile h 50)

let test_metrics_registry_order () =
  let m = Metrics.create () in
  let _a = Metrics.hist m "a" in
  let _b = Metrics.hist m "b" in
  let c1 = Metrics.counter m "c1" in
  Metrics.bump c1 5;
  Alcotest.(check (list string))
    "hists in registration order" [ "a"; "b" ]
    (List.map Metrics.hist_name (Metrics.all_hists m));
  Alcotest.(check int) "counter value" 5
    (Metrics.counter_value (List.hd (Metrics.all_counters m)))

let test_metrics_negative_clamped () =
  let m = Metrics.create () in
  let h = Metrics.hist m "h" in
  Metrics.observe h (-7);
  Alcotest.(check int) "clamped to zero" 0 (Metrics.hist_max h);
  Alcotest.(check int) "counted" 1 (Metrics.hist_count h)

(* [observe_n] is [n] calls of [observe] in one step, including the
   clamp of negative values; a non-positive [n] records nothing. *)
let test_metrics_observe_n () =
  let m = Metrics.create () in
  let bulk = Metrics.hist m "bulk" and each = Metrics.hist m "each" in
  List.iter
    (fun (v, n) ->
      Metrics.observe_n bulk v n;
      for _ = 1 to n do
        Metrics.observe each v
      done)
    [ (0, 5); (3, 2); (-4, 3); (100, 1); (7, 0); (9, -2); (1 lsl 40, 2) ];
  Alcotest.(check int) "count" (Metrics.hist_count each)
    (Metrics.hist_count bulk);
  Alcotest.(check int) "sum" (Metrics.hist_sum each) (Metrics.hist_sum bulk);
  Alcotest.(check int) "max" (Metrics.hist_max each) (Metrics.hist_max bulk);
  for b = 0 to Metrics.hist_buckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bucket %d" b)
      (Metrics.hist_bucket each b) (Metrics.hist_bucket bulk b)
  done

(* ------------------------------------------------------------------ *)
(* Tracer primitives                                                   *)
(* ------------------------------------------------------------------ *)

let events t =
  let acc = ref [] in
  Tracer.iter t (fun ~cycle ~code ~core ~a ~b ->
      acc := (cycle, code, core, a, b) :: !acc);
  List.rev !acc

let test_phase_spans () =
  let t = Tracer.create ~n_cores:1 () in
  Tracer.enable t;
  Tracer.set_phase t ~core:0 ~phase:Tracer.phase_roots ~cycle:0;
  Tracer.set_phase t ~core:0 ~phase:Tracer.phase_roots ~cycle:5;
  (* same phase: no event *)
  Tracer.set_phase t ~core:0 ~phase:Tracer.phase_scan ~cycle:10;
  Tracer.finish t ~cycle:25;
  match events t with
  | [ (c1, k1, _, p1, d1); (c2, k2, _, p2, d2) ] ->
    Alcotest.(check int) "first span closes at the change" 0 c1;
    Alcotest.(check int) "phase code" Tracer.ev_phase k1;
    Alcotest.(check int) "roots phase" Tracer.phase_roots p1;
    Alcotest.(check int) "roots duration" 10 d1;
    Alcotest.(check int) "second span start" 10 c2;
    Alcotest.(check int) "phase code" Tracer.ev_phase k2;
    Alcotest.(check int) "scan phase" Tracer.phase_scan p2;
    Alcotest.(check int) "scan duration closed by finish" 15 d2
  | evs -> Alcotest.failf "expected 2 phase events, got %d" (List.length evs)

let test_stall_run_merging () =
  let t = Tracer.create ~n_cores:2 () in
  Tracer.enable t;
  (* Three contiguous same-kind singles merge; a gap or a kind change
     flushes. *)
  Tracer.stall_run t ~core:0 ~kind:0 ~cycle:10 ~span:1;
  Tracer.stall_run t ~core:0 ~kind:0 ~cycle:11 ~span:1;
  Tracer.stall_run t ~core:0 ~kind:0 ~cycle:12 ~span:1;
  Tracer.stall_run t ~core:0 ~kind:3 ~cycle:13 ~span:2;
  Tracer.stall_run t ~core:0 ~kind:3 ~cycle:20 ~span:1;
  Tracer.finish t ~cycle:30;
  let stalls =
    List.filter (fun (_, k, _, _, _) -> k = Tracer.ev_stall) (events t)
  in
  match stalls with
  | [ (10, _, 0, 0, 3); (13, _, 0, 3, 2); (20, _, 0, 3, 1) ] -> ()
  | evs ->
    Alcotest.failf "unexpected stall runs: %s"
      (String.concat "; "
         (List.map
            (fun (c, _, core, a, b) -> Printf.sprintf "(%d,c%d,k%d,%d)" c core a b)
            evs))

let test_ring_overflow_keeps_oldest () =
  let t = Tracer.create ~capacity:4 ~n_cores:1 () in
  Tracer.enable t;
  for i = 0 to 9 do
    Tracer.stall_run t ~core:0 ~kind:(i mod 7) ~cycle:(2 * i) ~span:1
  done;
  Tracer.finish t ~cycle:100;
  Alcotest.(check int) "bounded" 4 (Tracer.length t);
  Alcotest.(check bool) "drops counted" true (Tracer.dropped t > 0);
  match events t with
  | (c, _, _, _, _) :: _ -> Alcotest.(check int) "oldest kept" 0 c
  | [] -> Alcotest.fail "no events"

let test_serialize_excludes_skips () =
  let t = Tracer.create ~n_cores:1 () in
  Tracer.enable t;
  Tracer.skip_span t ~cycle:5 ~span:100;
  Tracer.stall_run t ~core:0 ~kind:1 ~cycle:200 ~span:3;
  Tracer.finish t ~cycle:300;
  let plain = Tracer.serialize t in
  let with_skips = Tracer.serialize ~include_skips:true t in
  Alcotest.(check bool) "skip absent by default" false
    (contains ~sub:(Printf.sprintf "5 %d" Tracer.ev_skip) plain);
  Alcotest.(check bool) "skip present on request" true
    (String.length with_skips > String.length plain);
  Alcotest.(check bool) "digests differ" true
    (Tracer.digest t <> Tracer.digest ~include_skips:true t)

let test_disabled_records_nothing () =
  let t = Tracer.disabled in
  Alcotest.(check bool) "off" false t.Tracer.on;
  Alcotest.(check int) "empty" 0 (Tracer.length t);
  let p = Profiler.disabled in
  Alcotest.(check bool) "profiler off" false p.Profiler.on

(* ------------------------------------------------------------------ *)
(* Profiler unit behavior                                              *)
(* ------------------------------------------------------------------ *)

let test_profiler_close_pads_idle () =
  (* Mirrors the machine contract: the halt cycle itself is attributed
     (a core halting at cycle h has h+1 cycles credited), and close pads
     total - 1 - h idle cycles for the post-halt tail. *)
  let p = Profiler.create ~n_cores:2 () in
  Profiler.enable p;
  Profiler.add p ~core:0 ~bucket:Profiler.bucket_busy 10;
  Profiler.note_halt p ~core:0 ~cycle:9;
  Profiler.add p ~core:1 ~bucket:3 25;
  Profiler.note_halt p ~core:1 ~cycle:24;
  Profiler.close p ~total:26;
  Profiler.close p ~total:26;
  (* idempotent *)
  Alcotest.(check int) "core 0 padded" 26 (Profiler.row_sum p ~core:0);
  Alcotest.(check int) "core 1 padded" 26 (Profiler.row_sum p ~core:1);
  Alcotest.(check int) "core 0 idle" 16
    (Profiler.get p ~core:0 ~bucket:Profiler.bucket_idle);
  Alcotest.(check int) "core 1 idle" 1
    (Profiler.get p ~core:1 ~bucket:Profiler.bucket_idle)

(* ------------------------------------------------------------------ *)
(* Live-coprocessor identities                                         *)
(* ------------------------------------------------------------------ *)

let instrumented_run ?faults ?(seed = 11) ?(latency = 0) ?interval ~workload
    ~n_cores ~skip () =
  let heap = Workloads.build_heap ~scale:0.05 ~seed workload in
  let obs = Tracer.create ?interval ~n_cores () in
  Tracer.enable obs;
  let prof = Profiler.create ~n_cores () in
  Profiler.enable prof;
  let mem = Memsys.with_extra_latency Memsys.default_config latency in
  let stats =
    Coprocessor.collect ~obs ~prof
      (Coprocessor.config ?faults ~mem ~skip ~n_cores ())
      heap
  in
  (stats, obs, prof)

let check_identities (stats : Coprocessor.gc_stats) prof =
  let total = stats.Coprocessor.total_cycles in
  let n = Profiler.n_cores prof in
  for c = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "core %d attribution closes to total cycles" c)
      total
      (Profiler.row_sum prof ~core:c)
  done;
  List.iteri
    (fun i s ->
      let counters =
        Array.fold_left
          (fun acc pc -> acc + Counters.get pc s)
          0 stats.Coprocessor.per_core
      in
      Alcotest.(check int)
        (Printf.sprintf "%s column equals counters" (Counters.stall_name s))
        counters
        (Profiler.column prof ~bucket:(i + 1)))
    Counters.all_stalls

let test_accounting_closes () =
  List.iter
    (fun n_cores ->
      let stats, _, prof =
        instrumented_run ~workload:Workloads.javac ~n_cores ~skip:true ()
      in
      check_identities stats prof)
    [ 1; 4; 16 ]

(* The profile matrix is a property of the machine: the default engine
   (spinners parked, idle spans skipped) and naive stepping attribute
   every core x cycle identically. *)
let test_profile_skip_naive_identical () =
  List.iter
    (fun workload ->
      List.iter
        (fun n_cores ->
          List.iter
            (fun latency ->
              let _, _, prof_skip =
                instrumented_run ~latency ~workload ~n_cores ~skip:true ()
              in
              let _, _, prof_naive =
                instrumented_run ~latency ~workload ~n_cores ~skip:false ()
              in
              for c = 0 to n_cores - 1 do
                for b = 0 to Profiler.n_buckets - 1 do
                  let naive = Profiler.get prof_naive ~core:c ~bucket:b
                  and skip = Profiler.get prof_skip ~core:c ~bucket:b in
                  if naive <> skip then
                    Alcotest.failf
                      "%s/%d +%d: core %d %s differs (naive %d, skip %d)"
                      workload.Workloads.name n_cores latency c
                      (Profiler.bucket_name b) naive skip
                done
              done)
            [ 0; 20 ])
        [ 4; 16 ])
    Workloads.all

(* Every tracer histogram is a pure function of the simulated machine:
   naive stepping, the default engine and its unparked twin (the same
   configuration with an inert fault plan) agree on count, sum, max and
   every bucket. The scan-lock holds include one zero-cycle hold per
   failed termination probe, in executed, skipped and parked cycles
   alike. So do the ascii and csv views of `gcsim trace` (Timeline), with
   every cell covered. Golden grid (seed 42), base and +20 latency. *)
let test_histograms_engine_independent () =
  let hists ?faults ~skip ~latency ~workload ~n_cores () =
    let _, obs, _ =
      instrumented_run ?faults ~seed:42 ~latency ~interval:16 ~workload
        ~n_cores ~skip ()
    in
    let v = Timeline.create obs in
    Timeline.absorb v;
    (Metrics.all_hists (Tracer.metrics obs), Timeline.to_csv v ^ Timeline.timeline v)
  in
  let check ctx ~other_name (reference, view) (other, other_view) =
    if String.contains view '?' then Alcotest.failf "%s: a cell no span covers" ctx;
    if other_view <> view then
      Alcotest.failf "%s: the %s view differs" ctx other_name;
    List.iter2
      (fun h o ->
        let name = Metrics.hist_name h in
        let chk what a b =
          if a <> b then
            Alcotest.failf "%s: %s %s differs (naive %d, %s %d)" ctx name what
              a other_name b
        in
        chk "count" (Metrics.hist_count h) (Metrics.hist_count o);
        chk "sum" (Metrics.hist_sum h) (Metrics.hist_sum o);
        chk "max" (Metrics.hist_max h) (Metrics.hist_max o);
        for b = 0 to Metrics.hist_buckets - 1 do
          chk
            (Printf.sprintf "bucket %d" b)
            (Metrics.hist_bucket h b) (Metrics.hist_bucket o b)
        done)
      reference other
  in
  List.iter
    (fun workload ->
      List.iter
        (fun n_cores ->
          List.iter
            (fun latency ->
              let ctx =
                Printf.sprintf "%s/%d +%d" workload.Workloads.name n_cores
                  latency
              in
              let naive = hists ~skip:false ~latency ~workload ~n_cores () in
              check ctx ~other_name:"parked" naive
                (hists ~skip:true ~latency ~workload ~n_cores ());
              check ctx ~other_name:"skip" naive
                (hists ~faults:Injector.default_spec ~skip:true ~latency
                   ~workload ~n_cores ()))
            [ 0; 20 ])
        [ 1; 4; 16 ])
    Workloads.all

let test_trace_deterministic () =
  let _, obs1, _ =
    instrumented_run ~workload:Workloads.cup ~n_cores:4 ~skip:true ()
  in
  let _, obs2, _ =
    instrumented_run ~workload:Workloads.cup ~n_cores:4 ~skip:true ()
  in
  Alcotest.(check string) "same seed, same event stream"
    (Tracer.serialize ~include_skips:true obs1)
    (Tracer.serialize ~include_skips:true obs2)

let test_trace_skip_invariant () =
  (* Kernel skip spans aside, the event stream is a property of the
     simulated machine, not of the stepping strategy. *)
  let _, obs_skip, _ =
    instrumented_run ~workload:Workloads.db ~n_cores:4 ~skip:true ()
  in
  let _, obs_naive, _ =
    instrumented_run ~workload:Workloads.db ~n_cores:4 ~skip:false ()
  in
  Alcotest.(check string) "digest identical skip vs naive"
    (Tracer.digest obs_naive) (Tracer.digest obs_skip)

let test_tracer_does_not_perturb () =
  let stats, _, _ =
    instrumented_run ~workload:Workloads.javacc ~n_cores:8 ~skip:true ()
  in
  let heap = Workloads.build_heap ~scale:0.05 ~seed:11 Workloads.javacc in
  let plain = Coprocessor.collect (Coprocessor.config ~n_cores:8 ()) heap in
  Alcotest.(check int) "cycle count identical with instruments attached"
    plain.Coprocessor.total_cycles stats.Coprocessor.total_cycles

let test_metrics_populated () =
  let _, obs, _ =
    instrumented_run ~workload:Workloads.javac ~n_cores:4 ~skip:true ()
  in
  let m = Tracer.metrics obs in
  let find name =
    List.find (fun h -> Metrics.hist_name h = name) (Metrics.all_hists m)
  in
  Alcotest.(check bool) "scan-lock holds observed" true
    (Metrics.hist_count (find "scan-lock hold cycles") > 0);
  Alcotest.(check bool) "object latencies observed" true
    (Metrics.hist_count (find "per-object scan latency") > 0);
  Alcotest.(check bool) "body loads observed" true
    (Metrics.hist_count (find "body-load latency") > 0);
  Alcotest.(check bool) "latencies are positive cycles" true
    (Metrics.hist_percentile (find "body-load latency") 1 >= 1)

let test_small_tracer_on_real_run () =
  (* A deliberately tiny ring on a real collection: bounded, counted,
     and every surviving event stamped inside the run. (Events carry
     their span's *start* cycle but land in the ring in close order, so
     global timestamp monotonicity is not a property of the stream.) *)
  let heap = Workloads.build_heap ~scale:0.05 ~seed:11 Workloads.db in
  let obs = Tracer.create ~capacity:256 ~n_cores:4 () in
  Tracer.enable obs;
  let stats =
    Coprocessor.collect ~obs (Coprocessor.config ~n_cores:4 ()) heap
  in
  Alcotest.(check int) "bounded" 256 (Tracer.length obs);
  Alcotest.(check bool) "drops counted" true (Tracer.dropped obs > 0);
  let ok = ref true in
  Tracer.iter obs (fun ~cycle ~code:_ ~core:_ ~a:_ ~b:_ ->
      if cycle < 0 || cycle > stats.Coprocessor.total_cycles then ok := false);
  Alcotest.(check bool) "timestamps within the run" true !ok

let test_perfetto_export () =
  let _, obs, _ =
    instrumented_run ~workload:Workloads.cup ~n_cores:2 ~skip:true ()
  in
  let json = Perfetto.to_string obs in
  Alcotest.(check bool) "object form" true
    (String.length json > 2 && json.[0] = '{');
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" sub) true
        (contains ~sub json))
    [
      "\"traceEvents\"";
      "\"displayTimeUnit\"";
      "core 0";
      "core 1 waits";
      "gray backlog";
      "FIFO depth";
      "\"ph\":\"X\"";
      "\"ph\":\"C\"";
    ];
  (* Crude structural check: braces and brackets balance. *)
  let depth = ref 0 and square = ref 0 and in_str = ref false in
  String.iter
    (fun c ->
      if !in_str then (if c = '"' then in_str := false)
      else
        match c with
        | '"' -> in_str := true
        | '{' -> incr depth
        | '}' -> decr depth
        | '[' -> incr square
        | ']' -> decr square
        | _ -> ())
    json;
  Alcotest.(check int) "braces balanced" 0 !depth;
  Alcotest.(check int) "brackets balanced" 0 !square

(* ------------------------------------------------------------------ *)
(* Property: the accounting identity under random configuration        *)
(* ------------------------------------------------------------------ *)

let qcheck_accounting =
  QCheck.Test.make ~count:12
    ~name:
      "per-core attribution sums to cycles and stall columns equal \
       counters (any workload/cores/faults/stepping)"
    QCheck.(
      quad (int_range 1 16) (int_range 0 7) bool (int_range 0 1000))
    (fun (n_cores, widx, skip, fseed) ->
      let workload = List.nth Workloads.all widx in
      let faults =
        if fseed mod 3 = 0 then None
        else
          Some
            (Injector.delay_class ~seed:fseed
               ~intensity:(0.01 *. float_of_int (1 + (fseed mod 20)))
               ())
      in
      let heap = Workloads.build_heap ~scale:0.03 ~seed:5 workload in
      let prof = Profiler.create ~n_cores () in
      Profiler.enable prof;
      let stats =
        Coprocessor.collect ~prof
          (Coprocessor.config ?faults ~skip ~n_cores ())
          heap
      in
      let total = stats.Coprocessor.total_cycles in
      let rows_ok =
        List.for_all
          (fun c -> Profiler.row_sum prof ~core:c = total)
          (List.init n_cores (fun c -> c))
      in
      let cols_ok =
        List.for_all
          (fun (i, s) ->
            Profiler.column prof ~bucket:(i + 1)
            = Array.fold_left
                (fun acc pc -> acc + Counters.get pc s)
                0 stats.Coprocessor.per_core)
          (List.mapi (fun i s -> (i, s)) Counters.all_stalls)
      in
      if not rows_ok then
        QCheck.Test.fail_reportf "row sums broken (%s, %d cores, skip=%b)"
          workload.Workloads.name n_cores skip;
      if not cols_ok then
        QCheck.Test.fail_reportf "stall columns broken (%s, %d cores, skip=%b)"
          workload.Workloads.name n_cores skip;
      true)

let suite =
  [
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "metrics registry order" `Quick
      test_metrics_registry_order;
    Alcotest.test_case "metrics bulk observation" `Quick
      test_metrics_observe_n;
    Alcotest.test_case "metrics clamps negatives" `Quick
      test_metrics_negative_clamped;
    Alcotest.test_case "phase spans" `Quick test_phase_spans;
    Alcotest.test_case "stall-run merging" `Quick test_stall_run_merging;
    Alcotest.test_case "ring overflow keeps oldest" `Quick
      test_ring_overflow_keeps_oldest;
    Alcotest.test_case "serialize excludes skip spans" `Quick
      test_serialize_excludes_skips;
    Alcotest.test_case "disabled instruments record nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "profiler close pads idle" `Quick
      test_profiler_close_pads_idle;
    Alcotest.test_case "accounting closes at 1/4/16 cores" `Quick
      test_accounting_closes;
    Alcotest.test_case "profile identical skip vs naive" `Quick
      test_profile_skip_naive_identical;
    Alcotest.test_case "histograms identical naive, skip and parked" `Quick
      test_histograms_engine_independent;
    Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "trace digest skip-invariant" `Quick
      test_trace_skip_invariant;
    Alcotest.test_case "tracer does not perturb the machine" `Quick
      test_tracer_does_not_perturb;
    Alcotest.test_case "metrics populated by a real run" `Quick
      test_metrics_populated;
    Alcotest.test_case "tiny ring on a real run" `Quick
      test_small_tracer_on_real_run;
    Alcotest.test_case "perfetto export" `Quick test_perfetto_export;
    QCheck_alcotest.to_alcotest qcheck_accounting;
  ]
