(* Stepping-throughput benchmark for the simulation kernel.

   The end-to-end benchmark ([bench/e2e], [hsgcbench]) times whole sweep
   legs — workload generation, collection, verification and artifact
   rendering together — and splits that time by layer. This suite
   isolates the quantity the event-driven kernel actually optimizes: simulated cycles per second of *stepping* time. Every
   heap is prebuilt outside the timed region and the per-leg wall time
   is [Coprocessor.wall_seconds], which the kernel measures from
   [start] to [finalize] on a monotonic clock — collection only, no
   generation, no rendering, no table formatting.

   Alongside throughput the suite records the two portable health
   metrics the CI perf-smoke job checks (absolute Mcycles/s depends on
   the host; these do not):

   - [skipped_frac] — the fraction of simulated cycles the kernel
     fast-forwarded over. Deterministic for a given scale/seed, so a
     drop means the scheduler lost skipping ability, not a slow host.

   - [words_per_cycle] — minor-heap words allocated per executed cycle
     during a skip-enabled collection ([Gc.minor_words] around the
     collect). The hot loop is allocation-free in steady state, so this
     amortizes the fixed setup cost (core records, counters) over the
     run and must stay near zero. *)

module Workloads = Hsgc_objgraph.Workloads
module Coprocessor = Hsgc_coproc.Coprocessor
module Memsys = Hsgc_memsim.Memsys
module Counters = Hsgc_coproc.Counters
module Verify = Hsgc_heap.Verify

(* One (workload, core-count) grid point, collected three times from
   identical prebuilt heaps: naive stepping, the default engine
   (event-driven skipping, and lone-core batching on the 1-core legs),
   and the default engine with the machine sanitizer attached.
   Simulation statistics of the three runs are equal by the kernel's
   equivalence invariant and the sanitizer's observe-only contract (both
   asserted here — for the default engine down to every per-core
   counter and the verified post-heap); only wall and the
   executed/skipped split differ. *)
type leg = {
  workload : string;
  n_cores : int;
  cycles : int; (* simulated = executed + skipped *)
  executed : int;
  skipped : int;
  naive_wall_s : float; (* sim-only, skip disabled *)
  skip_wall_s : float; (* sim-only, skip enabled *)
  san_wall_s : float; (* sim-only, skip enabled, sanitizer attached *)
  minor_words : float; (* minor allocation of the skip run *)
  loop_words : float;
      (* minor allocation of the skip run's stepping loop alone
         (start/finalize setup excluded) — the quantity the loop
         allocation gate bounds *)
}

type aggregate = {
  sim_cycles : int;
  skipped_cycles : int;
  skipped_frac : float;
  naive_s : float;
  skip_s : float;
  naive_mcycles_per_s : float;
  skip_mcycles_per_s : float;
  skip_speedup : float;
  words_per_cycle : float; (* minor words per *executed* cycle, skip runs *)
  sanitize_s : float;
  sanitizer_overhead : float;
      (* sanitizer-on wall over sanitizer-off wall, minus one — the
         fractional throughput cost of attaching the checker *)
  loop_words_per_cycle : float;
      (* minor words per executed cycle inside the skip runs' stepping
         loops alone — must be ~0: the hot path is required to be
         allocation-free, with no setup amortization excuse *)
}

(* One fully instrumented collection (tracer + profiler enabled) next to
   an identical plain run: the digest and profile fractions are
   deterministic simulation statistics; the overhead ratio is the
   tracer-ON cost (tracer-OFF cost is what the main legs gate — they all
   run against the shared disabled instruments). *)
type obs_probe = {
  obs_workload : string;
  obs_cores : int;
  obs_cycles : int;
  obs_events : int; (* events kept in the tracer ring *)
  obs_dropped : int;
  trace_digest : string; (* golden-trace fingerprint of the event stream *)
  profile_busy_frac : float;
  profile_stall_frac : float;
  profile_idle_frac : float; (* the three sum to 1 by the closure identity *)
  obs_wall_s : float;
  obs_overhead : float; (* instrumented wall over plain wall, minus one *)
}

(* The banked variant machine on a single run: the dense machine against
   Banked.collect at several bank counts. Semantic equivalence at every
   point and sanitizer silence are runtime assertions (raising
   Perf_regression — the host-independent acceptance bars); the two wall
   ratios are recorded always but gated only on hosts with enough
   domains to make a wall claim meaningful (a single-CPU runner overlaps
   nothing). The modeled-cycle ratio and the remote-request fraction are
   deterministic simulation statistics, gated against the baseline. *)
type banked_probe = {
  bk_workload : string;
  bk_cores : int;
  bk_dense_cycles : int;
  bk_dense_wall_s : float;
  bk_points : (int * int * float) list;  (* banks, modeled cycles, wall s *)
  bk_speedup : float;  (* dense wall over the best banked wall *)
  bk_self_speedup : float;  (* banked 1-lane wall over auto-lane wall *)
  bk_host_lanes : int;  (* recommended domain count at measurement *)
  bk_modeled_ratio : float;  (* dense cycles / banked cycles, max banks *)
  bk_remote_frac : float;  (* remote requests per live object, max banks *)
  bk_supersteps : int;
}

type suite = {
  scale : float;
  seed : int;
  base : aggregate;
  base_legs : leg list;
  latency_extra : int;
  latency : aggregate;
  obs : obs_probe;
  banked : banked_probe;
}

let default_cores = [ 1; 2; 4; 8; 16 ]

(* Steady-state hot-loop allocation budget, in minor words per executed
   cycle. The whole-collection measurement includes start/finalize
   setup, so the bound is a small constant rather than exactly zero;
   a regression that allocates per cycle (one boxed status record per
   port acceptance, say) lands orders of magnitude above it. Measured
   headroom at scale 0.5: ~0.015 words/cycle, all of it setup. *)
let words_per_cycle_budget = 0.02

(* The loop-only budget is far tighter because its measurement is
   fairer: the stepping loop is bracketed by [Gc.minor_words] on its
   own, with [start]/[finalize] setup excluded. The loop is required to
   be allocation-free — the budget is nonzero only to absorb
   [caml_minor_words] rounding and the odd word a competing thread of
   the test runner might charge us. *)
let loop_words_per_cycle_budget = 0.005

exception Perf_regression of string

(* The default engine's parity contract, checked stat by stat: every
   reported simulation statistic must be bit-identical to the naive
   reference — only wall time and the executed/skipped split may
   differ. A single aggregate that happens to match can hide two
   compensating errors; comparing each counter names the first one that
   diverged. *)
let assert_parity ~workload ~n_cores ~(naive : Coprocessor.gc_stats)
    ~(skip : Coprocessor.gc_stats) =
  let chk what a b =
    if a <> b then
      raise
        (Perf_regression
           (Printf.sprintf
              "%s/%d cores: the default engine diverged from naive on %s (%d \
               vs %d)"
              workload n_cores what a b))
  in
  chk "total_cycles" skip.total_cycles naive.total_cycles;
  chk "root_cycles" skip.root_cycles naive.root_cycles;
  chk "empty_worklist_cycles" skip.empty_worklist_cycles
    naive.empty_worklist_cycles;
  chk "live_objects" skip.live_objects naive.live_objects;
  chk "live_words" skip.live_words naive.live_words;
  chk "fifo_hits" skip.fifo_hits naive.fifo_hits;
  chk "fifo_misses" skip.fifo_misses naive.fifo_misses;
  chk "fifo_overflows" skip.fifo_overflows naive.fifo_overflows;
  chk "mem_loads" skip.mem_loads naive.mem_loads;
  chk "mem_stores" skip.mem_stores naive.mem_stores;
  chk "mem_rejected_bandwidth" skip.mem_rejected_bandwidth
    naive.mem_rejected_bandwidth;
  chk "mem_rejected_order" skip.mem_rejected_order naive.mem_rejected_order;
  chk "header_cache_hits" skip.header_cache_hits naive.header_cache_hits;
  chk "header_cache_misses" skip.header_cache_misses
    naive.header_cache_misses;
  (* Counters.t is a record of ints, so structural equality compares all
     eleven stall/work counters of every core at once. *)
  if skip.per_core <> naive.per_core then
    raise
      (Perf_regression
         (Printf.sprintf
            "%s/%d cores: the default engine diverged from naive on the \
             per-core counters"
            workload n_cores))

let run_leg ~scale ~seed ~mem ~workload ~n_cores =
  let naive_heap = Workloads.build_heap ~scale ~seed workload in
  let skip_heap = Workloads.build_heap ~scale ~seed workload in
  let san_heap = Workloads.build_heap ~scale ~seed workload in
  (* Canonical reachable-graph snapshot before any collection runs (the
     three heaps are built identically, so one snapshot serves). The
     BFS allocates heavily; collect its scratch — and the previous
     leg's verification garbage — before the timed region so snapshot
     debris does not tax the timed walls with GC work. *)
  let pre = Verify.snapshot skip_heap in
  Gc.full_major ();
  let naive =
    Coprocessor.collect
      (Coprocessor.config ~mem ~skip:false ~n_cores ())
      naive_heap
  in
  (* The skip run goes through the stepped interface so the allocation
     measurement can bracket the stepping loop alone: [start]/[finalize]
     legitimately allocate (core records, counters, the stats record),
     but the loop itself must not. *)
  let w0 = Gc.minor_words () in
  let sim =
    Coprocessor.start (Coprocessor.config ~mem ~skip:true ~n_cores ()) skip_heap
  in
  let lw0 = Gc.minor_words () in
  while not (Coprocessor.halted sim) do
    Coprocessor.step sim
  done;
  let loop_words = Gc.minor_words () -. lw0 in
  let skip = Coprocessor.finalize sim in
  let minor_words = Gc.minor_words () -. w0 in
  let san =
    Coprocessor.collect
      (Coprocessor.config ~mem ~skip:true
         ~sanitize:Hsgc_sanitizer.Sanitizer.Check ~n_cores ())
      san_heap
  in
  assert_parity ~workload:workload.Workloads.name ~n_cores ~naive ~skip;
  (* Semantic verification on top of statistic parity: the skip run's
     post-heap is a correct collection of the pre-graph, and is
     canonically identical to the naive run's post-heap. *)
  (match Verify.check_collection ~pre skip_heap with
  | Ok () -> ()
  | Error f ->
    raise
      (Perf_regression
         (Printf.sprintf "%s/%d cores: the default engine's post-heap failed \
                          verification: %s"
            workload.Workloads.name n_cores
            (Format.asprintf "%a" Verify.pp_failure f))));
  if
    not
      (Verify.equal_snapshot (Verify.snapshot naive_heap)
         (Verify.snapshot skip_heap))
  then
    raise
      (Perf_regression
         (Printf.sprintf
            "%s/%d cores: the default engine's post-heap differs from the \
             naive post-heap"
            workload.Workloads.name n_cores));
  if san.Coprocessor.total_cycles <> skip.Coprocessor.total_cycles then
    raise
      (Perf_regression
         (Printf.sprintf
            "%s/%d cores: sanitizer run took %d cycles, plain %d — the \
             sanitizer perturbed the simulation"
            workload.Workloads.name n_cores san.Coprocessor.total_cycles
            skip.Coprocessor.total_cycles));
  if san.Coprocessor.sanitizer_total > 0 then
    raise
      (Perf_regression
         (Printf.sprintf
            "%s/%d cores: sanitizer flagged %d violation(s) on a default \
             configuration"
            workload.Workloads.name n_cores san.Coprocessor.sanitizer_total));
  {
    workload = workload.Workloads.name;
    n_cores;
    cycles = skip.Coprocessor.total_cycles;
    executed = skip.Coprocessor.executed_cycles;
    skipped = skip.Coprocessor.skipped_cycles;
    naive_wall_s = naive.Coprocessor.wall_seconds;
    skip_wall_s = skip.Coprocessor.wall_seconds;
    san_wall_s = san.Coprocessor.wall_seconds;
    minor_words;
    loop_words;
  }

let aggregate legs =
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 legs in
  let sumf f = List.fold_left (fun acc l -> acc +. f l) 0.0 legs in
  let cycles = sum (fun l -> l.cycles) in
  let executed = sum (fun l -> l.executed) in
  let skipped = sum (fun l -> l.skipped) in
  let naive_s = sumf (fun l -> l.naive_wall_s) in
  let skip_s = sumf (fun l -> l.skip_wall_s) in
  let san_s = sumf (fun l -> l.san_wall_s) in
  let words = sumf (fun l -> l.minor_words) in
  let loop_words = sumf (fun l -> l.loop_words) in
  let rate wall = if wall > 0.0 then float_of_int cycles /. wall /. 1e6 else 0.0 in
  let per_executed words =
    if executed > 0 then words /. float_of_int executed else 0.0
  in
  {
    sim_cycles = cycles;
    skipped_cycles = skipped;
    skipped_frac =
      (if cycles > 0 then float_of_int skipped /. float_of_int cycles else 0.0);
    naive_s;
    skip_s;
    naive_mcycles_per_s = rate naive_s;
    skip_mcycles_per_s = rate skip_s;
    skip_speedup = naive_s /. Float.max 1e-9 skip_s;
    words_per_cycle = per_executed words;
    sanitize_s = san_s;
    sanitizer_overhead = (san_s /. Float.max 1e-9 skip_s) -. 1.0;
    loop_words_per_cycle = per_executed loop_words;
  }

let grid ~scale ~seed ~mem ~cores ~progress =
  List.concat_map
    (fun workload ->
      List.map
        (fun n_cores ->
          let leg = run_leg ~scale ~seed ~mem ~workload ~n_cores in
          progress leg;
          leg)
        cores)
    Workloads.all

let run_obs_probe ~scale ~seed =
  let module Tracer = Hsgc_obs.Tracer in
  let module Prof = Hsgc_obs.Profiler in
  let workload = Option.get (Workloads.find "cup") in
  let n_cores = 8 in
  let plain_heap = Workloads.build_heap ~scale ~seed workload in
  let instr_heap = Workloads.build_heap ~scale ~seed workload in
  let plain =
    Coprocessor.collect (Coprocessor.config ~n_cores ()) plain_heap
  in
  let obs = Tracer.create ~n_cores () in
  Tracer.enable obs;
  let prof = Prof.create ~n_cores () in
  Prof.enable prof;
  let instr =
    Coprocessor.collect ~obs ~prof (Coprocessor.config ~n_cores ()) instr_heap
  in
  if instr.Coprocessor.total_cycles <> plain.Coprocessor.total_cycles then
    raise
      (Perf_regression
         (Printf.sprintf
            "observability probe: instrumented run took %d cycles, plain %d \
             — the tracer perturbed the simulation"
            instr.Coprocessor.total_cycles plain.Coprocessor.total_cycles));
  let total = instr.Coprocessor.total_cycles in
  for c = 0 to n_cores - 1 do
    let s = Prof.row_sum prof ~core:c in
    if s <> total then
      raise
        (Perf_regression
           (Printf.sprintf
              "observability probe: core %d attribution sums to %d cycles, \
               expected %d — the profile no longer closes"
              c s total))
  done;
  let agg = float_of_int (total * n_cores) in
  let busy =
    float_of_int (Prof.column prof ~bucket:Prof.bucket_busy) /. agg
  in
  let idle =
    float_of_int (Prof.column prof ~bucket:Prof.bucket_idle) /. agg
  in
  let stall = float_of_int (Prof.total_stall_cycles prof) /. agg in
  {
    obs_workload = workload.Workloads.name;
    obs_cores = n_cores;
    obs_cycles = total;
    obs_events = Tracer.length obs;
    obs_dropped = Tracer.dropped obs;
    trace_digest = Tracer.digest obs;
    profile_busy_frac = busy;
    profile_stall_frac = stall;
    profile_idle_frac = idle;
    obs_wall_s = instr.Coprocessor.wall_seconds;
    obs_overhead =
      (instr.Coprocessor.wall_seconds
      /. Float.max 1e-9 plain.Coprocessor.wall_seconds)
      -. 1.0;
  }

let run_banked_probe ~scale ~seed =
  let module Banked = Hsgc_coproc.Banked in
  let workload = Option.get (Workloads.find "db") in
  let n_cores = 16 in
  let build () = Workloads.build_heap ~scale ~seed workload in
  let cfg ?sanitize () = Coprocessor.config ?sanitize ~n_cores () in
  let bank_counts = [ 2; 4; 8 ] in
  let max_banks = List.nth bank_counts (List.length bank_counts - 1) in
  (* Every bench point runs the full differential harness: the banked
     machine's results count only if the equivalence contract holds. *)
  let runs =
    List.map
      (fun banks ->
        let r = Banked.differential ~banks (cfg ()) build in
        if not (Banked.equivalent r.Banked.c_equiv) then
          raise
            (Perf_regression
               (Format.asprintf
                  "banked probe: %d banks violate the equivalence contract: \
                   %a"
                  banks Banked.pp_equivalence r.Banked.c_equiv));
        (banks, r))
      bank_counts
  in
  let _, r0 = List.hd runs in
  let dense = r0.Banked.c_dense in
  let _, rmax = List.nth runs (List.length runs - 1) in
  let smax = rmax.Banked.c_bstats in
  (* Sanitized banked leg: the private-bank protocol must be silent. *)
  let san, _ =
    Banked.collect ~banks:max_banks
      (cfg ~sanitize:Hsgc_sanitizer.Sanitizer.Check ())
      (build ())
  in
  if san.Coprocessor.sanitizer_total > 0 then
    raise
      (Perf_regression
         (Printf.sprintf
            "banked probe: sanitizer flagged %d violation(s) on the banked \
             machine"
            san.Coprocessor.sanitizer_total));
  (* The concurrency self-measure: same banked machine, one lane vs the
     host's recommended lanes. Byte-identical statistics either way
     (asserted cheaply via live counts); only the walls differ. The
     legs are interleaved, each preceded by a full major collection,
     and scored as min-of-3: this probe runs at the end of the whole
     bench suite, where a major-GC slice landing inside one ~25ms leg
     otherwise records pure allocator noise as a 5-10x "ratio". *)
  let measure lanes =
    Gc.full_major ();
    let s, _ = Banked.collect ~lanes ~banks:max_banks (cfg ()) (build ()) in
    s
  in
  let one_wall = ref infinity and auto_wall = ref infinity in
  let one_last = ref None and auto_last = ref None in
  for _ = 1 to 3 do
    let s1 = measure 1 in
    one_wall := Float.min !one_wall s1.Coprocessor.wall_seconds;
    one_last := Some s1;
    let s0 = measure 0 in
    auto_wall := Float.min !auto_wall s0.Coprocessor.wall_seconds;
    auto_last := Some s0
  done;
  let one_lane = Option.get !one_last in
  let auto_lane = Option.get !auto_last in
  let one_wall = !one_wall and auto_wall = !auto_wall in
  if one_lane.Coprocessor.live_objects <> auto_lane.Coprocessor.live_objects
  then
    raise
      (Perf_regression
         "banked probe: lane count changed the live-object count");
  let best_wall =
    List.fold_left
      (fun acc (_, r) ->
        Float.min acc r.Banked.c_banked.Coprocessor.wall_seconds)
      infinity runs
  in
  {
    bk_workload = workload.Workloads.name;
    bk_cores = n_cores;
    bk_dense_cycles = dense.Coprocessor.total_cycles;
    bk_dense_wall_s = dense.Coprocessor.wall_seconds;
    bk_points =
      List.map
        (fun (banks, r) ->
          ( banks,
            r.Banked.c_banked.Coprocessor.total_cycles,
            r.Banked.c_banked.Coprocessor.wall_seconds ))
        runs;
    bk_speedup =
      dense.Coprocessor.wall_seconds /. Float.max 1e-9 best_wall;
    bk_self_speedup = one_wall /. Float.max 1e-9 auto_wall;
    bk_host_lanes = Hsgc_sim.Domain_pool.recommended_jobs ();
    bk_modeled_ratio =
      float_of_int dense.Coprocessor.total_cycles
      /. Float.max 1.0
           (float_of_int auto_lane.Coprocessor.total_cycles);
    bk_remote_frac =
      (if auto_lane.Coprocessor.live_objects > 0 then
         float_of_int smax.Banked.remote_requests
         /. float_of_int auto_lane.Coprocessor.live_objects
       else 0.0);
    bk_supersteps = smax.Banked.supersteps;
  }

let run ?(scale = 0.5) ?(seed = 42) ?(cores = default_cores)
    ?(latency_extra = 20) ?(progress = fun _ -> ()) () =
  let base_legs =
    grid ~scale ~seed ~mem:Memsys.default_config ~cores ~progress
  in
  let lat_legs =
    grid ~scale ~seed
      ~mem:(Memsys.with_extra_latency Memsys.default_config latency_extra)
      ~cores ~progress
  in
  let base = aggregate base_legs in
  if base.words_per_cycle > words_per_cycle_budget then
    raise
      (Perf_regression
         (Printf.sprintf
            "hot loop allocates %.4f minor words per executed cycle (budget \
             %.2f) — steady state is no longer allocation-free"
            base.words_per_cycle words_per_cycle_budget));
  if base.loop_words_per_cycle > loop_words_per_cycle_budget then
    raise
      (Perf_regression
         (Printf.sprintf
            "the stepping loop allocates %.5f minor words per executed cycle \
             (budget %.3f) — the hot path must be allocation-free"
            base.loop_words_per_cycle loop_words_per_cycle_budget));
  {
    scale;
    seed;
    base;
    base_legs;
    latency_extra;
    latency = aggregate lat_legs;
    obs = run_obs_probe ~scale ~seed;
    banked = run_banked_probe ~scale ~seed;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let json_of_aggregate ~indent a =
  let pad = String.make indent ' ' in
  String.concat ""
    [
      Printf.sprintf "%s\"sim_cycles\": %d,\n" pad a.sim_cycles;
      Printf.sprintf "%s\"skipped_cycles\": %d,\n" pad a.skipped_cycles;
      Printf.sprintf "%s\"skipped_frac\": %.4f,\n" pad a.skipped_frac;
      Printf.sprintf "%s\"naive_wall_s\": %.4f,\n" pad a.naive_s;
      Printf.sprintf "%s\"skip_wall_s\": %.4f,\n" pad a.skip_s;
      Printf.sprintf "%s\"naive_mcycles_per_s\": %.2f,\n" pad
        a.naive_mcycles_per_s;
      Printf.sprintf "%s\"skip_mcycles_per_s\": %.2f,\n" pad a.skip_mcycles_per_s;
      Printf.sprintf "%s\"skip_speedup\": %.2f,\n" pad a.skip_speedup;
      Printf.sprintf "%s\"words_per_cycle\": %.5f,\n" pad a.words_per_cycle;
      Printf.sprintf "%s\"sanitize_wall_s\": %.4f,\n" pad a.sanitize_s;
      Printf.sprintf "%s\"sanitizer_overhead\": %.4f" pad a.sanitizer_overhead;
    ]

let to_json suite =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    "  \"benchmark\": \"hsgc stepping throughput (prebuilt heaps, sim-only \
     wall)\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"scale\": %g,\n" suite.scale);
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" suite.seed);
  Buffer.add_string buf (json_of_aggregate ~indent:2 suite.base);
  Buffer.add_string buf
    ",\n\
    \  \"note\": \"base skip_speedup near (or slightly below) 1.0 is \
     expected: at default memory latency the aggregate skipped_frac is \
     only ~0.27, so the wake-queue bookkeeping roughly cancels the \
     skipped cycles. The kernel's payoff is gated where skipping pays \
     — latency_bound.skip_speedup must be >= 1.0 (hard) and within \
     tolerance of the baseline.\",\n";
  Buffer.add_string buf "  \"legs\": [\n";
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"cores\": %d, \"cycles\": %d, \
            \"skipped_frac\": %.4f, \"skip_mcycles_per_s\": %.2f}"
           l.workload l.n_cores l.cycles
           (if l.cycles > 0 then
              float_of_int l.skipped /. float_of_int l.cycles
            else 0.0)
           (if l.skip_wall_s > 0.0 then
              float_of_int l.cycles /. l.skip_wall_s /. 1e6
            else 0.0)))
    suite.base_legs;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"latency_bound\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"extra_latency\": %d,\n" suite.latency_extra);
  Buffer.add_string buf (json_of_aggregate ~indent:4 suite.latency);
  Buffer.add_string buf "\n  },\n";
  let o = suite.obs in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"observability\": {\n\
       \    \"workload\": \"%s\",\n\
       \    \"cores\": %d,\n\
       \    \"cycles\": %d,\n\
       \    \"obs_events\": %d,\n\
       \    \"obs_dropped\": %d,\n\
       \    \"trace_digest\": \"%s\",\n\
       \    \"profile_busy_frac\": %.4f,\n\
       \    \"profile_stall_frac\": %.4f,\n\
       \    \"profile_idle_frac\": %.4f,\n\
       \    \"obs_wall_s\": %.4f,\n\
       \    \"obs_overhead\": %.4f\n\
       \  }\n"
       o.obs_workload o.obs_cores o.obs_cycles o.obs_events o.obs_dropped
       o.trace_digest o.profile_busy_frac o.profile_stall_frac
       o.profile_idle_frac o.obs_wall_s o.obs_overhead);
  Buffer.add_string buf ",\n";
  let k = suite.banked in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"banked\": {\n\
       \    \"workload\": \"%s\",\n\
       \    \"cores\": %d,\n\
       \    \"dense_cycles\": %d,\n\
       \    \"dense_wall_s\": %.4f,\n\
       \    \"points\": [%s],\n\
       \    \"banked_speedup\": %.2f,\n\
       \    \"banked_self_speedup\": %.2f,\n\
       \    \"banked_host_lanes\": %d,\n\
       \    \"banked_modeled_ratio\": %.4f,\n\
       \    \"banked_remote_frac\": %.4f,\n\
       \    \"banked_supersteps\": %d\n\
       \  }\n"
       k.bk_workload k.bk_cores k.bk_dense_cycles k.bk_dense_wall_s
       (String.concat ", "
          (List.map
             (fun (banks, cycles, wall) ->
               Printf.sprintf
                 "{\"banks\": %d, \"cycles\": %d, \"wall_s\": %.4f}" banks
                 cycles wall)
             k.bk_points))
       k.bk_speedup k.bk_self_speedup k.bk_host_lanes k.bk_modeled_ratio
       k.bk_remote_frac k.bk_supersteps);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let summary suite =
  let a = suite.base and l = suite.latency in
  String.concat "\n"
    [
      Printf.sprintf
        "base     : %.2f Mcycles/s skip (naive %.2f, speedup %.2fx), %.1f%% \
         skipped, %.5f minor words/cycle (%.5f in the loop), sanitizer \
         +%.1f%%"
        a.skip_mcycles_per_s a.naive_mcycles_per_s a.skip_speedup
        (100.0 *. a.skipped_frac)
        a.words_per_cycle a.loop_words_per_cycle
        (100.0 *. a.sanitizer_overhead);
      Printf.sprintf
        "latency+%d: %.2f Mcycles/s skip (naive %.2f, speedup %.2fx), %.1f%% \
         skipped"
        suite.latency_extra l.skip_mcycles_per_s l.naive_mcycles_per_s
        l.skip_speedup
        (100.0 *. l.skipped_frac);
      Printf.sprintf
        "obs probe: %s/%d cores, %d events (%d dropped), busy/stall/idle \
         %.1f/%.1f/%.1f%%, tracer-on +%.1f%%"
        suite.obs.obs_workload suite.obs.obs_cores suite.obs.obs_events
        suite.obs.obs_dropped
        (100.0 *. suite.obs.profile_busy_frac)
        (100.0 *. suite.obs.profile_stall_frac)
        (100.0 *. suite.obs.profile_idle_frac)
        (100.0 *. suite.obs.obs_overhead);
      Printf.sprintf
        "banked   : %s/%d cores, %.2fx wall over dense (self %.2fx at %d \
         host lanes), modeled ratio %.2f, %.3f remote req/object, %d \
         supersteps"
        suite.banked.bk_workload suite.banked.bk_cores
        suite.banked.bk_speedup suite.banked.bk_self_speedup
        suite.banked.bk_host_lanes suite.banked.bk_modeled_ratio
        suite.banked.bk_remote_frac suite.banked.bk_supersteps;
    ]

(* ------------------------------------------------------------------ *)
(* Baseline comparison (CI perf smoke)                                 *)
(* ------------------------------------------------------------------ *)

(* Minimal pull-what-we-need JSON field reader: the baseline file is
   machine-written by [to_json] above, so a full parser would be dead
   weight. Finds the *first* occurrence of ["field": number] — all the
   checked fields live in the top-level (base) section, which precedes
   the legs and the latency block. *)
let substring_index text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i =
    if i + nl > tl then None
    else if String.sub text i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let field_of_json text name =
  let needle = Printf.sprintf "\"%s\":" name in
  match substring_index text needle with
  | None -> None
  | Some i ->
    let start = i + String.length needle in
    let len = String.length text in
    let stop = ref start in
    while
      !stop < len
      &&
      match text.[!stop] with
      | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' | ' ' -> true
      | _ -> false
    do
      incr stop
    done;
    float_of_string_opt (String.trim (String.sub text start (!stop - start)))

(* The regression gate compares only host-independent metrics: the
   skipping fractions are deterministic simulation statistics, the
   allocation rate is a property of the hot loop, and the speedup
   ratios divide two walls measured on the same machine in the same
   process. Absolute Mcycles/s is recorded for humans but never
   gated — CI runners and dev laptops differ by integer factors. *)
let check ~baseline suite =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let get name =
    match field_of_json baseline name with
    | Some v -> v
    | None ->
      err "baseline is missing field %S" name;
      nan
  in
  let frac0 = get "skipped_frac" in
  let words0 = get "words_per_cycle" in
  let lat_speedup0 =
    (* The first skip_speedup occurrence is the base aggregate; the
       latency-bound one lives after its block marker. *)
    match substring_index baseline "\"latency_bound\"" with
    | None ->
      err "baseline is missing the latency_bound block";
      nan
    | Some i -> (
      match
        field_of_json
          (String.sub baseline i (String.length baseline - i))
          "skip_speedup"
      with
      | Some v -> v
      | None ->
        err "baseline latency_bound block has no skip_speedup";
        nan)
  in
  let tol = 0.20 in
  (if Float.is_nan frac0 then ()
   else if suite.base.skipped_frac < frac0 *. (1.0 -. tol) then
     err "base skipped_frac regressed: %.4f vs baseline %.4f"
       suite.base.skipped_frac frac0);
  (if Float.is_nan words0 then ()
   else
     let budget = Float.max (words0 *. (1.0 +. tol)) words_per_cycle_budget in
     if suite.base.words_per_cycle > budget then
       err "words_per_cycle regressed: %.5f vs baseline %.5f (budget %.5f)"
         suite.base.words_per_cycle words0 budget);
  (if Float.is_nan lat_speedup0 then ()
   else if suite.latency.skip_speedup < lat_speedup0 *. (1.0 -. tol) then
     err "latency-bound skip speedup regressed: %.2fx vs baseline %.2fx"
       suite.latency.skip_speedup lat_speedup0);
  (* Hard bar, independent of the baseline: with +20-cycle memory
     latency the event-driven kernel must actually win. Below 1.0x the
     wake-queue bookkeeping outweighs the skipped cycles even where
     skipping pays most — the fast path is broken, not merely slower.
     No absolute bar at base latency: there skipped_frac is only ~0.27
     and the aggregate legitimately hovers around 1.0x (see the "note"
     field of BENCH_sim.json). *)
  if suite.latency.skip_speedup < 1.0 then
    err
      "latency-bound skip speedup is %.2fx (< 1.00x): event-driven stepping \
       must beat naive stepping when memory-bound"
      suite.latency.skip_speedup;
  (* Sanitizer-on overhead: gated only against baselines that record it
     (pre-sanitizer baselines simply skip the check). Although a ratio
     of two same-host wall times, it swings tens of points between runs
     on a loaded shared runner, so the budget is deliberately wide —
     25 points of absolute slack or 2x relative, whichever is larger.
     It exists to catch a sanitizer that turns pathologically expensive
     (a hook on the per-cycle path, shadow state gone quadratic), not
     to police scheduler noise. *)
  (match field_of_json baseline "sanitizer_overhead" with
  | None -> ()
  | Some ov0 ->
    let budget = Float.max (ov0 +. 0.25) (ov0 *. 2.0) in
    if suite.base.sanitizer_overhead > budget then
      err "sanitizer-on overhead regressed: %.1f%% vs baseline %.1f%%"
        (100.0 *. suite.base.sanitizer_overhead)
        (100.0 *. ov0));
  (* Tracer-ON overhead of the observability probe, same wide budget and
     same only-if-recorded rule as the sanitizer gate. Tracer-OFF cost
     needs no gate of its own: every main leg runs against the shared
     disabled instruments, so a hook that grew expensive while off shows
     up directly in the gated throughput metrics above. *)
  (match field_of_json baseline "obs_overhead" with
  | None -> ()
  | Some ov0 ->
    let budget = Float.max (ov0 +. 0.25) (ov0 *. 2.0) in
    if suite.obs.obs_overhead > budget then
      err "tracer-on overhead regressed: %.1f%% vs baseline %.1f%%"
        (100.0 *. suite.obs.obs_overhead)
        (100.0 *. ov0));
  (* Banked-machine probe: the equivalence contract and sanitizer
     silence are asserted at runtime inside [run_banked_probe], so the
     gated fields here are the two deterministic statistics of the
     banked machine. The modeled-cycle ratio (dense/banked) dropping
     means the arbitration or stitch steps got more expensive per
     object; the remote-request fraction rising means the home-range
     cut started splitting more edges. Both only-if-recorded. *)
  (match field_of_json baseline "banked_modeled_ratio" with
  | None -> ()
  | Some r0 ->
    if suite.banked.bk_modeled_ratio < r0 *. (1.0 -. tol) then
      err "banked modeled-cycle ratio regressed: %.3f vs baseline %.3f"
        suite.banked.bk_modeled_ratio r0);
  (match field_of_json baseline "banked_remote_frac" with
  | None -> ()
  | Some f0 ->
    if suite.banked.bk_remote_frac > (f0 *. (1.0 +. tol)) +. 0.02 then
      err "banked remote-request fraction regressed: %.4f vs baseline %.4f"
        suite.banked.bk_remote_frac f0);
  (* Wall-clock concurrency bar for the banked machine, conditional on
     the host: the 1-lane/auto-lane ratio at the deepest banking is a
     same-process pair of walls, but it can only exceed 1.0 where the
     domain pool actually gets parallel hardware. On single-thread
     runners (recommended_jobs < 4) the gate stays dormant and the
     ratio is informational — gating it there would test the host, not
     the code. The floor is deliberately modest: 8 banks on >= 4 lanes
     must buy at least 1.3x over the same machine serialized. *)
  if suite.banked.bk_host_lanes >= 4 && suite.banked.bk_self_speedup < 1.3
  then
    err
      "banked self-speedup is %.2fx at %d host lanes (floor 1.30x): the \
       lane pool is not buying concurrency"
      suite.banked.bk_self_speedup suite.banked.bk_host_lanes;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
