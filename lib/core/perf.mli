(** Stepping-throughput benchmark for the simulation kernel
    ([BENCH_sim.json]).

    Times {e collection only}: every heap is prebuilt outside the timed
    region and each leg's wall is [Coprocessor.wall_seconds] (monotonic,
    start-to-finalize), so the numbers measure the kernel's stepping
    loop rather than workload generation or table rendering — the
    quantity the event-driven scheduler optimizes. Each grid point runs
    three times (naive stepping, the default engine, and the default
    engine with the machine sanitizer attached) from identical heaps;
    the suite asserts full per-counter parity plus a verified
    bit-identical post-heap for the default engine (whose 1-core legs
    run lone-core batching), cycle-count equality for the sanitized
    run, that the sanitizer stays silent on every default
    configuration, and that the default run's minor allocation stays
    within the steady-state budgets (whole-collection and loop-only). *)

type leg = {
  workload : string;
  n_cores : int;
  cycles : int;  (** simulated = executed + skipped *)
  executed : int;
  skipped : int;
  naive_wall_s : float;  (** sim-only wall, skip disabled *)
  skip_wall_s : float;  (** sim-only wall, skip enabled *)
  san_wall_s : float;  (** sim-only wall, skip enabled, sanitizer on *)
  minor_words : float;  (** [Gc.minor_words] delta of the skip run *)
  loop_words : float;
      (** [Gc.minor_words] delta of the skip run's stepping loop alone —
          [start]/[finalize] setup excluded *)
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
  words_per_cycle : float;  (** minor words per executed cycle, skip runs *)
  sanitize_s : float;
  sanitizer_overhead : float;
      (** fractional throughput cost of attaching the sanitizer:
          sanitizer-on wall over sanitizer-off wall, minus one *)
  loop_words_per_cycle : float;
      (** minor words per executed cycle inside the skip runs' stepping
          loops alone; must stay ~0 *)
}

type obs_probe = {
  obs_workload : string;
  obs_cores : int;
  obs_cycles : int;
  obs_events : int;  (** events kept in the tracer ring *)
  obs_dropped : int;
  trace_digest : string;  (** golden-trace fingerprint of the event stream *)
  profile_busy_frac : float;
  profile_stall_frac : float;
  profile_idle_frac : float;
      (** the three fractions sum to 1 by the profiler's closure identity *)
  obs_wall_s : float;
  obs_overhead : float;  (** instrumented wall over plain wall, minus one *)
}
(** One fully instrumented collection (cup at 8 cores, tracer and
    profiler enabled) next to an identical plain run. The digest and
    profile fractions are deterministic simulation statistics; the
    overhead ratio records the tracer-ON cost. The probe raises
    {!Perf_regression} if instrumentation perturbs the cycle count or
    the per-core attribution stops summing to the total. *)

type banked_probe = {
  bk_workload : string;
  bk_cores : int;
  bk_dense_cycles : int;  (** dense-machine modeled collection length *)
  bk_dense_wall_s : float;
  bk_points : (int * int * float) list;
      (** (banks, banked modeled cycles, banked wall seconds at auto
          lanes) *)
  bk_speedup : float;
      (** dense wall over the best banked wall — recorded for humans;
          gated only on hosts with enough domains (see {!check}) *)
  bk_self_speedup : float;
      (** banked 1-lane wall over banked auto-lane wall at the deepest
          banking — the physically demonstrable concurrency win; gated
          only when the host has >= 4 recommended domains *)
  bk_host_lanes : int;
      (** [Domain.recommended_domain_count] at measurement time — the
          context a reader (and {!check}) needs to interpret the wall
          ratios *)
  bk_modeled_ratio : float;
      (** dense modeled cycles over banked modeled cycles at the deepest
          banking — deterministic, host-independent (below 1.0 is
          expected: the serial arbitration and stitch steps are charged
          in full) *)
  bk_remote_frac : float;
      (** remote (bank-crossing) requests per live object at the deepest
          banking — a deterministic statistic of the home-range cut *)
  bk_supersteps : int;
}
(** One collection (db at 16 cores) run on the dense machine and on the
    banked machine at 2/4/8 banks. The probe raises {!Perf_regression}
    if any banked point violates the semantic-equivalence contract
    ({!Hsgc_coproc.Banked.differential}) or if the sanitized banked leg
    reports a finding — the host-independent acceptance bars of the
    banked machine. *)

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

val default_cores : int list
(** The fig5 core grid, [1; 2; 4; 8; 16]. *)

val words_per_cycle_budget : float
(** Steady-state allocation budget (minor words per executed cycle);
    {!run} raises {!Perf_regression} beyond it. *)

val loop_words_per_cycle_budget : float
(** Allocation budget for the stepping loop alone — near zero, because
    the loop-only measurement has no setup cost to amortize. {!run}
    raises {!Perf_regression} beyond it. *)

exception Perf_regression of string
(** A hard invariant failed while benchmarking: the default engine broke
    statistic parity with naive stepping or post-heap verification, the
    sanitizer perturbed the cycle count or flagged a default
    configuration, or a hot loop allocated beyond budget. *)

val run :
  ?scale:float ->
  ?seed:int ->
  ?cores:int list ->
  ?latency_extra:int ->
  ?progress:(leg -> unit) ->
  unit ->
  suite
(** Run the full grid — every workload of {!Hsgc_objgraph.Workloads.all}
    at every core count, on the default memory and again with
    [latency_extra] (default 20) cycles added to every access.
    [progress] is called after each completed leg. *)

val to_json : suite -> string
(** Render the tracked [BENCH_sim.json] artifact. *)

val summary : suite -> string
(** Multi-line human summary (base, latency-bound, observability and
    banked probes). *)

val check : baseline:string -> suite -> (unit, string list) result
(** Compare a fresh suite against the committed [BENCH_sim.json]
    contents. Gates only host-independent metrics — skipped fractions
    (deterministic statistics), allocation rates, the latency-bound
    skip-speedup ratio (a pair of walls from the same process), and the
    banked machine's modeled-cycle ratio and remote-request fraction —
    each with 20% tolerance, plus the hard 1.0x bar on the latency-bound
    skip speedup; absolute Mcycles/s and the banked wall speedup are
    informational. The banked self-speedup carries a hard 1.30x floor
    that arms only on hosts with at least 4 recommended domains — on a
    single-thread runner a wall gate would test the host, not the
    code. [Error] carries one message per violated gate. *)
