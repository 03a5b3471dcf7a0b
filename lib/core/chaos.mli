(** Chaos campaigns: systematic fault-injection sweeps over the
    (fault class × intensity × workload) matrix.

    Each campaign point runs one collection with a seeded fault plan
    ({!Hsgc_fault.Injector}) and a reference run without faults, then
    classifies the outcome:

    - {b delay-class} points must terminate (within a cycle budget
      derived from the fault-free run) {i and} verify cleanly — against
      both {!Hsgc_heap.Verify.check_collection} and the {!Cheney_seq}
      oracle — demonstrating the microprogram is correct under
      perturbed timing (metamorphic robustness);
    - {b corruption-class} points measure the verifier's detection
      coverage: every point whose injector actually fired must be
      {e detected} (verification failure or structured simulator
      error); a corrupted run that verifies cleanly is a {e silent
      pass} — the one outcome the acceptance bar sets to zero. *)

type klass = [ `Delay | `Corruption ]

type point = {
  klass : klass;
  intensity : float;  (** per-event fault probability *)
  workload : string;
  n_cores : int;
  seed : int;  (** workload seed; the injector seed derives from it *)
}

type classification =
  | Clean  (** terminated, verified OK (and for corruption: no fault fired) *)
  | Detected of string  (** corruption caught — by the verifier or a
                            structured simulator error *)
  | Silent of int
      (** corrupted ([n] flips) yet verified clean — a verifier gap *)
  | Hung of string
      (** watchdog trip / divergence / overflow on a delay-class point —
          a timing-robustness failure of the microprogram *)

type point_result = {
  point : point;
  attempt : int;  (** retry attempt that produced this result *)
  terminated : bool;
  classification : classification;
  faults : int;  (** faults injected, both classes *)
  corruptions : int;  (** corruption-class faults injected *)
  cycles : int;  (** faulted-run collection length (0 when not terminated) *)
  baseline_cycles : int;  (** fault-free run of the same heap *)
}

type summary = {
  results : point_result list;
  delay_points : int;
  delay_terminated : int;
  delay_clean : int;  (** terminated and verified (incl. oracle) *)
  corruption_points : int;
  corruption_armed : int;  (** points whose injector fired at least once *)
  corruption_detected : int;
  corruption_silent : int;
  mean_delay_overhead : float;
      (** mean of [cycles/baseline - 1] over terminated delay points *)
}

val default_intensities : klass -> float list
(** Delay: [0.02; 0.1; 0.3]. Corruption: [0.002; 0.01; 0.05] (bit flips
    are per copied word, so small probabilities already fire often). *)

val default_matrix :
  ?workloads:string list ->
  ?cores:int list ->
  ?intensities:(klass -> float list) ->
  ?seed:int ->
  unit ->
  point list
(** The full campaign matrix: both classes × {!default_intensities} ×
    all workloads (or [workloads]) × [cores] (default [[8]]). *)

val run_point : ?scale:float -> ?attempt:int -> point -> point_result
(** Run one campaign point: fault-free baseline, then the faulted run
    under a cycle budget of 50× the baseline (plus slack), then
    classification. [attempt] (default 0) perturbs the injector seed
    deterministically — the reseed-on-retry hook for
    {!Hsgc_sim.Domain_pool.map_list_policy}. *)

val run :
  ?scale:float ->
  ?jobs:int ->
  ?on_error:Hsgc_sim.Domain_pool.error_policy ->
  point list ->
  summary
(** Run the campaign, distributing points over [jobs] domains ([<= 0]
    = auto: {!Hsgc_sim.Domain_pool.recommended_jobs} clamped to the
    point count). Points are isolated per [on_error] (default [Skip] —
    a crashed point surfaces as [Hung] rather than killing the
    campaign). Results keep matrix order at every [jobs] level. *)

val render : summary -> string
(** Human-readable campaign report (per-point table + rates). *)

(** Interrupt campaign — the crash-safety counterpart of the fault
    matrix. Each point kills a checkpointing run at a deterministic
    random cycle mid-collection (an in-process stand-in for SIGINT; the
    CI resume-smoke job covers a real SIGKILL), resumes from the latest
    snapshot, and demands the resumed final state — verify result,
    total cycle count, per-core counters, trace digest — is identical
    to an uninterrupted run's. A corrupt-detection leg flips one byte
    in every section payload of the kill-time snapshot and demands the
    loader refuses each mutant ({!Hsgc_checkpoint.Checkpoint.Corrupt}).
    Acceptance gates: both rates are 1.0. *)
module Interrupt : sig
  type point = {
    workload : string;
    n_cores : int;
    seed : int;  (** workload seed *)
    draw : int;  (** kill-cycle draw index — varies the kill position *)
  }

  type point_result = {
    point : point;
    total_cycles : int;  (** uninterrupted collection length *)
    kill_cycle : int;  (** deterministic random kill position *)
    checkpoints : int;  (** snapshot files on disk at the kill *)
    equivalent : bool;
    mismatch : string option;  (** first differing statistic, if any *)
    corrupt_flips : int;  (** sections mutated in the corrupt leg *)
    corrupt_caught : int;  (** mutants refused by their section CRC *)
  }

  type summary = {
    results : point_result list;
    points : int;
    equivalent : int;
    corrupt_flips : int;
    corrupt_caught : int;
  }

  val default_matrix :
    ?workloads:string list ->
    ?cores:int list ->
    ?draws:int ->
    ?seed:int ->
    unit ->
    point list
  (** All workloads (or [workloads]) × [cores] (default [[8]]) × [draws]
      kill positions (default 2). *)

  val run_point : ?scale:float -> point -> point_result
  (** Uninterrupted reference run, killed-and-checkpointed run, corrupt
      leg, resumed run, equivalence comparison. Checkpoints live in a
      fresh temporary directory, removed before returning. *)

  val run : ?scale:float -> ?jobs:int -> point list -> summary

  val passed : summary -> bool
  (** Both gates at 100%: every point resume-equivalent, every flip
      refused. *)

  val render : summary -> string

  val to_json : summary -> string
  (** Standalone JSON object (also what {!val:to_json} embeds under
      ["interrupt"] in BENCH_chaos.json). *)
end

val to_json : ?interrupt:Interrupt.summary -> summary -> string
(** The BENCH_chaos.json payload: campaign rates plus the per-point
    records; [interrupt] adds the interrupt campaign's record under an
    ["interrupt"] key. *)
