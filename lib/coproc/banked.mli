(** The banked variant machine and its differential-parity harness.

    The paper's machine (the {e dense} machine, {!Coprocessor}) gives
    every core one shared synchronization block and one shared memory
    bus: every lock probe and every memory initiation arbitrates
    globally, every cycle. The {e banked} machine explored here trades
    that away: the cores are split into [banks] equal groups, each bank
    owning a {e private} synchronization block (its own scan/free/lock
    registers over its {e home range} — a contiguous, object-aligned
    chunk of the occupied fromspace) and a {e private} memory
    arbitration lane with the full per-cycle bandwidth. Banks step
    {e concurrently} (real domains, {!Hsgc_sim.Domain_pool.Pool}), and
    the only cross-bank interface is the header FIFO: a bank that
    discovers a pointer into a foreign home range does not touch the
    foreign bank's registers — it stores the stale pointer and posts a
    {e remote request} (slot, child) to its outbox. At every superstep
    barrier a serial arbitration step drains the outboxes in
    deterministic order and routes each request through the child's
    home bank ({!Coprocessor.mutator_evacuate} — exactly the gray-push
    protocol the hardware FIFO interface performs), patching the stale
    slot with the forwarding address.

    Each bank evacuates into a private tospace slice sized like its
    home range (so per-bank overflow is impossible); a final serial
    {e stitch} slides the slices together, rewrites every pointer by
    its slice offset and flips the heap, leaving the exact compacted
    tospace layout a collector is expected to produce.

    This machine is deliberately {b not} cycle-identical to the dense
    machine — private banks see no cross-bank contention, and the
    arbitration/stitch steps are modeled serially. What it {e must}
    preserve is the collection {e semantics}, and that contract is
    checked by a first-class harness ({!differential}) rather than
    assumed:

    - the post-collection heap passes {!Hsgc_heap.Verify.check_collection}
      against the pre-collection reachability snapshot;
    - the banked post-heap snapshot equals the dense post-heap snapshot
      ({!Hsgc_heap.Verify.equal_snapshot}: same live set, same
      reachable-object structure);
    - conserved counters match the dense run: [live_objects],
      [live_words], total objects scanned, total words copied;
    - internal arbitration identities hold: every remote request is
      resolved by exactly one slot fixup, and every routed child is
      either a hit on an already-forwarded object or one arbiter
      evacuation.

    Determinism: a superstep gives every non-quiescent bank a fixed
    number of step calls ([quantum]); a bank's evolution depends only
    on its own state and its inbox at the superstep start, and the
    barrier drains outboxes in bank order — so every statistic and the
    final heap are byte-identical for any lane count and across
    repeated runs. *)

val default_quantum : int
(** Step calls per bank per superstep when the caller does not choose
    ([512]). Smaller quanta tighten arbitration latency; larger quanta
    amortize barrier overhead. Any value ≥ 1 yields the same final
    heap; only cycle accounting of the arbitration interleave shifts. *)

(** Per-run statistics of the banked driver, alongside the aggregate
    {!Coprocessor.gc_stats}. *)
type stats = {
  banks : int;
  lanes : int;  (** domains that stepped the banks (≤ banks) *)
  quantum : int;
  supersteps : int;
  arb_rounds : int;  (** barriers that processed ≥ 1 request *)
  remote_requests : int;
      (** bank-crossing pointers diverted to the arbitration interface *)
  remote_hits : int;
      (** routed children already forwarded (cheap FIFO hit) *)
  arb_evacuations : int;
      (** evacuations performed by the arbitration step itself (the
          routed child was still white in its home bank) *)
  root_routes : int;  (** root slots routed in arbitration round 0 *)
  requeues : int;
      (** [`Wait] retries: the home bank held a conflicting lock
          mid-evacuation when the request was routed *)
  arb_cycles : int;
      (** modeled serial cost of all arbitration work (evacuation
          costs, slot fixups, requeues, root routing) *)
  root_cycles : int;  (** the root-routing share of [arb_cycles] *)
  stitch_cycles : int;
      (** modeled serial cost of the final stitch: words slid plus
          pointers and roots rewritten *)
  parked_steps : int;
      (** bank-superstep slots skipped because the bank was quiescent
          (empty worklist, no locks, ports idle) *)
  fixups_applied : int;  (** stale slots patched; equals [remote_requests] *)
  bank_cycles : int array;  (** per-bank simulated clock at halt *)
  max_bank_cycles : int;
      (** the critical path: the aggregate [total_cycles] is
          [max_bank_cycles + arb_cycles + stitch_cycles] *)
  per_bank : Coprocessor.gc_stats array;
}

val validate_banks : n_cores:int -> banks:int -> (unit, string) result
(** [Error msg] when either count is [< 1], when there are more banks
    than cores, or when the bank count does not divide the core count
    (equal banks; one core per bank is the limit case). The message is
    suitable for a CLI error and proposes the nearest valid count. *)

val default_banks : n_cores:int -> int
(** Largest divisor of [n_cores] not above
    [Domain.recommended_domain_count ()] — the [--par-domains] auto
    default for [--banked]; always passes {!validate_banks}. *)

val collect :
  ?lanes:int ->
  ?quantum:int ->
  banks:int ->
  Coprocessor.config ->
  Hsgc_heap.Heap.t ->
  Coprocessor.gc_stats * stats
(** Run one full collection on the banked machine: cut home ranges,
    start one bank machine per [banks] with [n_cores / banks] cores
    each, route the roots, superstep to global quiescence, stitch and
    flip. The aggregate [gc_stats] counts the whole machine (counter
    sums over banks plus the arbitration step's evacuations;
    [total_cycles] is the modeled critical path).

    [lanes] (default: auto, clamped to [banks]) is the host-domain
    count; it changes wall-clock time only, never a statistic or the
    heap. Raises [Invalid_argument] when [banks] fails
    {!validate_banks} against [config.n_cores],
    when [quantum < 1], or when the config requests sub-object
    scanning (it has no banked variant).
    Raises {!Coprocessor.Heap_overflow} as the dense machine would. *)

(** {2 The differential harness} *)

(** Outcome of the semantic-equivalence check, one field per clause of
    the contract (see the module preamble). *)
type equivalence = {
  eq_verify : (unit, Hsgc_heap.Verify.failure) result;
      (** banked post-heap vs pre-collection snapshot *)
  eq_snapshot : bool;  (** banked post-heap = dense post-heap *)
  eq_live_objects : bool;
  eq_live_words : bool;
  eq_objects_scanned : bool;
  eq_words_copied : bool;
  eq_arbitration : bool;  (** internal request/fixup/route identities *)
}

val equivalent : equivalence -> bool
(** All clauses hold. *)

val pp_equivalence : Format.formatter -> equivalence -> unit

type comparison = {
  c_dense : Coprocessor.gc_stats;
  c_banked : Coprocessor.gc_stats;
  c_bstats : stats;
  c_equiv : equivalence;
}

val differential :
  ?lanes:int ->
  ?quantum:int ->
  banks:int ->
  Coprocessor.config ->
  (unit -> Hsgc_heap.Heap.t) ->
  comparison
(** Build two identical heaps with the thunk, collect one on the dense
    machine and one on the banked machine (same config, modulo the
    banking), and check the full equivalence contract. The thunk must
    be deterministic (build from a fixed seed). *)

val pp_stats : Format.formatter -> stats -> unit
