(** The memory interface and access scheduler (paper Section V-D).

    A split-transaction pipelined memory: it accepts up to [bandwidth] new
    transactions per clock cycle; a load completes [load_latency] cycles
    after acceptance, a store [store_latency] cycles after. Transactions
    are initiated from the per-core port buffers ({!Port}); a rejected
    initiation is retried on subsequent cycles.

    Ordering rules, straight from the paper:
    - body accesses need no ordering (each body word is written once and
      read once, by a single core);
    - header loads are held back while a header store to the same address
      is pending (the "comparator array");
    - write-after-write ordering needs no hardware because the locking
      protocol guarantees a single writer per header.

    The scheduler also owns the header FIFO: gray-header stores push their
    frame address; the scan loop's header reads consult the FIFO first. *)

type config = {
  header_load_latency : int;
      (** cycles from acceptance to data available; headers show no
          spatial locality, so they pay a full random access *)
  body_load_latency : int;
      (** body reads are sequential (open-row hits), hence faster *)
  store_latency : int;  (** cycles from acceptance to commit (posted) *)
  bandwidth : int;  (** transactions accepted per cycle *)
  fifo_capacity : int;  (** header FIFO entries *)
  header_cache_entries : int;
      (** paper Section VII future work: an on-chip direct-mapped cache
          for header accesses. 0 (the default, matching the published
          prototype) disables it. Header stores update the cache at
          initiation, so a cached header is always current and a hit
          bypasses both the memory latency and the comparator-array
          hold. *)
}

val default_config : config
(** Prototype-like: fast memory relative to the 25 MHz cores (header
    loads 6 cycles, body loads 2, stores 1, bandwidth 8/cycle, FIFO
    32768). *)

val with_extra_latency : config -> int -> config
(** [with_extra_latency c n] adds [n] cycles to every access — the
    paper's Figure 6 experiment uses [n = 20]. *)

val with_header_cache : config -> int -> config
(** Enable the future-work header cache with the given entry count. *)

val validate_config : config -> (unit, string) result
(** Reject configurations the model cannot simulate: any latency below 1,
    [bandwidth < 1], [fifo_capacity < 1], negative
    [header_cache_entries]. The error is a human-readable message
    suitable for a command-line diagnostic. *)

(* The record is exposed for the same reason as {!Port.t} and
   {!Hsgc_hwsync.Sync_block.t}: without flambda every accessor is a real
   cross-module call, and the stepping engines probe the per-cycle
   acceptance budget and the comparator mask several times per simulated
   cycle. Read the fields freely; mutate only through the operations
   below, which maintain the counters and the ordering model. *)
type t = {
  config : config;
  fifo : Header_fifo.t;
  faults : Hsgc_fault.Injector.t;
  hooks : Hsgc_sanitizer.Hooks.t;
  lane : int;
      (** which private memory-arbitration lane this scheduler is, in a
          banked machine ({!Hsgc_coproc.Banked}): each bank's cores
          arbitrate a lane of their own (full [bandwidth] per cycle,
          invisible to other banks). [-1] (the default) is the paper's
          dense machine — one bus shared by every core. A label only:
          it stamps reports; the scheduling model is unchanged. *)
  header_cache : int array;  (** slot -> cached address (0 = empty) *)
  mutable ps_addr : int array;
      (** comparator array: pending header-store addresses, live prefix
          [0, ps_n) *)
  mutable ps_commit : int array;  (** their commit cycles, parallel *)
  mutable ps_n : int;
  mutable ps_mask : int;
      (** presence mask over [ps_addr land 31]: a clear bit proves no
          pending store hashes there, skipping the scan *)
  mutable accepted_this_cycle : int;
  mutable cycle : int;
  mutable loads : int;
  mutable stores : int;
  mutable rejected_bandwidth : int;
  mutable rejected_order : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

val create :
  ?faults:Hsgc_fault.Injector.t -> ?hooks:Hsgc_sanitizer.Hooks.t ->
  ?obs:Hsgc_obs.Tracer.t ->
  ?lane:int ->
  config -> t
(** Raises [Invalid_argument] when {!validate_config} rejects the
    config. [faults] (default disabled) injects delay-class
    perturbations: extra completion latency on accepted transactions,
    header-cache line invalidations, and header-FIFO push drops (the
    injector is shared with the FIFO created here). [hooks] (default
    nop) is shared with the header FIFO created here; an acceptance
    offered outside the [begin_cycle] contract raises
    {!Hsgc_sanitizer.Diag.Violation} instead of a bare assertion.
    [obs] (default disabled) is handed to the header FIFO for
    overflow-episode tracing. *)

val fifo : t -> Header_fifo.t
val lane : t -> int

val begin_cycle : t -> now:int -> unit
(** Reset the per-cycle acceptance budget. Must be called once per
    simulated cycle (or once per fast-forward target cycle) before any
    acceptance attempt. *)

val try_accept_load : t -> now:int -> header:bool -> addr:int -> int option
(** Attempt to start a load; [Some c] is the completion cycle. [None] when
    the cycle's bandwidth is exhausted or (for header loads) a header
    store to [addr] is still pending. *)

val try_accept_store : t -> now:int -> header:bool -> addr:int -> int option
(** Attempt to start a store; [Some c] is the commit cycle. Header stores
    are tracked for the comparator array until they commit. *)

val accept_body_load : t -> now:int -> int
val accept_body_store : t -> now:int -> int
val accept_header_load : t -> now:int -> addr:int -> int
val accept_header_store : t -> now:int -> addr:int -> int
(** Sentinel variants of {!try_accept_load} and {!try_accept_store} for
    the per-cycle hot path, one per transaction class ({!Port} fixes the
    class at creation): the completion or commit cycle, or [-1] when
    rejected. Allocation-free. A body transaction never touches the
    header cache, the comparator array or the FIFO, so the body variants
    are the clock check and the bandwidth budget alone, small enough to
    inline; a header load consults the comparator array only when the
    presence mask admits [addr]. *)

val store_commit_time : t -> addr:int -> int option
(** Commit cycle of a still-pending header store to [addr], if any.
    A pure peek: used to compute the wake-up time of an order-held
    header load. *)

val commit_after : t -> addr:int -> int
(** Sentinel variant of {!store_commit_time}: the commit cycle, or
    [max_int] when no store to [addr] is pending. Allocation-free. *)

val pending_store_count : t -> int
(** Number of still-pending (uncommitted) entries in the comparator
    array. Committed entries are compacted away on the next header-store
    insertion and are never visible here. Exposed for the table-growth
    regression test. *)

val next_wake : t -> now:int -> int option
(** Earliest pending header-store commit strictly after [now], if any —
    the memory system's self-scheduled event for the event-driven
    kernel. Loads in flight are tracked by the issuing {!Port}, not
    here. *)

val add_rejected_order : t -> int -> unit
(** Bulk-credit [n] comparator-array rejections. The idle-cycle-skipping
    kernel uses this to account the rejections that naive stepping would
    have recorded once per skipped cycle for each order-held load. *)

(** {2 Statistics} *)

val loads : t -> int
val stores : t -> int
val rejected_bandwidth : t -> int
(** Initiations rejected because the cycle's budget was exhausted. *)

val rejected_order : t -> int
(** Header loads held by the comparator array. *)

val header_cache_hits : t -> int
val header_cache_misses : t -> int

val reset_stats : t -> unit
(** Zero the counters only. Cached headers, pending comparator entries and
    the header FIFO are left as-is. *)

val reset : t -> unit
(** Full reset for reuse across independent runs: [reset_stats] plus the
    header cache, the comparator array, the per-cycle acceptance budget,
    the internal clock and the header FIFO. *)

(** {2 Checkpointing} *)

val encode : t -> Hsgc_util.Codec.W.t -> unit
val restore : t -> Hsgc_util.Codec.R.t -> unit
(** Checkpoint/reinstate the comparator array, per-cycle acceptance
    state, header cache and access counters. The header FIFO is owned
    separately and has its own section. *)
