(** A per-core memory buffer (paper Section V-D).

    Each coprocessor core owns four single-entry buffers: header load,
    header store, body load, body store. A core initiates a transfer by
    depositing it in a buffer and continues executing; it only stalls when
    it re-uses a store buffer whose previous store has not completed, or
    consumes a load buffer whose data has not arrived. The buffer retries
    memory acceptance on its own every cycle (split transactions). *)

type kind = Header_load | Header_store | Body_load | Body_store

val pp_kind : Format.formatter -> kind -> unit
val is_load : kind -> bool
val is_header : kind -> bool

(** Status encoding. The machine polls every buffer every cycle, and
    without flambda an accessor like [val st : t -> int] is a real
    cross-module call on that path — so the status fields are exposed
    for direct reads. [st] encodes the state; [addr] and [done_at] are
    only meaningful in the states noted. Treat every field as read-only
    outside this module: all transitions go through {!issue}, {!tick},
    {!consume} and friends, which keep the shared [events] transition
    counter honest. *)

val st_idle : int
(** Empty; a new transfer may be deposited. *)

val st_waiting : int
(** Deposited ([addr]) but not yet accepted by memory; retried by
    {!tick} every cycle. *)

val st_in_flight : int
(** Accepted; completes at [done_at]. *)

val st_ready : int
(** Loads only: data arrived, awaiting {!consume}. *)

type t = {
  kind : kind;
  mutable st : int;
  mutable addr : int;
  mutable done_at : int;
  mutable issued_at : int;
      (** deposit cycle of the transfer currently in [addr] — the start
          of the memory-wait interval the tracer's latency histograms
          measure *)
  events : int ref;
  faults : Hsgc_fault.Injector.t;
  hooks : Hsgc_sanitizer.Hooks.t;
  obs : Hsgc_obs.Tracer.t;
  owner : int;  (** owning core index, [-1] when anonymous *)
}

val create :
  ?events:int ref ->
  ?faults:Hsgc_fault.Injector.t ->
  ?hooks:Hsgc_sanitizer.Hooks.t ->
  ?obs:Hsgc_obs.Tracer.t ->
  ?owner:int ->
  kind -> t
(** [events], when given, is a transition counter shared with the owning
    simulator: every status change of this buffer increments it. The
    simulator zeroes it at the top of each cycle; a cycle that leaves it
    at zero had no buffer activity anywhere — one of the requirements
    for idle-cycle skipping. Defaults to a private counter.

    [faults] (default disabled) may reject individual memory-acceptance
    attempts as spuriously busy; the buffer stays in its ordinary retry
    loop, so the perturbation is timing-only.

    [hooks] and [owner] give buffer-protocol diagnostics their context:
    misuse ({!issue_immediate} on a busy or store buffer, {!consume}
    with no data) raises {!Hsgc_sanitizer.Diag.Violation} carrying the
    owning core and the cycle stamped in the shared hook record.

    [obs] (default {!Hsgc_obs.Tracer.disabled}) receives a
    deposit-to-completion latency observation per finished transfer,
    into the latency histogram matching this buffer's kind. *)

val kind : t -> kind

val is_idle : t -> bool
(** A new transfer may be deposited. For a load buffer this also requires
    that the previous result has been consumed. *)

val issue : t -> Memsys.t -> now:int -> addr:int -> bool
(** Deposit a transfer. Returns [false] (nothing happens) when the buffer
    is occupied — the caller stalls. Acceptance by memory is attempted
    immediately and retried by [tick] on later cycles. *)

val issue_immediate : t -> unit
(** Loads only: mark the buffer [Ready] without any memory transaction —
    used for header-FIFO hits, which bypass memory entirely. The buffer
    must be idle. *)

val tick : t -> Memsys.t -> now:int -> unit
(** Advance the buffer one cycle: retry memory acceptance, mark completed
    loads ready, release completed stores. Call once per cycle, in core
    priority order, before stepping the cores. *)

val load_ready : t -> bool
(** Data has arrived and can be consumed this cycle. *)

val consume : t -> unit
(** Consume a ready load result, freeing the buffer. *)

val busy_addr : t -> int option
(** Address of the in-progress transfer, if any (for tracing). *)

val describe : t -> now:int -> string
(** One-line human-readable status ("idle", "waiting addr=…",
    "in-flight addr=… done@…", "ready") for stall-diagnosis dumps, as
    {!tick} at [now] would leave it: a transfer done by [now] reads as
    completed ("ready" for a load, "idle" for a store). Changes
    nothing. A core that slept or parked through [now] was not ticked
    there, so its dump reads as a naive stepper's. *)

(** {2 Idle-cycle skipping support}

    The simulation kernel fast-forwards over quiescent cycles. A cycle
    is quiescent only if no buffer changed status during it — recorded
    by the shared [events] counter (a deposit, an acceptance, a load
    completion/consumption or a store release bumps it; a [Waiting]
    buffer whose retry was rejected again does {e not}). The kernel then
    needs each sleeping buffer's earliest possible wake-up
    ({!wake_after}) and, for exact statistics, which buffers are
    comparator-held header loads ({!order_held}) — those accrue one
    ordering rejection per skipped cycle. *)

val wake_after : t -> Memsys.t -> now:int -> int
(** Earliest future cycle at which this buffer can change status, or
    [max_int] when it is idle/ready (nothing pending). An in-flight
    transfer wakes at its completion cycle; a header load held by a
    pending header store wakes when that store commits; any other
    waiting buffer may be accepted next cycle, so the estimate is
    conservative ([now + 1]) and prevents skipping. When spurious-busy
    faults are armed ({!Hsgc_fault.Injector.retry_draws}), waiting
    buffers always report [now + 1]: each acceptance retry draws from
    the fault stream, so no retry cycle may be skipped. Runs on the
    kernel's skip path every quiescent cycle, hence the unboxed
    sentinel convention. *)

val next_wake : t -> Memsys.t -> now:int -> int option
(** {!wake_after} under the event-driven kernel's [next_wake] contract:
    [None] means the buffer has no self-scheduled event (idle or ready —
    it only changes state when the owning core acts on it). The
    published wake never overshoots an enabled event; it may be
    conservative (early). *)

val retry_wake : t -> now:int -> int
(** [now + 1] when the buffer is [Waiting] (its per-cycle acceptance
    retries touch shared state — the bandwidth budget, the ordering
    counters, possibly the fault stream — so its owning core must stay
    awake to replay them), [max_int] otherwise. A core sleeping on one
    buffer must take the minimum with the other three buffers'
    [retry_wake]; their {e in-flight} completions, by contrast, only
    flip local status and may be slept through. *)

val polls : t -> bool
(** The buffer is in a polled state ([Waiting] or [Ready]) whose next
    transition is not schedulable from [done_at] alone. *)

val in_flight_done : t -> int
(** Completion cycle of an in-flight transfer, [min_int] otherwise —
    lets the flush state compute the {e latest} completion across its
    buffers with a plain [max]. *)

val order_held : t -> Memsys.t -> bool
(** The buffer is a header load currently held by the comparator array
    (a header store to the same address is still pending). *)

(** {2 Checkpointing} *)

val encode : t -> Hsgc_util.Codec.W.t -> unit
(** Checkpoint the buffer's status fields (state, address, completion
    and deposit cycles). *)

val restore : t -> Hsgc_util.Codec.R.t -> unit
(** Reinstate encoded status fields in place. *)
