(** The shared simulation kernel: the clock every cycle-stepped engine
    runs on.

    The kernel owns the notion of "now", counts how many cycles were
    actually executed versus fast-forwarded, and measures simulation
    throughput (simulated cycles per wall-clock second).

    The headline optimisation is {b idle-cycle skipping}: when the engine
    reports that a cycle was {i quiescent} — no agent made a state
    transition, so every subsequent cycle would be a byte-identical replay
    until the next registered wake-up (a memory-port completion, a pending
    header-store commit, a mutator operation becoming due) — the engine
    calls {!fast_forward} to jump [now] directly to that wake-up instead
    of spinning one cycle at a time. The engine remains responsible for
    crediting per-cycle counters (stall breakdowns, busy cycles,
    worklist-empty cycles) in bulk for the skipped span, so all reported
    statistics are bit-identical to naive stepping. *)

(* The record is exposed so engines can read [now] with a direct field
   load in their per-cycle loops (without flambda, [Kernel.now] is a
   real cross-module call). Mutate only through {!tick} and
   {!fast_forward}, which keep the executed/skipped split consistent
   with [now]. *)
type t = {
  skip : bool;
  mutable now : int;
  mutable executed : int;
  mutable skipped : int;
  wall_start : int64;  (** CLOCK_MONOTONIC ns at creation *)
  obs : Hsgc_obs.Tracer.t;
}

val create : ?skip:bool -> ?obs:Hsgc_obs.Tracer.t -> unit -> t
(** A fresh clock at cycle 0. [skip] (default [true]) records whether the
    owning engine should attempt idle-cycle skipping; the kernel itself
    only accounts. Wall-clock measurement starts here. [obs] (default
    disabled) records every fast-forward as a kernel skip-span trace
    event. *)

val now : t -> int
(** The current simulated cycle. *)

val tick : t -> unit
(** One cycle was executed: [now] advances by 1. *)

val fast_forward : t -> target:int -> int
(** [fast_forward t ~target] jumps [now] to [target] and returns the
    number of cycles skipped ([target - now], or 0 when [target <= now]).
    The caller must guarantee the skipped cycles were quiescent and must
    credit their per-cycle statistics in bulk. *)

val retire : t -> executed:int -> skipped:int -> unit
(** Bulk retirement for batching engines: advance [now] by
    [executed + skipped] cycles whose per-cycle effects the caller has
    already credited in closed form. Unlike {!fast_forward} this also
    books executed cycles, and it emits no skip-span trace event — a
    batching engine must fall back to per-cycle stepping whenever a
    tracer is attached. Raises [Invalid_argument] on negative spans. *)

val executed_cycles : t -> int
(** Cycles actually stepped ([tick] calls). *)

val skipped_cycles : t -> int
(** Cycles fast-forwarded over. [now = executed + skipped]. *)

val wall_seconds : t -> float
(** Wall-clock seconds since [create], measured on the monotonic clock
    (immune to NTP steps) and clamped at 0. *)

val cycles_per_second : t -> float
(** Simulated cycles per wall-clock second ([now / wall_seconds]);
    the kernel's throughput figure of merit. *)

(** Wake-up arithmetic ([min_wake]/[bound]) lives in {!Wake_queue}
    alongside the event queue that consumes it. *)

(** {2 Watchdog}

    Liveness monitoring for cycle-stepped engines. The engine reports
    once per executed cycle whether the machine made global progress
    (any agent transition, any shared-register movement); the watchdog
    trips when a cycle budget is exhausted or when [window] consecutive
    executed cycles pass without progress — turning a deadlock
    regression (which otherwise spins forever in [collect]'s
    run-to-halt loop) into a structured, diagnosable failure. *)

module Watchdog : sig
  type trip =
    | Budget_exceeded of { budget : int }
        (** [now] reached the configured cycle budget. Fires whether or
            not the machine is progressing: the budget is a hard bound
            on total simulated cycles. *)
    | No_progress of { window : int; since : int }
        (** [window] consecutive executed cycles saw no progress;
            [since] is the cycle of the last progressing one. Skipped
            (fast-forwarded) cycles never count — by construction they
            end at a wake-up that produces a transition. *)

  type t

  val create : ?budget:int -> window:int -> unit -> t
  (** [budget] (default none) bounds total simulated cycles; [window]
      bounds consecutive executed cycles without progress. Both must be
      >= 1. *)

  val observe : t -> now:int -> progressed:bool -> trip option
  (** Call once per executed cycle, after determining whether the cycle
      made progress. [Some trip] means the engine should abort with a
      diagnosis dump. *)

  val pp_trip : Format.formatter -> trip -> unit
end

(** {2 Checkpointing} *)

val encode : t -> Hsgc_util.Codec.W.t -> unit
val restore : t -> Hsgc_util.Codec.R.t -> unit
(** Checkpoint/reinstate the clock position and executed/skipped split.
    [wall_start] is host time and is deliberately left alone — wall
    figures of a resumed run describe the resumed process. [restore]
    raises {!Hsgc_util.Codec.Error} when the snapshot was taken under a
    different stepping mode. *)

val watchdog_encode : Watchdog.t -> Hsgc_util.Codec.W.t -> unit
val watchdog_restore : Watchdog.t -> Hsgc_util.Codec.R.t -> unit
(** Checkpoint/reinstate the watchdog's progress tracking, so a resumed
    run trips at exactly the cycle the uninterrupted one would. *)
