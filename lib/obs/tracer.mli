(** Event/span tracer: the observability backbone.

    Follows the sanitizer's Hooks discipline: the record is always
    present, [on] defaults to [false], and every call site gates on a
    direct load of {!field-on} — one load-and-branch when tracing is
    off. Events are typed spans over simulated cycles, recorded into a
    bounded ring of parallel int arrays (keep-oldest, drop-and-count on
    overflow). With a fixed seed and configuration the event stream is
    byte-identical run to run. *)

type t = {
  mutable on : bool;
  mutable cycle : int;
      (** stamped by the owning simulator at the top of each executed
          cycle (only while [on]); components timestamp against it *)
  capacity : int;
  ev_cycle : int array;
  ev_code : int array;
  ev_core : int array;
  ev_a : int array;
  ev_b : int array;
  mutable len : int;
  mutable dropped : int;
  n_cores : int;
  cur_phase : int array;
  phase_start : int array;
  run_kind : int array;
  run_start : int array;
  run_len : int array;
  mutable ovf_start : int;
  mutable ovf_count : int;
  interval : int;
  mutable next_sample : int;
  mutable scan_acquired : int;
  mutable free_acquired : int;
  header_acquired : int array;
  object_start : int array;
  metrics : Metrics.t;
  hist_hold_scan : Metrics.hist;
  hist_hold_header : Metrics.hist;
  hist_hold_free : Metrics.hist;
  hist_object_latency : Metrics.hist;
  hist_mem : Metrics.hist array;
  ctr_events : Metrics.counter;
  ctr_dropped : Metrics.counter;
}

(** {2 Event codes} — each recorded event is [(cycle, code, core, a, b)];
    [core] is [-1] for machine-global events. *)

val ev_phase : int
(** per-core phase span: [a] = phase id, [b] = duration in cycles *)

val ev_stall : int
(** per-core stall run (consecutive same-kind stall cycles merged):
    [a] = stall id in Table II column order, [b] = duration *)

val ev_sample : int
(** counter sample: [a] = gray backlog (free − scan) in words,
    [b] = header FIFO depth *)

val ev_fifo_overflow : int
(** FIFO overflow episode (streak of unbuffered pushes): [a] = dropped
    pushes, [b] = duration *)

val ev_skip : int
(** kernel fast-forward: [b] = skipped span. A stepping artifact, not
    machine behavior — excluded from {!digest} by default. *)

(** {2 Phase / stall / lock / memory-kind ids} *)

val phase_init : int
val phase_roots : int
val phase_barrier : int
val phase_scan : int
val phase_copy : int
val phase_flush : int
val phase_halt : int
val phase_name : int -> string

val stall_name : int -> string
(** Stall ids 0..6 follow [Hsgc_coproc.Counters.all_stalls] order:
    scan-lock, free-lock, header-lock, body-load, body-store,
    header-load, header-store. *)

val lock_scan : int
val lock_header : int
val lock_free : int

val mem_header_load : int
val mem_header_store : int
val mem_body_load : int
val mem_body_store : int

(** {2 Lifecycle} *)

val create : ?capacity:int -> ?interval:int -> n_cores:int -> unit -> t
(** [capacity] bounds the event ring (default 262144 events);
    [interval] is the counter-sampling period in cycles (default 256). *)

val default_capacity : int

val disabled : t
(** A shared never-enabled instance for components created without
    observability. Never mutated (all writes gate on [on]), so it is
    safe to share across domains. *)

val enable : t -> unit

(** {2 Recording} — callers must check [t.on] before calling; all
    timestamps not passed explicitly come from [t.cycle]. *)

val set_phase : t -> core:int -> phase:int -> cycle:int -> unit
(** Declare the core's current phase; a change closes the previous
    phase span. *)

val stall_run : t -> core:int -> kind:int -> cycle:int -> span:int -> unit
(** Account [span] stall cycles of [kind] starting at [cycle];
    contiguous same-kind runs merge into a single span event. *)

val sample_due : t -> cycle:int -> bool
val sample : t -> cycle:int -> backlog:int -> fifo_depth:int -> unit

val catch_up_samples :
  t -> target:int -> backlog:int -> fifo_depth:int -> unit
(** Emit the counter samples a naive stepper would have produced inside
    a fast-forwarded span ending at [target] (exclusive): one per
    elapsed sampling grid point, carrying the frozen signal values.
    Keeps the event stream identical across stepping strategies. *)

val fifo_push : t -> buffered:bool -> unit
val lock_acquired : t -> lock:int -> core:int -> unit
val lock_released : t -> lock:int -> core:int -> unit

val scan_probes : t -> last:int -> n:int -> unit
(** Credit [n] skipped empty-worklist probes, the last at cycle [last],
    in O(1): each would have held the scan lock for zero cycles, so the
    scan-lock hold histogram gains [n] zeros and the acquisition stamp
    moves to [last] if that is later. *)

val object_begun : t -> core:int -> unit
val object_done : t -> core:int -> unit
val mem_done : t -> kind:int -> latency:int -> unit
val skip_span : t -> cycle:int -> span:int -> unit

val finish : t -> cycle:int -> unit
(** Close every open span (phases, stall runs, overflow episode) at
    [cycle] and fold ring statistics into the metrics registry. *)

(** {2 Reading} *)

val length : t -> int
val dropped : t -> int
val n_cores : t -> int
val metrics : t -> Metrics.t

val iter :
  t ->
  (cycle:int -> code:int -> core:int -> a:int -> b:int -> unit) ->
  unit

val clear : t -> unit
(** Empty the ring once its events are read ({!Timeline.absorb}). Open
    spans, the sampling cursor and the drop count stay; {!finish}'s
    events-kept counter counts only the events still in the ring. *)

val serialize : ?include_skips:bool -> t -> string
(** One event per line, ["cycle code core a b"], in canonical order
    (sorted by the full event tuple — ring order is span-closure order,
    which depends on the stepping strategy). Kernel skip spans are
    excluded unless [include_skips] (they too are a stepping artifact,
    not machine behavior). *)

val digest : ?include_skips:bool -> t -> string
(** Hex MD5 of {!serialize} — the golden-trace fingerprint. *)

(** {2 Checkpointing} *)

val encode : t -> Hsgc_util.Codec.W.t -> unit
val restore : t -> Hsgc_util.Codec.R.t -> unit
(** Checkpoint/reinstate the event ring, open-span registers, sampling
    cursor and metrics. The ring's kept events are stored as five
    columns (cycle, code, core, a, b), each width-fitted by
    {!Hsgc_util.Codec.W.column}: 4 bytes a value when all of the
    column's values fit a signed 32-bit int, which every column of a
    simulated run does, else 8. Restore validates that the tracer was
    created with the same capacity / core count / sampling interval and
    the same on/off state as the snapshotted one, and raises
    {!Hsgc_util.Codec.Error} on a malformed column. *)

val encode_delta : t -> since:int -> Hsgc_util.Codec.W.t -> unit
val restore_delta : t -> Hsgc_util.Codec.R.t -> unit
(** The delta form of {!encode}/{!restore}: only the events appended
    after the first [since] (the ring length of the image this one is a
    delta of; raises [Invalid_argument] outside [[0, length]]), then
    every register and the metrics whole. The ring is append-only, so
    restore appends those events to a tracer holding exactly [since];
    it raises {!Hsgc_util.Codec.Error} on any other length. *)
