(** The on-chip header FIFO (paper Section V-D, last paragraph).

    Gray tospace headers are read by the scanning cores in exactly the
    order they were written by the evacuating cores, so the coprocessor
    buffers them in an on-chip FIFO: as long as the number of gray objects
    does not exceed its capacity, advancing [scan] needs no memory access
    for the header read. On overflow the entry is simply not buffered and
    the later read falls through to memory (this is what makes the paper's
    {i cup} benchmark lose time inside the scan-lock critical section).

    The FIFO stores only the frame address: header {i contents} live in the
    heap; timing is what this module models. *)

type t

val create :
  ?faults:Hsgc_fault.Injector.t ->
  ?hooks:Hsgc_sanitizer.Hooks.t ->
  ?obs:Hsgc_obs.Tracer.t ->
  capacity:int -> unit -> t
(** [faults] (default disabled) may drop individual pushes — the
    transient-fault analogue of a capacity overflow, and just as safe:
    the dropped entry's later read falls through to the memory path.
    [hooks] (default nop) reports buffered pushes and popped entries to
    an attached sanitizer, which mirrors the queue and checks that pops
    arrive in push order. Pushing the null (or a negative) frame address
    raises {!Hsgc_sanitizer.Diag.Violation} with cycle context.
    [obs] (default {!Hsgc_obs.Tracer.disabled}) records overflow
    episodes — streaks of unbuffered pushes — as trace span events. *)

val capacity : t -> int
val length : t -> int

val push : t -> int -> bool
(** [push t addr] appends the gray frame address; [false] (and a recorded
    overflow) if the FIFO is full. *)

val try_pop : t -> int -> bool
(** [try_pop t addr] — if the front entry is [addr], pop it and return
    [true] (FIFO hit: the header read costs no memory access). Otherwise
    [false]: the entry was dropped at push time, the read must go to
    memory. Reads arrive in write order, so a present entry is always at
    the front when requested. *)

val overflows : t -> int
(** Number of pushes rejected so far. *)

val hits : t -> int
val misses : t -> int

val fault_drops : t -> int
(** Pushes dropped by the fault injector (counted separately from
    genuine capacity overflows). *)

val next_wake : t -> int option
(** Always [None]: the FIFO is purely reactive — entries are pushed and
    popped by core actions within the acting core's cycle, so it never
    has a self-scheduled future event under the event-driven kernel's
    contract. *)

val clear : t -> unit
(** Empty the FIFO (between collection cycles); counters are kept. *)

(** {2 Checkpointing} *)

val encode : t -> Hsgc_util.Codec.W.t -> unit
val restore : t -> Hsgc_util.Codec.R.t -> unit
(** Checkpoint/reinstate the live entries in FIFO order and the
    counters. [encode] stores only the [length t] live entries;
    [restore] lays them out from the ring's start and zeroes the rest,
    and raises {!Hsgc_util.Codec.Error} when the stored length is
    negative or exceeds the capacity. *)
