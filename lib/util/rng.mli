(** Deterministic, splittable pseudo-random number generator.

    The simulator and the workload generators must be fully deterministic:
    a given seed always produces the same object graph and hence the same
    cycle counts. The stdlib [Random] module is avoided because its state
    is global and its algorithm may change between compiler releases.
    This is a SplitMix64 generator (Steele, Lea & Flood, OOPSLA 2014):
    64-bit state, one mix per draw, cheap [split] for independent
    substreams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from an arbitrary integer seed. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val state : t -> int64
(** Raw generator state, for checkpointing. *)

val set_state : t -> int64 -> unit
(** Reinstate a captured state; the stream replays exactly from it. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent
    generator; use it to give substreams to subcomponents so that adding
    draws in one component does not perturb another. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] draws from a geometric distribution with success
    probability [p] (support 0, 1, 2, ...; mean [(1-p)/p]).
    [p] must be in (0, 1]. *)

type zipf
(** The cumulative weight table of one Zipf distribution. *)

val zipf_table : n:int -> s:float -> zipf
(** [zipf_table ~n ~s] tabulates the Zipf distribution over ranks
    [\[0, n)] with exponent [s] in O(n). [n] must be positive. Build it
    once and draw from it repeatedly. *)

val zipf_draw : t -> zipf -> int
(** One rank from the tabulated distribution, by inverse CDF: a single
    uniform draw and a bisection (no draw at all when [n = 1]). Used to
    model hot shared objects (a few objects referenced by many). *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] is [zipf_draw t (zipf_table ~n ~s)]: one draw, paying
    for the table each time. *)
