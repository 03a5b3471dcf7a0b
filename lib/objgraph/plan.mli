(** A heap-independent object-graph blueprint.

    Workload generators build a [Plan] — objects identified by dense ids,
    pointer-slot edges, and root designations — and the plan is then
    materialized into any backend: the simulated object heap here, or the
    flat heap of the real Domains-based collector in [Hsgc_swgc]. This
    keeps every engine benchmarking the {i same} graph.

    Data words are filled with a deterministic function of (object id,
    slot), so a collector that corrupts or mis-copies a body is caught by
    the graph-isomorphism check. *)

type t

val create : unit -> t

val obj : t -> pi:int -> delta:int -> int
(** New object with π pointer slots and δ data words; returns its id. *)

val link : t -> parent:int -> slot:int -> child:int -> unit
(** Point [parent]'s pointer slot [slot] at [child]. Slots not linked
    remain null. *)

val add_root : t -> int -> unit

val n_objects : t -> int
val n_roots : t -> int

val size_words : t -> int
(** Total footprint of all objects (headers included). *)

val live_words : t -> int
(** Footprint of the subgraph reachable from the roots. *)

val pi_of : t -> int -> int
val delta_of : t -> int -> int
val child_of : t -> int -> int -> int
(** [child_of t id slot] is the linked child id, or [-1] for null.
    Raises [Invalid_argument] unless [0 <= slot < pi_of t id]. *)

val data_word : int -> int -> int
(** [data_word id slot] — the deterministic data-word fill value. *)

val roots : t -> int array

val iter_objects : t -> (int -> unit) -> unit

val materialize : ?heap_factor:float -> t -> Hsgc_heap.Heap.t
(** Build a fresh heap containing the plan's objects (in id order, so
    fromspace address order equals id order), with each semispace sized
    [heap_factor] × the plan's total footprint, garbage included
    (default 2.0 — the paper's "twice the minimal heap size" rule of
    thumb) plus slack. Roots are installed in plan order. Raises
    [Invalid_argument] for a factor below 1.0, NaN or infinite, or one
    that sizes the heap past the largest array. *)
