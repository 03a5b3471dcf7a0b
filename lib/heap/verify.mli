(** Heap verification: canonical snapshots and post-collection checks.

    A collection is correct iff the object graph reachable from the roots
    after the cycle is isomorphic to the one before it, all live objects
    were copied exactly once, and the new space is contiguously compacted.
    The snapshot is a canonical (BFS-ordered) serialization of the
    reachable subgraph, so isomorphism reduces to structural equality. *)

type obj_desc = {
  pi : int;
  delta : int;
  children : int array;
      (** canonical id per pointer slot; [-1] encodes a null pointer *)
  data : int array;  (** the δ data words *)
}

type snapshot = {
  objects : obj_desc array;  (** indexed by canonical id (BFS discovery order) *)
  root_ids : int array;  (** canonical id per root slot; [-1] for null roots *)
}

val snapshot : Heap.t -> snapshot
(** Canonical serialization of the graph reachable from the heap's roots
    (in the current space). Canonical ids are assigned through a
    direct-address table over the space's allocated words, so besides
    the output it needs only scratch proportional to those words; a
    pointer outside that range (only a broken heap has one) is still
    followed. *)

val equal_snapshot : snapshot -> snapshot -> bool

type failure =
  | Graph_mismatch of string
      (** the first difference in canonical (BFS) order, e.g.
          ["object #4: child slot 1: id 7 -> 9"], ["object #2: data word
          0: 0x2a -> 0x2b"], ["root slot 0: id 0 -> -1"] or ["object
          count 12 -> 11"] (pre-collection value first) *)
  | Not_compacted of string
  | Bad_state of { obj : int; state : Header.state }
  | Undecodable_header of { obj : int; word : int }
      (** the header carries the invalid state tag 3 — only possible via
          corruption; surfaced as a failure rather than an exception so
          fault campaigns can count it as a detection *)
  | Dangling_pointer of { obj : int; slot : int; target : int }
      (** the pointer leaves the new space. [obj] is {!Heap.null} when
          the pointer is root slot [slot]. *)
  | Misaligned_pointer of { obj : int; slot : int; target : int }
      (** the pointer lands inside the space but not on an object start
          (e.g. a corrupted low bit sliding into a neighbour's body, or
          past the last object). [obj] is {!Heap.null} for root slot
          [slot]. *)

val pp_failure : Format.formatter -> failure -> unit

val check_space : Heap.t -> (unit, failure) result
(** The wall-to-wall structural half of {!check_collection}: the current
    space parses as a contiguous sequence of Black objects ending at
    [free], with every non-null pointer and every non-null root
    targeting an object start of the space. Useful on its own when the
    graph changed during collection (concurrent mode), making a
    whole-snapshot comparison inapplicable. Defensive against arbitrarily
    corrupted words: it returns [Error] rather than raising, and
    {!check_collection} only compares graphs after this check passes, so
    the BFS never reads a misparsed frame.

    When a heap has several defects, the one reported is fixed: parse
    defects (undecodable header, non-Black state, an object overrunning
    [free]) come first, at the lowest address; then pointer defects
    (dangling, misaligned), at the lowest holding object and, within it,
    the lowest slot; root slots are checked last, in order. *)

val check_collection : pre:snapshot -> Heap.t -> (unit, failure) result
(** [check_collection ~pre heap] validates the heap {i after} a collection
    cycle (the copies live in the now-current space): space wall-to-wall
    well-formed Black objects with no pointer into the other (from-)
    space ({!check_space}), graph isomorphic to [pre], total live words
    preserved — checked in that order. Isomorphism is decided in
    lockstep, comparing each object with [pre] as the BFS reaches it, so
    no second snapshot is built; the result is [Ok] exactly when
    [equal_snapshot pre (snapshot heap)] would hold and the other two
    checks pass. *)
