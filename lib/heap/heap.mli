(** The object-based heap: two semispaces over a flat word-addressed
    memory, plus the root set.

    This mirrors the paper's object-based memory model (Section V-B/V-D):
    memory is an array of words; an object is a two-word header followed
    by a pointer area of π words and a data area of δ words; pointers and
    non-pointer data are strictly separated, so pointerhood is positional
    and known without tags. Address 0 is reserved as the null pointer.

    The heap stores {i contents} only. Access {i timing} (latencies, port
    buffers, the header FIFO) is modeled separately by [Hsgc_memsim]; the
    collector cores read and write contents here at the moment an access
    is initiated, which is consistent with what the hardware guarantees
    through its locking protocol and comparator array.

    {b Memory.} The words are an anonymous private mapping from the OS,
    as a Bigarray of OCaml ints ({!words}). Its pages are the kernel's
    zero page until written, so {!create} costs O(1) at any size and a
    heap is resident only in the pages its run writes (materializing,
    collecting, restoring). The mapping is outside the OCaml heap: the
    major GC does not mark its words, and it is unmapped when the array
    is collected, which takes a completed major cycle. Its size counts
    toward the major GC's pace as an external resource, so that making
    heaps speeds up the cycles that unmap dead ones (docs/PERFORMANCE.md
    §10 measures the bound and its limits). Access it at the type
    {!words} only:
    a polymorphic Bigarray access is a C call that boxes. A sub-array
    ([Bigarray.Array1.sub]) shares the mapping without keeping it alive,
    so none may outlive the call that cut it; outside this module use
    {!blit}. *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Heap memory: 8-byte words outside the OCaml heap. *)

val zeros : int -> words
(** [zeros n]: [n] words of fresh OS zero pages, resident only once
    written. Raises [Invalid_argument] on a negative [n]. *)

val length : words -> int
(** The number of words. *)

val blit : words -> src_pos:int -> words -> dst_pos:int -> len:int -> unit
(** Copy [len] words, as [memmove]: the ranges may overlap. Raises
    [Invalid_argument] on a range outside either array. *)

type t = {
  mem : words;
  mutable space_a : Semispace.t;
  mutable space_b : Semispace.t;
  mutable a_is_current : bool;
      (** when true, space A is the allocation space (fromspace at GC time) *)
  mutable roots : int array;  (** addresses of root objects (0 = empty slot) *)
}

val null : int
(** The null pointer (address 0, never a valid object address). *)

val create : semispace_words:int -> t
(** A heap with two semispaces of [semispace_words] words each, on
    fresh zero pages: every word starts at 0, so a fresh heap's pointer
    slots are all null, and none of its memory is resident yet. *)

val from_space : t -> Semispace.t
(** The current allocation space — fromspace during a collection. *)

val to_space : t -> Semispace.t

val flip : t -> unit
(** Swap the roles of the two spaces and reset the new tospace's [free]
    pointer, as at the start of a collection cycle. *)

val read : t -> int -> int
(** Raw word read. *)

val write : t -> int -> int -> unit
(** Raw word write. *)

(** {2 Object accessors}

    [obj] is always the address of the object's header word 0. *)

val header0 : t -> int -> int
val header1 : t -> int -> int
val set_header0 : t -> int -> int -> unit
val set_header1 : t -> int -> int -> unit

val pointer_addr : int -> int -> int
(** [pointer_addr obj i] — address of pointer slot [i]. The caller must
    ensure [i < π]. *)

val data_addr : int -> pi:int -> int -> int
(** [data_addr obj ~pi i] — address of data slot [i]. *)

val get_pointer : t -> int -> int -> int
val set_pointer : t -> int -> int -> int -> unit
(** [set_pointer t obj i child]. *)

val get_data : t -> int -> int -> int
(** [get_data t obj i] reads data slot [i] (π is read from the header). *)

val set_data : t -> int -> int -> int -> unit

val obj_size : t -> int -> int
(** Footprint in words, from the object's header. *)

val obj_pi : t -> int -> int
val obj_delta : t -> int -> int
val obj_state : t -> int -> Header.state

(** {2 Allocation} *)

val alloc : t -> pi:int -> delta:int -> int option
(** Allocate an object in the current space, write a [White] header with
    the given areas, zero the body, and return its address; [None] when
    the space cannot fit it (time to collect). *)

(** {2 Checkpointing} *)

val encode : t -> Hsgc_util.Codec.W.t -> unit
(** Checkpoint the complete heap state: the null word, then for each
    semispace its bounds, [free] and its words from [base] up to its
    last nonzero word (a length-prefixed {!Hsgc_util.Codec.W.word_range};
    the zero tail is implied), then orientation and roots. The image
    grows with what the spaces hold — 8 bytes a word of the two
    extents plus a constant — not with their capacity. [encode t] finds
    the extents once; the encoder it returns may run any number of
    times while [mem] is unchanged. *)

val restore : t -> Hsgc_util.Codec.R.t -> unit
(** Overwrite this heap in place from an encoded image: each stored
    prefix is copied back and the rest of its space zeroed, so [mem] is
    restored word for word, stale words above [free] included. The
    zeroing hands the space's whole pages back to the OS instead of
    writing them: restoring a small image onto a fresh large heap makes
    resident about the image's size. The heap must have the same
    geometry (semispace size) as the encoded one; raises
    {!Hsgc_util.Codec.Error} otherwise, and on an extent past the end
    of its semispace. *)

(** {3 Deltas}

    A delta image holds the words of [mem] that differ from an earlier
    copy of it (the {e base}: the memory as a parent image holds it),
    plus the registers and roots whole. Applied on top of the base's
    restored state, it reproduces [mem] word for word. *)

type delta
(** The differing words, as runs of consecutive addresses. *)

val copy_mem : t -> words
(** A copy of [mem] on fresh zero pages: the words above each
    semispace's extent are not copied, being zero in both. *)

val delta : ?reuse:delta -> t -> base:words -> delta
(** One compare pass of [mem] against [base] (same length; raises
    [Invalid_argument] otherwise). Runs at most two equal words apart
    are merged. The pass also notes each semispace's extent (see
    {!full_bytes}). [reuse]'s run table is refilled instead of
    allocating a new one. *)

val full_bytes : t -> delta -> int
(** The size of {!encode}'s output, from the extents the pass found:
    valid while [mem] is unchanged since {!delta}. *)

val apply_delta : t -> delta -> base:words -> unit
(** Copy the runs' words from [mem] into [base]: with [mem] unchanged
    since {!delta}, [base] then equals [mem]. *)

val encode_delta : t -> delta -> Hsgc_util.Codec.W.t -> unit
(** The null word, both semispaces' bounds and [free], orientation,
    roots, then the run count and each run as its start address and a
    length-prefixed {!Hsgc_util.Codec.W.word_range}: 8 bytes a word
    carried plus 16 a run. *)

val restore_delta : t -> Hsgc_util.Codec.R.t -> unit
(** Apply a delta in place onto a heap holding its base: registers and
    roots overwritten, each run's words copied back. Raises
    {!Hsgc_util.Codec.Error} on a geometry mismatch and on a run outside
    [mem]. *)

(** {2 Roots} *)

val set_roots : t -> int array -> unit
val add_root : t -> int -> unit
val root_count : t -> int

(** {2 Traversal} *)

val iter_objects : t -> Semispace.t -> (int -> unit) -> unit
(** Visit every allocated object in a space in address order. Only valid
    when the space is a wall-to-wall sequence of well-formed objects
    (the allocation space between collections, or tospace after one). *)

val reachable : t -> (int, int) Hashtbl.t
(** Addresses of all objects reachable from the roots in the current
    space, mapped to their discovery index (preorder). *)

val live_words : t -> int
(** Total footprint of reachable objects. *)
