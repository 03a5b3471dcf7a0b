(** Reusable object-graph shape builders.

    All builders append to an existing {!Plan.t} and return the ids of
    the structure's entry points, so workloads compose shapes freely.
    Shapes are the levers that control the properties the paper ties to
    scaling behaviour:

    - {b frontier width} (how many gray objects can coexist) — chains
      starve the worklist, layered fans flood it;
    - {b sharing} (how many parents reference one child) — drives
      header-lock contention;
    - {b object size mix} — drives the body-load/store stall profile and
      the gray-backlog depth. *)

module Rng = Hsgc_util.Rng

val chain : Plan.t -> n:int -> pi:int -> delta:int -> int * int
(** Linked list of [n] objects (linked through slot 0); [(head, tail)].
    [pi] must be at least 1. *)

val chain_with_payload :
  Plan.t ->
  n:int ->
  ?every:int ->
  node_delta:int ->
  payload_pi:int ->
  payload_delta:int ->
  unit ->
  int * int
(** Chain whose nodes (π = 2: next, payload) carry a private leaf payload
    object on every [every]-th node (default 1 = all); [(head, tail)].
    The payload density controls how far past one core the chain can
    feed. *)

val star : Plan.t -> fanout:int -> child_pi:int -> child_delta:int -> int * int array
(** Hub with [fanout] children; [(hub, children)]. *)

val layered : Plan.t -> Rng.t -> widths:int array -> delta:int -> int
(** Breadth-first layered graph: layer [i] has [widths.(i)] objects; the
    objects of layer [i+1] are partitioned (near-evenly, contiguously)
    among the parents of layer [i], so every object has exactly one
    parent and π of a parent is its block size. The last layer consists
    of leaves (π = 0). Every object carries [delta] data words. Returns a
    root hub (π = widths.(0)) above layer 0. The gray backlog while
    scanning layer [i] approaches [widths.(i+1)] — layered graphs are how
    a workload floods (or overflows) the header FIFO. *)

val random_tree :
  Plan.t ->
  Rng.t ->
  n:int ->
  max_fanout:int ->
  ?reserve_slots:int ->
  delta_min:int ->
  delta_max:int ->
  unit ->
  int
(** Uniform random tree of [n] nodes: each new node attaches to a random
    node with a free pointer slot. π of each node is drawn in
    [1, max_fanout] plus [reserve_slots] (default 0) trailing slots that
    the tree never uses — callers can point them at shared objects; δ is
    uniform in [delta_min, delta_max]. Returns the root id; the tree
    occupies ids [root, root + n). *)

val caterpillar :
  Plan.t ->
  Rng.t ->
  backbone:int ->
  tuft:int ->
  delta:int ->
  int
(** A backbone chain of [backbone] nodes, each carrying a small binary
    subtree of about [tuft] nodes — a graph of bounded frontier width
    (≈ tuft), matching benchmarks that scale to a few cores only. *)

val slot_ref : id:int -> slot:int -> int
(** Pointer slot [slot] of object [id], packed into one int. Every slot
    of an object with π up to {!Hsgc_heap.Header.max_area} fits. *)

val zipf_pool :
  Plan.t -> Rng.t -> clients:int array -> pool:int -> s:float -> int array
(** Create [pool] shared objects and point each client slot (a
    {!slot_ref}) at one of them, Zipf-distributed with exponent [s] — a
    few pool objects become reference hot spots. Returns the pool ids. *)

val garbage : Plan.t -> Rng.t -> n:int -> max_pi:int -> max_delta:int -> unit
(** [n] unreachable objects (possibly linking to each other), interleaved
    allocation noise that a correct collector must not copy. *)
