(** Concurrent collection — the paper's announced next step ("we intend
    to allow the multi-core coprocessor to run concurrently to the main
    processor", Section V-B / VII), built on the cycle-stepped simulator.

    The protocol is Baker-style, adapted to the backlink design:

    - the main processor is stopped only for the {b root phase} (core 1
      evacuates the root set) — that is the entire pause;
    - after the start barrier the mutator resumes and runs interleaved
      with the collecting cores, holding {i tospace references only};
    - a {b read barrier} covers field loads: reading a pointer field of a
      gray object goes through the backlink to the fromspace original,
      and a fromspace value is evacuated on the spot before the mutator
      ever sees it (paying the barrier cost, or waiting out a GC core
      that holds the object's header lock);
    - {b allocation during collection is black}, straight from the
      [free] register: a new object's fields only ever receive tospace
      references, so the scanning cores simply step over its frame;
    - termination is unchanged: a register can only refer to a gray
      object while that object's frame lies between [scan] and [free],
      so once the cores detect termination no fromspace reference is
      reachable by the mutator.

    The mutator itself is a synthetic workload: every [mutator_period]
    coprocessor cycles it performs one operation — a field read (through
    the barrier) or an allocation wired to previously-read values —
    over a register file seeded from the evacuated roots. *)

type config = {
  gc : Coprocessor.config;
  mutator_period : int;  (** coprocessor cycles between mutator operations *)
  alloc_percent : int;  (** share of operations that allocate; rest read *)
  registers : int;  (** mutator register-file size *)
  seed : int;
}

val default_config : ?n_cores:int -> unit -> config
(** 8 GC cores, one mutator operation every 4 cycles, 30 % allocations,
    16 registers. *)

type stats = {
  gc : Coprocessor.gc_stats;
  pause_cycles : int;
      (** cycles the main processor was stopped — the root phase only *)
  barrier_evacuations : int;  (** objects evacuated by the read barrier *)
  mutator_reads : int;
  mutator_allocs : int;
  mutator_busy_cycles : int;  (** main-processor cycles spent on operations *)
  mutator_wait_cycles : int;
      (** operations delayed because a GC core held a conflicting lock *)
  new_objects : (int * int array * int array) list;
      (** (address, pointer fields, data words) of every object the
          mutator allocated during the cycle, as written *)
}

val collect : config -> Hsgc_heap.Heap.t -> stats
(** One concurrent collection cycle. On return the heap is flipped as
    usual and the mutator's register contents have been appended to the
    root set (objects allocated during the cycle stay live). *)

val check_new_objects : Hsgc_heap.Heap.t -> stats -> (unit, string) result
(** Validate that every object allocated during the cycle survived with
    exactly the contents the mutator wrote (headers, data words, and
    pointer fields). *)
