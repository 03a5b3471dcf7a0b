(** Keyed wake queue with lazy invalidation.

    The event-driven kernel's scheduling core: each component [id] that
    goes idle until a known future cycle {e arms} its wake time here,
    and the fast-forward logic asks for the earliest strictly-future
    wake with {!next_after}. The per-id [armed] array is the source of
    truth; populations beyond {!scan_threshold} additionally keep a
    {!Wheel} min-heap so [next_after] stays sublinear. Re-arming a
    component does not delete its old heap entry — [armed] records the
    current wake per id, and superseded entries are discarded lazily
    when they reach the top of the heap. Small populations (every
    realistic coprocessor) skip the heap entirely and scan [armed],
    which is both cheaper and allocation-free. Steady-state operation
    is allocation-free in either regime.

    Contract for components: a component's published wake time must
    never overshoot an enabled event — it is always legal to wake (and
    poll) a component early, never legal to skip past a cycle where it
    would have acted. Components waiting on a purely external event
    (another core releasing a lock, the mutator pushing work) must stay
    unarmed and be polled every cycle instead. *)

type t

val create : n:int -> t
(** Queue for component ids [0 .. n-1], all initially disarmed. *)

val arm : t -> id:int -> time:int -> unit
(** Set [id]'s wake to [time], superseding any earlier arm. *)

val disarm : t -> id:int -> unit
(** Clear [id]'s wake (e.g. the component was woken externally). *)

val wake_of : t -> id:int -> int
(** Current armed wake of [id], [max_int] when disarmed. *)

val next_after : t -> now:int -> int
(** Earliest armed wake strictly after [now], or [max_int] when nothing
    is armed. Prunes stale entries as a side effect. Wake times and
    [now] are cycle numbers, never negative. *)

val scan_threshold : int
(** Largest population handled by the linear-scan regime; [create ~n]
    with [n] beyond it adds the min-heap. *)

val pending : t -> now:int -> int
(** Number of components with a strictly-future armed wake. *)

val heap_entries : t -> int
(** Heap entries, stale ones included — 0 in the linear-scan regime
    (for tests of the lazy-invalidation path). *)

(** {2 Wake-time combinators}

    Shared helpers for combining optional wake times when computing a
    fast-forward target; previously private to [Kernel]. *)

val min_wake : int option -> int option -> int option
(** Earlier of two optional wakes ([None] = no self-scheduled event). *)

val bound : horizon:int option -> int -> int
(** Cap a wake-up target by an external horizon (e.g. the next mutator
    operation in concurrent mode). *)
