(** Shared parallel runtime.

    One pool implementation behind every parallel surface of the
    simulator: experiment sweeps and chaos campaigns ({!map_list},
    {!map_list_policy}) and the banked machine's superstep lanes
    ({!Pool.run}). Results and re-raised exceptions are deterministic
    at every [jobs]/[lanes] level, so any derived report is
    byte-identical regardless of host parallelism. *)

(** {2 Persistent worker pool}

    [lanes - 1] worker domains parked on mutex/condvar cells, plus the
    calling domain as lane 0. {!Pool.run} blocks the caller until every
    lane completes, and the mutex hand-off orders memory in both
    directions: everything the caller wrote before dispatch is visible
    to the workers, and everything a worker wrote is visible to the
    caller on return. That makes it safe to hand the lanes closures
    over disjoint mutable simulator state, as the banked machine does
    with its banks. *)
module Pool : sig
  type t

  val create : lanes:int -> t
  (** Spawn [lanes - 1] worker domains (so [lanes = 1] spawns none and
      {!run} degenerates to a plain call). *)

  val lanes : t -> int

  val run : t -> (int -> unit) -> unit
  (** [run t f] executes [f lane] on every lane concurrently — [f 0] on
      the calling domain — and returns once all lanes finish. If lanes
      fail, the exception of the lowest-numbered failing lane is
      re-raised after every lane has been reaped. Raises
      [Invalid_argument] after {!shutdown}. *)

  val shutdown : t -> unit
  (** Stop and join every worker. Idempotent; the pool is unusable
      afterwards. *)

  val with_pool : lanes:int -> (t -> 'a) -> 'a
  (** [create], run the function, [shutdown] (also on exception). *)
end

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default parallelism for
    [--jobs]/[--par-domains] when the user does not pick one. *)

val resolve_jobs : limit:int -> int -> int
(** Resolve a CLI-level jobs request: [<= 0] means auto
    ({!recommended_jobs}); the result is clamped to [1 .. limit]
    (the leg or bank count — more lanes than work is waste). *)

(** {2 One-shot parallel maps} *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ~jobs f xs] = [List.map f xs], computed on up to [jobs]
    domains (the calling domain included). [f] must not share mutable
    state across calls. With [jobs <= 1] (or fewer than two items) no
    domain is spawned and the plain sequential map runs.

    If one or more applications raise, the exception of the earliest
    failed {i input} is re-raised after all domains have joined —
    deterministic even when a later input failed first in wall time. *)

(** {2 Graceful degradation}

    A long campaign should not lose every completed point because one
    point failed. [map_list_policy] isolates failures per point and
    lets the caller choose the policy. *)

type error_policy =
  | Fail  (** raise the earliest failed input's exception (= [map_list]) *)
  | Skip  (** record the failure, keep the rest of the sweep *)
  | Retry of int
      (** re-run a failed point up to [n] more times before recording
          it; each re-run sees a fresh [attempt] index so it can reseed
          deterministically *)

type 'b outcome = Done of 'b | Failed of { attempts : int; error : exn }

val map_list_policy :
  on_error:error_policy ->
  jobs:int ->
  (attempt:int -> 'a -> 'b) ->
  'a list ->
  'b outcome list
(** Like {!map_list} but exceptions are confined to their point.
    [f ~attempt x] receives the 0-based attempt number ([> 0] only under
    [Retry]). Results are in input order at every [jobs] level; when no
    application raises, the outcome list is [Done] of exactly
    [map_list ~jobs (f ~attempt:0) xs]. Under [Fail] a failure is
    re-raised only after all domains have joined. *)

val partition_outcomes :
  'b outcome list -> (int * 'b) list * (int * int * exn) list
(** Split outcomes into [(index, value)] successes and
    [(index, attempts, error)] failures, both in input order. *)
