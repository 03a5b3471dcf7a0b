(** The activity view behind [gcsim trace --format ascii|csv]: a
    {!Tracer}'s events folded into one row per counter sample, with the
    gray backlog, the header-FIFO depth and one letter per core. A
    core's letter at a sample's cycle comes from the phase span and the
    stall run covering that cycle; the stall letter wins, and ['?']
    marks a cell no span reached (events were dropped). The letters are
    listed in docs/OBSERVABILITY.md and under every rendered timeline.

    The view is the same under every stepping strategy. Absorbed before
    the ring fills, it covers a run of any length. *)

type t

val create : Tracer.t -> t
(** An empty view of the tracer, with its core count and sampling
    interval. *)

val absorb : t -> unit
(** Fold the tracer's kept events into the view, then {!Tracer.clear}
    its ring. Call it again after {!Tracer.finish}. *)

val samples : t -> int
(** Rows so far. *)

val timeline : ?width:int -> t -> string
(** The sampled cycle range and the tracer's drop count, a backlog
    sparkline, one row of letters per core ([width] samples, default
    100) and the legend. *)

val to_csv : t -> string
(** [cycle,backlog_words,fifo_depth,core_activity], one line a sample. *)
