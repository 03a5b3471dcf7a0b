(** Metrics registry: named counters plus log2-bucketed histograms over
    simulated-cycle values.

    Observations are O(1), allocation-free and purely integral, so a
    metric's final state is a deterministic function of the simulated
    machine. Hot call sites hold the [hist]/[counter] handle directly;
    the registry only exists so reports can enumerate everything that
    was registered. *)

type hist
type counter
type t

val create : unit -> t

val hist : t -> string -> hist
(** Register (and return a direct handle to) a named histogram. *)

val counter : t -> string -> counter

val bump : counter -> int -> unit
val observe : hist -> int -> unit
(** Record one value (clamped at 0). Bucket [b > 0] spans
    [2^(b-1) .. 2^b - 1]; bucket 0 holds exact zeros. *)

val observe_n : hist -> int -> int -> unit
(** [observe_n h v n] records [v] [n] times in O(1); the same final
    state as [n] calls of [observe h v]. [n <= 0] records nothing. *)

val hist_name : hist -> string
val hist_count : hist -> int
val hist_sum : hist -> int
val hist_max : hist -> int

val hist_bucket : hist -> int -> int
(** Observations in bucket [b], [0 <= b < hist_buckets]. *)

val hist_mean : hist -> float

val hist_percentile : hist -> int -> int
(** Upper bound of the bucket containing the p-th percentile
    observation — conservative, monotone, deterministic. *)

val counter_name : counter -> string
val counter_value : counter -> int

val all_hists : t -> hist list
(** In registration order. *)

val all_counters : t -> counter list

val hist_buckets : int

(** {2 Checkpointing} *)

val encode : t -> Hsgc_util.Codec.W.t -> unit
val restore : t -> Hsgc_util.Codec.R.t -> unit
(** Checkpoint/reinstate every histogram and counter, in registration
    order; names are validated on restore as a shape check. *)
