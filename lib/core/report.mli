(** Renders the paper's evaluation artifacts from experiment data.

    Each function returns the artifact as printable text (an aligned
    table, or an ASCII chart plus its data table). [bin/repro.exe] and
    the bench harness print them. *)

type sweep_data = (string * Experiment.measurement list) list
(** Per workload: measurements across core counts. *)

val run_sweeps :
  ?verify:bool ->
  ?scale:float ->
  ?seeds:int array ->
  ?mem:Experiment.Memsys.config ->
  ?skip:bool ->
  ?sanitize:Hsgc_sanitizer.Sanitizer.mode ->
  ?cores:int list ->
  ?jobs:int ->
  unit ->
  sweep_data
(** One sweep over all eight workloads (the data behind Figure 5 and
    Table I; the 16-core column doubles as Table II). [skip] passes
    through to the simulation kernel (idle-cycle skipping, default on).
    [jobs > 1] distributes the workload x cores grid over that many
    domains — one simulator per point, results regrouped in workload
    order, so every artifact is byte-identical at any [jobs] level. *)

val figure5 : sweep_data -> string
(** "Scaling behavior": speedup vs. core count, all workloads. *)

val table1 : sweep_data -> string
(** "Fraction of clock cycles during which work list is empty". *)

val table2 : ?n_cores:int -> sweep_data -> string
(** "Clock cycle distribution (for 16 cores)": total plus the seven
    stall columns, absolute and percent, mean per core. *)

val figure6 : sweep_data -> string
(** "Scaling behavior (more realistic memory latency)": the caller passes
    a sweep obtained with [mem = with_extra_latency default 20]. *)

val fifo_summary : sweep_data -> string
(** Extension table: header-FIFO hits/overflows per workload — the
    mechanism behind cup's scan-lock stalls. *)

val heap_size_invariance : ?scale:float -> ?seed:int -> unit -> string
(** Section VI-B opening remark: collection cost is independent of heap
    size — db at 8 cores with the semispace at 1.2×..8× the data. *)

val baselines : ?scale:float -> ?seed:int -> unit -> string
(** E5: the Section III software schemes vs hardware support, simulated
    under the commodity synchronization cost model, on search/db/javac. *)

val future_work : ?scale:float -> ?seed:int -> unit -> string
(** E7: the Section VII proposals as ablations — sub-object scan units on
    a large-array heap, and the header cache on javac at 16 cores. *)

val concurrent_pauses : ?scale:float -> ?seed:int -> unit -> string
(** E8: stop-the-world pause vs concurrent pause (root phase only), with
    read-barrier and mutator-progress counts; every run verified. *)

val profile_table : total:int -> Hsgc_obs.Profiler.t -> string
(** Render a closed stall-attribution profile as the operator-facing
    table: one row per core (absolute cycles in each of the nine
    buckets, each row summing to [total]) plus an ALL row with
    aggregate counts and percentages — the machine-checked counterpart
    of the paper's Table II. *)

val metrics_summary : Hsgc_obs.Metrics.t -> string
(** Render a tracer's metrics registry: one row per non-empty histogram
    (count, mean, conservative p50/p90/p99, max — all in cycles) and
    one per counter. *)

val stall_diagnosis : Hsgc_coproc.Coprocessor.diagnosis -> string
(** Render a {!Hsgc_coproc.Coprocessor.Stall_diagnosis} payload as the
    operator-facing report: a short reading guide followed by the full
    machine dump ({!Hsgc_coproc.Coprocessor.pp_diagnosis}). *)

val sanitizer_findings : total:int -> Hsgc_sanitizer.Diag.t list -> string
(** Render the sanitizer findings of a run ({!Hsgc_coproc.Coprocessor}
    [gc_stats.sanitizer_findings]) as the operator-facing report: a
    summary line ([total] counts deduplicated repeats) followed by one
    line per kept finding with cycle, core, address and held-lockset
    context. *)
