(** Deterministic checkpoint/restore driver — crash-safe long runs.

    Steps a collection with every step horizon-capped at the next
    checkpoint boundary, writes an
    atomic CRC-guarded snapshot ({!Hsgc_checkpoint.Checkpoint}) exactly
    at each boundary, and reconstructs a machine from any such snapshot
    so the run continues bit-identically.

    The horizon cap can only split the kernel's fast-forwards, so the
    executed/skipped split is the {e only} statistic checkpointing
    perturbs: total cycles, every per-core counter, verify results and
    tracer digests of a resumed run equal the uninterrupted run's —
    the equivalence the interrupt-chaos campaign gates on. With
    checkpointing off the driver is byte-for-byte the plain stepping
    loop (zero cost). Incompatible with [--sanitize] (the sanitizer's
    interned state is process-local; {!Hsgc_coproc.Coprocessor.Snapshot}
    rejects it). *)

val fingerprint : unit -> string
(** Digest (hex) of the running executable — the compatibility key
    embedded in checkpoints and repro journals. Memoized. *)

(** What a snapshot needs beyond machine state to become a running
    collection again: how to rebuild the pre-collection heap and which
    observability instruments to re-attach. *)
type meta = {
  workload : string;
  scale : float;
  seed : int;
  partitions : int;
      (** Unused: written as 1 and ignored on resume (a snapshot that
          records more partitions resumes on the one stepping path with
          the same results). Kept because the meta section stores it and
          bench/e2e/pipelines.ml builds a meta with [partitions = 1]. *)
  obs_on : bool;
  obs_capacity : int;
  obs_interval : int;
  prof_on : bool;
}

val save :
  ?fingerprint:string -> Hsgc_coproc.Coprocessor.sim -> meta -> path:string ->
  unit
(** Snapshot the machine ({!Hsgc_coproc.Coprocessor.Snapshot.save}), add
    the [meta] section, write durably ({!Hsgc_checkpoint.Checkpoint.write}).
    Only valid between steps.

    Saves of one machine form a {e chain}: the machine's first save is
    a full image, and each later one is a delta of the last image it
    wrote — the heap words and tracer events that changed since, every
    other section whole — naming that parent (file name and
    {!Hsgc_checkpoint.Checkpoint.digest}) in the CRC-covered [meta]
    section. A full image is written instead when the save goes to
    another directory than the parent, onto the parent's own path, or
    finds the heap's layout changed ({!Hsgc_coproc.Coprocessor.Snapshot.extends}),
    and when the deltas written since the chain's full image would
    then hold more bytes than a full image of the machine now. The
    chain rides on the machine and advances only once the write has
    returned: a failed save leaves the next one a delta of the last
    durable image. *)

type resumed = {
  sim : Hsgc_coproc.Coprocessor.sim;
  meta : meta;
  cfg : Hsgc_coproc.Coprocessor.config;
  heap : Hsgc_heap.Heap.t;
  pre : Hsgc_heap.Verify.snapshot;
      (** pre-collection verification baseline, rebuilt from the
          workload — identical to the uninterrupted run's *)
  obs : Hsgc_obs.Tracer.t option;
  prof : Hsgc_obs.Profiler.t option;
}

val resume : ?fingerprint:string -> path:string -> unit -> resumed
(** Load and fully verify a snapshot and, through its parent links, the
    chain it belongs to; refuse any file written by a different binary
    (or pass [fingerprint] to override the key); rebuild the workload
    heap deterministically; restore the chain's full image, then apply
    each delta in order. Each file's own CRCs are checked before its
    parent is looked up. Raises {!Hsgc_checkpoint.Checkpoint.Corrupt}
    on any integrity, format, or compatibility violation — a damaged
    file, a missing parent, a parent that is not the file its child was
    written against (another run's, or rewritten since), a link across
    builds — with a message that starts with the file concerned and
    names the section where there is one. *)

val checkpoint_path : dir:string -> cycle:int -> string
(** [dir/ckpt-<cycle>.ckpt] (cycle zero-padded so lexicographic order is
    cycle order). *)

val latest : dir:string -> string option
(** Newest periodic checkpoint in [dir] ([None] when there is none; the
    post-mortem snapshot is never auto-resumed). *)

val postmortem_name : string
(** File name of the watchdog post-mortem snapshot ([postmortem.ckpt]). *)

type outcome =
  | Finished of Hsgc_coproc.Coprocessor.gc_stats * unit
      (** ran to completion ([finalize]d). The [unit] is a placeholder
          kept because bench/e2e/pipelines.ml matches [Finished (s, _)]. *)
  | Stopped of { at_cycle : int; checkpoint : string option }
      (** [should_stop]/[stop_at] ended the run early; [checkpoint] is
          the final snapshot written (when checkpointing is on) *)

val drive :
  ?every:int ->
  ?dir:string ->
  ?stop_at:int ->
  ?should_stop:(unit -> bool) ->
  ?partitions:int ->
  meta:meta ->
  Hsgc_coproc.Coprocessor.sim ->
  outcome
(** Run the machine to completion. [every]/[dir] enable periodic
    checkpoints at every multiple of [every] simulated cycles (boundary
    exact: steps are horizon-capped so [now] lands on the boundary).
    [should_stop] is polled between steps (signal handlers set a flag);
    [stop_at] is the chaos campaign's deterministic in-process kill.
    Both end the run with a final checkpoint and [Stopped].
    [partitions] is ignored; it stays because bench/e2e/pipelines.ml
    passes [~partitions:1]. If the watchdog trips, a post-mortem
    snapshot (a full image, outside the machine's chain) is written to
    [dir] before [Stall_diagnosis] propagates. *)
