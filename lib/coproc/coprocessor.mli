(** The multi-core garbage collection coprocessor (paper Sections IV–V).

    [collect] runs one complete stop-the-world collection cycle of the
    fine-grained parallel Cheney algorithm at clock-cycle granularity:

    - core 0 initializes [scan] and [free] and evacuates the root set;
    - a hardware barrier releases all cores into the scanning loop;
    - every core repeatedly: locks [scan], takes the gray object at
      [scan] (header via the on-chip FIFO when possible), advances [scan]
      past it, releases the lock, and copies the object's body from the
      fromspace original (found through the backlink), translating each
      pointer-area word by locking the child's header and either following
      the forwarding pointer or evacuating the child (claiming tospace
      through the [free] register, one-cycle critical section);
    - termination: the holder of the scan lock observes [scan = free]
      with every busy bit clear;
    - all cores flush their memory buffers and meet an end barrier.

    Work is distributed strictly object-by-object through the single
    shared worklist (the gray region between [scan] and [free]); the only
    synchronization costs are the cycle-level stalls that the counters
    record. *)

type config = {
  n_cores : int;
  mem : Hsgc_memsim.Memsys.config;
  max_cycles : int;
      (** safety bound; [collect] raises [Simulation_diverged] beyond it *)
  scan_unit : int option;
      (** paper Section VII future work: when [Some u], an object whose
          body exceeds [u] words is handed out in [u]-word pieces, so
          several cores copy one large object concurrently ("distribute
          work at the granularity of cache lines"). [scan] advances
          piece-wise through the frame; the frame's header stays latched
          in the synchronization block between pieces, so non-initial
          pieces cost one cycle and no header access; the last piece to
          retire blackens the object (an outstanding-piece count kept
          under the frame's header lock). [None] (the default) is the
          published object-granularity design. *)
  skip : bool;
      (** event-driven scheduling and idle-cycle skipping
          ({!Hsgc_sim.Kernel}, {!Hsgc_sim.Wake_queue}): a core whose next
          transition depends only on its own four memory buffers goes to
          sleep until the earliest buffer event, arming its wake in the
          kernel's wake queue, and is not stepped in between; a cycle
          that turns out globally quiescent — or that leaves {i every}
          core asleep on a memory response — fast-forwards the clock to
          the earliest wake-up. Per-cycle statistics (stall breakdowns,
          busy/empty cycles, ordering rejections) are credited in bulk
          for the slept or skipped spans, so every reported number is
          bit-identical to naive stepping; only wall-clock time changes.
          Default [true]; [false] is the pure poll-every-core-every-cycle
          parity reference ([--no-skip] in the CLI). Tracing temporarily
          disables the whole-machine jumps so quiet cycles are sampled
          too. In a parkable run (more than one core; no sanitizer,
          fault plan, scan unit or bank attachment; no per-step trace)
          a core whose step failed a scan-lock grab, an empty-worklist
          termination probe or a header lock {e parks}: it is not
          stepped again until another core's write can change the
          retry's outcome, and its skipped retries are credited in bulk
          at the wake, to an attached tracer and profiler too. A parked
          core counts as awake everywhere outside the stepping loop, so
          parking changes no statistic, no snapshot, no trace event or
          profile cell and not the executed/skipped split. In a plain
          run (the parking guards at any core count, no tracer or
          profiler) a step after the root phase at which exactly one
          core is due and none is parked runs that core alone through
          an exclusive interpreter until the other cores' earliest
          wake: the single-due window, which also changes no
          statistic, no snapshot and not the executed/skipped split. *)
  faults : Hsgc_fault.Injector.spec option;
      (** fault-injection plan ({!Hsgc_fault.Injector}). Each simulator
          instance builds a private injector from the spec, so
          domain-parallel sweep points are independent and every point
          is exactly reproducible. [None] (the default) means no
          injector: behavior is bit-identical to a build without the
          hooks. *)
  cycle_budget : int option;
      (** watchdog: hard bound on total simulated cycles. Exceeding it
          raises {!Stall_diagnosis} with a full machine dump. Distinct
          from [max_cycles], whose overrun signals simulator
          divergence. [None] (the default) = unbounded. *)
  stall_window : int;
      (** watchdog: consecutive {i executed} cycles without any global
          progress (no buffer transition, no marked core transition,
          scan/free frozen) before raising {!Stall_diagnosis}. Always
          on; the default (1,000,000) is far beyond any legitimate
          wait, which is bounded by memory latencies. *)
  sanitize : Hsgc_sanitizer.Sanitizer.mode;
      (** machine sanitizer ({!Hsgc_sanitizer.Sanitizer}): an
          Eraser-style lockset checker plus protocol linter observing
          every simulated heap word access, lock transition, FIFO
          operation and barrier pass through a shared hook record.
          [Off] (the default) attaches nothing — each hook site reduces
          to one load-and-branch; [Check] records findings into
          {!gc_stats}; [Strict] raises {!Hsgc_sanitizer.Diag.Violation}
          at the first finding. The sanitizer observes the
          stop-the-world collection (it is detached at [finalize];
          concurrent-mode mutator activity is out of scope). *)
}

val default_config : config
(** 8 cores, default memory model, generous cycle bound, no sub-object
    splitting. *)

val config :
  ?mem:Hsgc_memsim.Memsys.config ->
  ?scan_unit:int ->
  ?skip:bool ->
  ?faults:Hsgc_fault.Injector.spec ->
  ?cycle_budget:int ->
  ?stall_window:int ->
  ?sanitize:Hsgc_sanitizer.Sanitizer.mode ->
  n_cores:int ->
  unit ->
  config

exception Heap_overflow
(** Tospace could not hold the live data. *)

(** {2 Banked-machine attachment}

    A machine {!start}ed with a [remote] record becomes one {e bank} of
    the banked variant machine ({!Banked}): it owns the fromspace home
    range [[rm_lo, rm_hi)], runs its private sync block, memory lane
    and header FIFO, and interacts with the other banks only through
    the driver. Pointer slots naming a child outside the home range are
    stored stale (like data words — no header lock, no evacuation) and
    recorded in the bank's outbox; the driver drains the outbox at
    every superstep barrier and routes each request through the global
    FIFO arbitration step to the child's home bank. The scan-lock
    termination probe is suppressed until the driver, having observed
    global quiescence, sets [rm_allow_finish].

    The record is exposed for the driver (it drains [rm_slots]/
    [rm_children] and resets [rm_n] at barriers); microprogram code
    only ever appends. Not snapshottable; incompatible with sub-object
    scanning (checked by {!start}). *)
type remote = {
  rm_bank : int;
  rm_lo : int;
  rm_hi : int;
  mutable rm_allow_finish : bool;
  mutable rm_slots : int array;  (** outbox: stale tospace slot addresses *)
  mutable rm_children : int array;  (** parallel: foreign fromspace children *)
  mutable rm_n : int;  (** live outbox prefix length *)
  mutable rm_requests : int;  (** total outbox pushes over the run *)
}

val remote_create : bank:int -> lo:int -> hi:int -> remote
(** A fresh bank attachment with an empty outbox and the termination
    grant withheld. *)

exception Simulation_diverged of string
(** The cycle bound was exceeded — indicates a simulator bug; the
    algorithm itself is deadlock-free by lock ordering. *)

(** {2 Stall diagnosis}

    The watchdog ({!Hsgc_sim.Kernel.Watchdog}) turns what used to be an
    infinite [collect] hang into a structured exception carrying a full
    machine dump, captured at the cycle the watchdog tripped. *)

type core_dump = {
  core_id : int;
  microstate : string;  (** microprogram state, e.g. ["try-lock-scan"] *)
  busy : bool;  (** the core's ScanState busy bit *)
  header_lock : int option;  (** address in its header-lock register *)
  ports : (string * string) list;
      (** the four memory buffers ([hl]/[hs]/[bl]/[bs]) and their
          {!Hsgc_memsim.Port.describe} status *)
}

type diagnosis = {
  trip : Hsgc_sim.Kernel.Watchdog.trip;
  at_cycle : int;
  d_scan : int;
  d_free : int;
  scan_lock : int option;  (** owning core, if held *)
  free_lock : int option;
  fifo_depth : int;
  pending_header_stores : int;  (** comparator-array occupancy *)
  worklist_nonempty : bool;  (** [scan <> free] at trip time *)
  core_dumps : core_dump list;
}

exception Stall_diagnosis of diagnosis

val pp_diagnosis : Format.formatter -> diagnosis -> unit
(** Multi-line human-readable rendering of the dump (also registered as
    the exception printer). *)

(** Result of one collection cycle. *)
type gc_stats = {
  total_cycles : int;
  executed_cycles : int;  (** cycles actually stepped by the kernel *)
  skipped_cycles : int;
      (** quiescent cycles fast-forwarded over;
          [total_cycles = executed_cycles + skipped_cycles] *)
  wall_seconds : float;
      (** host wall-clock time from [start] to [finalize] — with
          [total_cycles] this gives the simulator's throughput in
          simulated cycles per second *)
  root_cycles : int;  (** cycles spent before the start barrier opened *)
  empty_worklist_cycles : int;
      (** cycles in which at least one core was looking for work while
          [scan = free] — no gray object was available for processing
          (the paper's Table I metric) *)
  per_core : Counters.t array;
  live_objects : int;
  live_words : int;
  fifo_hits : int;
  fifo_misses : int;
  fifo_overflows : int;
  mem_loads : int;
  mem_stores : int;
  mem_rejected_bandwidth : int;
  mem_rejected_order : int;
  header_cache_hits : int;
  header_cache_misses : int;
  faults_injected : int;
      (** all faults the injector fired this run (both classes) *)
  corruptions_injected : int;
      (** corruption-class faults only — the denominator of the
          verifier's detection-coverage figure *)
  sanitizer_findings : Hsgc_sanitizer.Diag.t list;
      (** kept (deduplicated, capped at 64) sanitizer findings, oldest
          first; [[]] when the sanitizer was off or silent *)
  sanitizer_total : int;
      (** every sanitizer finding including deduplicated repeats *)
}

val stalls_total : gc_stats -> Counters.t
(** Sum of the per-core counters. *)

val stalls_mean_per_core : gc_stats -> Counters.t
(** Mean per core — the form the paper's Table II reports. *)

val collect :
  ?trace:Trace.t ->
  ?obs:Hsgc_obs.Tracer.t ->
  ?prof:Hsgc_obs.Profiler.t ->
  config -> Hsgc_heap.Heap.t -> gc_stats
(** Run one collection cycle: evacuate everything reachable from the
    heap's roots into the other semispace, update the roots, flip the
    heap. Raises {!Heap_overflow} if the live data does not fit. An
    attached {!Trace} samples the internal signals while the cycle
    runs.

    [obs] attaches an event/span tracer ({!Hsgc_obs.Tracer}): per-core
    phase spans, merged stall runs, FIFO overflow episodes, gray
    backlog / FIFO depth samples, plus lock hold-time, per-object
    scan-latency and memory-latency histograms. With a fixed seed and
    configuration the event stream is byte-identical run to run, and —
    kernel skip spans aside — identical under naive and event-driven
    stepping.

    [prof] attaches a stall-attribution profiler
    ({!Hsgc_obs.Profiler}): every simulated cycle of every core is
    attributed to exactly one of busy / the seven stall categories /
    idle, so per-core bucket sums equal [total_cycles] and the stall
    columns equal the {!Counters} totals. Both must be enabled
    ([enable]) and sized for at least [n_cores] to record anything. *)

(** {2 Cycle-stepped interface}

    [collect] is [start] + [step] to completion + [finalize]. The
    stepped form lets a driver interleave other agents with the
    coprocessor — {!Concurrent} uses it to run the main processor
    {i during} the collection (the paper's announced next step). *)

type sim

val start :
  ?obs:Hsgc_obs.Tracer.t ->
  ?prof:Hsgc_obs.Profiler.t ->
  ?remote:remote ->
  config -> Hsgc_heap.Heap.t -> sim
(** Set up a collection without running it. [obs]/[prof] as in
    {!collect}; when enabled they must be sized for at least
    [config.n_cores] (checked here). [remote] makes the machine one
    bank of the banked machine (see {!remote}); the heap passed is then
    the bank's view — its fromspace is the home range and its tospace
    the bank's slice — sharing the memory array with the real heap. *)

val step : ?trace:Trace.t -> ?horizon:int -> sim -> unit
(** Advance the coprocessor by one clock cycle — or, when the cycle turns
    out quiescent and skipping is enabled, by as many cycles as it takes
    to reach the next wake-up (statistics credited in bulk, bit-identical
    to naive stepping). In a plain run (skipping on; no sanitizer,
    fault plan, scan unit, bank, tracer or profiler) a call after the
    root phase at which exactly one core is due and none is parked may
    retire many executed cycles, but never past the root phase's end, a
    halt, another core's wake, [horizon], the cycle budget or
    [max_cycles + 1]. [horizon] caps any fast-forward at the given
    cycle: a concurrent driver passes the time of its next mutator
    operation so the coprocessor never jumps past an external event. No
    jump passes the cycle budget either, so the watchdog trips at the
    cycle naive stepping trips it. A [trace] samples every cycle, so it
    turns spinner parking and the single-due window off (parked cores
    are first returned to the spinners they stand for). *)

val halted : sim -> bool
(** All cores have passed the end barrier. *)

val finalize : sim -> gc_stats
(** Commit [free], flip the heap, report. Only valid once [halted]. *)

val now : sim -> int
(** Current clock cycle. *)

val executed_cycles : sim -> int
val skipped_cycles : sim -> int
(** Kernel accounting so far (see {!gc_stats}). *)

val roots_done : sim -> bool
(** The root phase has completed and the start barrier has opened — in
    concurrent mode, the point at which the main processor resumes. *)

val sanitizer_findings : sim -> Hsgc_sanitizer.Diag.t list
(** Kept sanitizer findings so far (mid-run peek; the final list is in
    {!gc_stats}). *)

val sanitizer_total : sim -> int

val quiescent : sim -> bool
(** The machine cannot transition until an external agent changes its
    inputs: past the start barrier, every core spinning in the
    scan-lock loop on an empty worklist with all four buffers drained,
    no lock held, no busy bit set, termination not yet detected. The
    banked driver parks such a bank (skips stepping it) until an
    arbitration-step evacuation refills its worklist or the
    termination grant arrives — observationally equivalent to stepping
    it, except the bank's clock does not advance. A pure read. *)

val pieces_outstanding : sim -> int
(** Sub-object mode: total outstanding (handed-out, not yet retired)
    pieces across all split frames — 0 except mid-collection, and 0
    again once halted (the accounting closes). Always 0 when
    [scan_unit] is [None]. *)

(** {2 Main-processor hooks for concurrent collection}

    Both hooks must be called {i between} [step]s. They return [`Wait]
    when a GC core currently holds a conflicting lock — the main
    processor retries on a later cycle (a real stall). Costs returned
    with [`Done] are in main-processor cycles. *)

val mutator_evacuate : sim -> int -> [ `Done of int * int | `Wait ]
(** Read-barrier evacuation: ensure the fromspace object at the given
    address has a tospace copy and return [`Done (tospace_addr, cost)].
    Raises {!Heap_overflow} if tospace is exhausted. *)

val mutator_alloc : sim -> pi:int -> delta:int -> [ `Done of int * int | `Wait ]
(** Allocate a new object {i black} in tospace (its body must only ever
    receive tospace references); the scanning cores step over it.
    Returns [`Done (addr, cost)]. *)

(** {2 Checkpointing}

    A snapshot captures the complete mutable state of a running machine
    — heap image, memory-system transactions, ports, header FIFO, sync
    block, core register files, counters, clock/watchdog/scheduler
    state, fault-injector RNG, tracer and profiler accumulators — as
    named, CRC-guarded sections. Taking one is only meaningful between
    [step]s (any cycle boundary); restoring one onto a freshly
    {!start}ed machine of the same configuration resumes the run
    bit-identically. Incompatible with the sanitizer (its interned
    lockset state is process-local): [save]/[restore] reject machines
    started with [sanitize <> Off]. Also incompatible with
    banked-machine banks (their outbox and termination grant live in
    the {!Banked} driver, outside the config): [save] rejects machines
    started with [?remote]. *)

module Snapshot : sig
  type parent
  (** The image a delta save is taken against, as its writer keeps it:
      a copy of the heap words that image holds, its tracer ring length
      and its heap layout (semispace bounds and orientation). *)

  val parent : ?last:parent -> sim -> parent
  (** The machine as it stands, as the parent of a later delta save —
      taken once the image saved from it is durable. With [last] (the
      parent that save was a delta of, consumed: updated in place and
      returned) the word copy is brought up to date by the runs that
      save found when the clock has not moved since, otherwise copied
      whole; without it the heap is copied afresh. *)

  val extends : parent -> sim -> bool
  (** A delta against the parent is possible: the heap still has the
      parent's size, semispace bounds and orientation. *)

  val save :
    ?extra:(string * (Hsgc_util.Codec.W.t -> unit)) list ->
    ?parent:parent ->
    sim ->
    fingerprint:string ->
    Hsgc_checkpoint.Checkpoint.image
  (** Serialize the machine into a checkpoint image: one section per
      subsystem, then the caller's [extra] sections (driver metadata),
      each given by its encoder. Write it with
      {!Hsgc_checkpoint.Checkpoint.write}. Without [parent] the image is
      full. With it the image is a delta: a "heap-delta" section
      ({!Hsgc_heap.Heap.encode_delta}: the words that differ from the
      parent's, found in one compare pass) and an "obs-delta" section
      (the tracer events appended since the parent, then the tracer's
      registers and the profiler whole) in place of "heap" and "obs",
      and every other section whole, so a delta has as many sections as
      a full image. Raises [Invalid_argument] when the parent does not
      {!extends} the machine. The image says nothing of its parent:
      naming it is the writer's job ({!Hsgc_core.Resume}). *)

  val exceeds_full :
    ?extra:(string * (Hsgc_util.Codec.W.t -> unit)) list ->
    parent:parent ->
    sim ->
    fingerprint:string ->
    int ->
    bool
  (** [exceeds_full ~parent sim ~fingerprint n]: [n] bytes are more
      than a full image {!save} (with [extra]) would write now. Right
      after a delta {!save} against [parent] (the clock unmoved since),
      a lower bound from that save's compare pass and the ring's length
      settles it; above the bound the full image is measured, not
      built. *)

  val config : Hsgc_checkpoint.Checkpoint.snapshot -> config
  (** The configuration the snapshotted machine was started under
      (sanitizer [Off] by construction). Raises
      {!Hsgc_checkpoint.Checkpoint.Corrupt} on a malformed section. *)

  val restore : sim -> Hsgc_checkpoint.Checkpoint.snapshot -> unit
  (** Overwrite a freshly started machine's state in place from a full
      snapshot. The machine must have been {!start}ed with the
      snapshot's {!config} and the same heap geometry (use {!config}
      and rebuild the workload heap deterministically); any mismatch or
      malformed section raises {!Hsgc_checkpoint.Checkpoint.Corrupt}.
      A delta snapshot is applied the same way onto a machine holding
      its parent's state (restored from the parent's own chain): its
      heap runs and ring events on top, every other section whole. The
      tracer refuses a delta whose parent held another ring length;
      that the rest of the parent matches is the caller's to check. *)
end

(** {2 Checkpoint chains}

    A checkpoint writer's per-machine state (the chain of
    {!Hsgc_core.Resume}) rides on the machine, so machines on different
    domains never share it. The slot's contents are the writer's type:
    it extends {!chain}. A started machine holds [No_chain]. *)

type chain = ..
type chain += No_chain

val chain : sim -> chain
val set_chain : sim -> chain -> unit
