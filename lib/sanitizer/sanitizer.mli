(** The machine sanitizer: an Eraser-style lockset checker plus a
    protocol linter over the simulated coprocessor, driven entirely by
    {!Hooks} events.

    The lockset checker shadows every heap word with a protection
    candidate set.  A word may be protected by (a) the scan lock while
    it is a header word of the object at [scan], (b) the header lock of
    its object frame, or (c) range ownership — the exclusive claim a
    core takes on an object's words when it grabs the object from the
    worklist or claims fresh tospace.  The paper's same-cycle
    release→acquire handoff (static priority, Section IV) is modeled by
    treating the grab itself as an ownership-transfer point: a range
    claim resets the claimed words to virgin state, so the previous
    owner's accesses never falsely intersect with the new owner's.

    The protocol linter mirrors the sync block registers and enforces:
    lock order [scan < header < free], scan/free monotonicity and
    [scan <= free], at-most-one forwarding install per object (under
    the header lock), header-FIFO pops in push order, no scan advance
    without the scan lock, barrier arrival completeness, and no
    register pokes after collection has started.

    Findings are deduplicated per (check, core, address) and capped;
    [Strict] mode raises {!Diag.Violation} on the first finding. *)

type mode = Off | Check | Strict

type t

val create :
  mode:mode -> mem_words:int -> n_cores:int -> header_words:int ->
  Hooks.t -> t
(** Installs the observer closures into the hook record and flips
    [hooks.on] when [mode <> Off]. The per-word shadow state (four bytes
    per heap word) is allocated only then: an [Off] sanitizer is never
    consulted. At most 250 cores. *)

val detach : t -> unit
(** Uninstall: flips [hooks.on] off so later (non-collection) machine
    activity is not observed. *)

val mode : t -> mode

val findings : t -> Diag.t list
(** Kept findings, oldest first (capped at 64, deduplicated). *)

val total : t -> int
(** All findings, including deduplicated repeats. *)

val is_silent : t -> bool

val mode_to_string : mode -> string
val mode_of_string : string -> mode option
