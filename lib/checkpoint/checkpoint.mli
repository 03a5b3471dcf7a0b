(** Versioned, sectioned, CRC-guarded snapshot container.

    A checkpoint file is a magic string, a format version, a
    writer-chosen fingerprint (config/build identity), and a list of
    named sections, each carrying a CRC-32 of its payload. Files are
    written atomically (temp file in the destination directory + fsync
    + rename + fsync of the directory), so a crash mid-write never
    leaves a torn snapshot behind — at worst a stale [.ckpt-*.tmp]
    file, and a write that fails with an exception removes even that —
    and a file whose write returned survives a crash, which a delta
    image naming it as its parent relies on. What the sections hold,
    and how delta images chain to their parents, is the writer's
    ({!Hsgc_coproc.Coprocessor.Snapshot}, {!Hsgc_core.Resume}).

    Loading verifies the magic, version, structural well-formedness and
    {e every} section CRC eagerly; any deviation — including a single
    flipped bit anywhere in a payload — raises {!Corrupt} naming what
    failed. Payload encoding/decoding is {!Hsgc_util.Codec}'s job; this
    module frames the sections and checksums them. Each payload byte is
    stored once on the way out (encoders write into the exactly-sized
    file image) and read in place on the way back (section readers are
    views of the loaded image). *)

exception Corrupt of string

val version : int
(** The format version (4): the heap section stores each semispace up
    to its last nonzero word ([Hsgc_heap.Heap.encode]), the tracer
    section its event ring as width-fitted columns
    ([Hsgc_obs.Tracer.encode]), the FIFO its live entries, and a delta
    image carries "heap-delta" and "obs-delta" sections in place of
    "heap" and "obs". A snapshot of any other version is refused. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3) of a string. *)

val crc32_sub : string -> pos:int -> len:int -> int
(** CRC-32 of [len] bytes of a string from [pos], without copying them.
    Raises [Invalid_argument] on a range outside the string. *)

(** {2 Writing} *)

type image
(** An encoded checkpoint file, ready to write. *)

val encode :
  fingerprint:string -> (string * (Hsgc_util.Codec.W.t -> unit)) list -> image
(** [encode ~fingerprint sections] frames each [(name, encoder)] as one
    section, in order. Each encoder runs twice — on a measuring writer,
    then into the image allocated at its exact size — so it must write
    the same bytes both times. Raises [Invalid_argument] on a duplicate
    section name or an encoder whose two runs disagree. *)

val measure :
  fingerprint:string -> (string * (Hsgc_util.Codec.W.t -> unit)) list -> int
(** The size in bytes of the image {!encode} would build from the same
    arguments, from one measuring run of each encoder. *)

val to_string : image -> string
(** The file's bytes (not a copy). *)

val image_digest : image -> int
(** {!digest} of the snapshot these bytes load as. *)

val write : image -> path:string -> unit
(** Durable atomic write: temp file beside [path], fsync, rename, then
    fsync of the directory (a filesystem that refuses a directory fsync
    with [EINVAL] is tolerated). When the write, fsync or rename raises
    (a full disk, a directory at [path]) the temp file is removed and
    the exception re-raised. *)

(** {2 Reading} *)

type snapshot

val load : string -> snapshot
(** Read and fully verify a snapshot file. Raises {!Corrupt} on any
    integrity or format violation (unreadable file included). *)

val of_string : string -> snapshot
(** Same, from bytes already in memory. *)

val fingerprint : snapshot -> string

val digest : snapshot -> int
(** The file's identity: a CRC-32 of its fingerprint and its section
    table (each section's name, length and payload CRC), so it changes
    with any byte of the file. A delta names its parent by it. *)

val mem : snapshot -> string -> bool
(** Whether the snapshot has a section of this name. *)

val reader : snapshot -> string -> Hsgc_util.Codec.R.t
(** A reader over a named section's payload, in place; raises
    {!Corrupt} when the section is absent. *)

val section_ranges : snapshot -> (string * int * int) list
(** [(name, byte_offset, byte_length)] of every section payload within
    the bytes the snapshot was read from, in file order. *)

val payload_ranges : string -> (string * int * int) list
(** {!section_ranges} of a snapshot file — for mutation tests that flip
    one byte per section and assert the CRC catches it. *)
