(** Flat binary codec for checkpoint payloads.

    Fixed-width little-endian integers with length-prefixed strings and
    arrays. Used by every stateful component to encode its mutable state
    into a checkpoint section ({!Hsgc_checkpoint.Checkpoint}) and to
    restore it in place. An encoder is a function over a {!W.t}: the
    container runs it once on a measuring writer to size the payload,
    then once more into the bytes it reserved. The reader is a cursor
    over an immutable payload — or over a slice of a larger string,
    without copying — and raises {!Error} on any malformed or truncated
    read; integrity beyond well-formedness (bit flips on disk) is caught
    earlier by the container's per-section CRCs. Neither direction
    allocates per field. *)

exception Error of string

module W : sig
  type t

  val measure : unit -> t
  (** A writer that stores nothing and only counts bytes: run an encoder
      through it to learn the exact size of its output. Bulk arrays cost
      O(1) to measure. *)

  val into : Bytes.t -> pos:int -> t
  (** A writer filling [buf] from [pos]. A write past the end of [buf]
      raises [Invalid_argument]: the bytes must have been reserved. *)

  val pos : t -> int
  (** Bytes counted so far (measuring writer), or the offset of the next
      write into the buffer. *)

  val int : t -> int -> unit
  val i64 : t -> int64 -> unit
  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val string : t -> string -> unit
  val int_array : t -> int array -> unit
  val bool_array : t -> bool array -> unit

  val interleaved : t -> int array array -> len:int -> unit
  (** [interleaved w cols ~len] writes the first [len] rows of a table
      stored as columns, row by row — [cols.(0).(i)], ...,
      [cols.(k-1).(i)] for each [i] — with no length prefix: the bytes
      of [k] {!int} writes per row, reserved and checked once. *)
end

module R : sig
  type t

  val of_substring : string -> pos:int -> len:int -> t
  (** A reader over [len] bytes of a string from [pos], without
      copying them. *)

  val remaining : t -> int
  val eof : t -> bool
  val int : t -> int
  val i64 : t -> int64
  val bool : t -> bool
  val float : t -> float
  val string : t -> string

  val blob : t -> int * int
  (** A length-prefixed byte string left in place: its offset in the
      underlying string and its length. *)

  val int_array : t -> int array

  val int_array_into : t -> int array -> what:string -> unit
  (** Read an array into an existing destination; raises {!Error} when
      the encoded length differs from the destination's — a snapshot for
      a differently-shaped machine. *)

  val bool_array_into : t -> bool array -> what:string -> unit

  val interleaved_into : t -> int array array -> len:int -> unit
  (** Inverse of {!W.interleaved}: fills the first [len] rows of the
      columns. *)
end
