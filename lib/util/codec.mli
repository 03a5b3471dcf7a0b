(** Flat binary codec for checkpoint payloads.

    Fixed-width little-endian integers with length-prefixed strings and
    arrays, plus two bulk encodings sized by content: a length-prefixed
    range of an array ({!W.int_range}) and a width-fitted column
    ({!W.column}). Used by every stateful component to encode its mutable state
    into a checkpoint section ({!Hsgc_checkpoint.Checkpoint}) and to
    restore it in place. An encoder is a function over a {!W.t}: the
    container runs it once on a measuring writer to size the payload,
    then once more into the bytes it reserved. The reader is a cursor
    over an immutable payload — or over a slice of a larger string,
    without copying — and raises {!Error} on any malformed or truncated
    read; integrity beyond well-formedness (bit flips on disk) is caught
    earlier by the container's per-section CRCs. Neither direction
    allocates per field or per bulk value. *)

exception Error of string

module W : sig
  type t

  val measure : unit -> t
  (** A writer that stores nothing and only counts bytes: run an encoder
      through it to learn the exact size of its output. Arrays and
      ranges cost O(1) to measure; a {!column} scans its values once for
      its width. *)

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

  val int_range : t -> int array -> pos:int -> len:int -> unit
  (** [int_range w a ~pos ~len] writes [len], then [a.(pos)] ...
      [a.(pos + len - 1)]: the bytes of {!int_array} on a slice, checked
      once. [int_array w a] is [int_range w a ~pos:0 ~len:(Array.length a)].
      Raises [Invalid_argument] on a slice outside [a]. *)

  val word_range :
    t ->
    (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
    pos:int ->
    len:int ->
    unit
  (** {!int_range} over a Bigarray of ints (the heap's memory): the same
      bytes for the same values. *)

  val column : t -> ?pos:int -> int array -> len:int -> unit
  (** [column w ~pos a ~len] writes the [len] values of [a] from [pos]
      (default 0) width-fitted: a width word, then the values at that
      width with no length prefix. The width is 4 (bytes, little-endian
      two's complement) when every one of the values fits a signed
      32-bit int, and 8 otherwise, so it depends on the values alone.
      Raises [Invalid_argument] on a slice outside [a]. *)
end

module R : sig
  type t

  val of_substring : string -> pos:int -> len:int -> t
  (** A reader over [len] bytes of a string from [pos], without
      copying them. *)

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

  val int_range_into :
    t -> int array -> pos:int -> max:int -> what:string -> int
  (** [int_range_into r dst ~pos ~max ~what] is the inverse of
      {!W.int_range}: it reads a range of at most [max] values into
      [dst] from [pos] and returns its length, leaving the rest of [dst]
      as it was. Raises {!Error}, naming [what], when the encoded
      length is negative or above [max], and on a short range. *)

  val word_range_into :
    t ->
    (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
    pos:int ->
    max:int ->
    what:string ->
    int
  (** {!int_range_into} into a Bigarray of ints: the inverse of
      {!W.word_range}. *)

  val column_into : t -> ?pos:int -> int array -> len:int -> unit
  (** Inverse of {!W.column}: fills [len] values of the destination from
      [pos] (default 0). Raises {!Error} on a width other than 4 or 8
      and on a column shorter than [len] values. *)
end
