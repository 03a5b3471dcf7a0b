(* Flat binary codec for checkpoint payloads.

   Fixed-width little-endian integers, length-prefixed strings and
   arrays — no varints, no compression. The format favors auditability
   over size: a section's byte image is a deterministic function of the
   machine, so byte-level comparisons between snapshots are meaningful.
   Two bulk encodings size themselves by content without giving that
   up: a length-prefixed range of an array (the heap stores each
   semispace up to its last nonzero word) and a width-fitted column
   (4 bytes per value when every value fits a signed 32-bit int, else
   8), whose width is a function of the values alone.
   Integrity is the container's job (per-section CRCs in
   [Hsgc_checkpoint.Checkpoint]); the reader here only bounds-checks,
   and every malformed read raises [Error].

   Snapshots run to megabytes, so both directions check bounds
   once per field — once per array for the bulk codecs — and then move
   4- and 8-byte words with the compiler's unboxed, unchecked
   load/store primitives: no per-field allocation, no boxed [Int32], no
   per-element bounds test. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get64u : string -> int -> int64 = "%caml_string_get64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get32u : string -> int -> int32 = "%caml_string_get32u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bswap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

(* Unchecked: callers have bounds-checked [pos .. pos + 8). *)
let put_int b pos v =
  let x = Int64.of_int v in
  set64u b pos (if big_endian () then bswap64 x else x)

let get_int s pos =
  let x = get64u s pos in
  Int64.to_int (if big_endian () then bswap64 x else x)

(* The 4-byte forms of a width-fitted column: [put_i32] truncates, so
   callers store only values that fit (see [column_width]); [get_i32]
   sign-extends. *)
let put_i32 b pos v =
  let x = Int32.of_int v in
  set32u b pos (if big_endian () then bswap32 x else x)

let get_i32 s pos =
  let x = get32u s pos in
  Int32.to_int (if big_endian () then bswap32 x else x)

(* A column's width: 4 when each of its [len] values from [pos] fits a
   signed 32-bit int, 8 otherwise. A value fits exactly when its bits
   from 31 up are copies of its sign, i.e. [v asr 31] is 0 or -1, the
   same as [v asr 62]; the loop folds the differences with [lor] and
   no branch. *)
let column_width a ~pos ~len =
  let acc = ref 0 in
  for i = pos to pos + len - 1 do
    let v = Array.unsafe_get a i in
    acc := !acc lor ((v asr 31) lxor (v asr 62))
  done;
  if !acc = 0 then 4 else 8

module W = struct
  (* A measuring writer has no storage and only advances [pos], so
     running an encoder through one sizes its payload in O(fields) —
     O(1) per bulk array — and the container can then allocate its
     final buffer once and run the encoder again straight into it. *)
  type t = { buf : Bytes.t; mutable pos : int; measuring : bool }

  let measure () = { buf = Bytes.empty; pos = 0; measuring = true }

  let into buf ~pos =
    if pos < 0 || pos > Bytes.length buf then invalid_arg "Codec.W.into";
    { buf; pos; measuring = false }

  let pos w = w.pos

  (* Slow path of [fits]: a measuring writer stores nothing; a write
     past a reserved buffer is a bug in the caller's sizing. *)
  let overrun w n =
    if w.measuring then false
    else
      invalid_arg
        (Printf.sprintf "Codec.W: %d-byte write at %d overruns the %d reserved"
           n w.pos (Bytes.length w.buf))

  let fits w n = w.pos + n <= Bytes.length w.buf || overrun w n

  let int w v =
    if fits w 8 then put_int w.buf w.pos v;
    w.pos <- w.pos + 8

  let i64 w x =
    if fits w 8 then
      set64u w.buf w.pos (if big_endian () then bswap64 x else x);
    w.pos <- w.pos + 8

  let bool w b = int w (if b then 1 else 0)
  let float w f = i64 w (Int64.bits_of_float f)

  let string w s =
    let n = String.length s in
    if fits w (8 + n) then begin
      put_int w.buf w.pos n;
      Bytes.blit_string s 0 w.buf (w.pos + 8) n
    end;
    w.pos <- w.pos + 8 + n

  let int_range w a ~pos ~len =
    if pos < 0 || len < 0 || pos > Array.length a - len then
      invalid_arg "Codec.W.int_range";
    let need = 8 * (len + 1) in
    if fits w need then begin
      let b = w.buf and p = w.pos + 8 in
      put_int b w.pos len;
      for i = 0 to len - 1 do
        put_int b (p + (8 * i)) (Array.unsafe_get a (pos + i))
      done
    end;
    w.pos <- w.pos + need

  let int_array w a = int_range w a ~pos:0 ~len:(Array.length a)

  (* [int_range]'s bytes from a Bigarray of ints: the heap's memory. *)
  let word_range w
      (a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) ~pos
      ~len =
    if pos < 0 || len < 0 || pos > Bigarray.Array1.dim a - len then
      invalid_arg "Codec.W.word_range";
    let need = 8 * (len + 1) in
    if fits w need then begin
      let b = w.buf and p = w.pos + 8 in
      put_int b w.pos len;
      for i = 0 to len - 1 do
        put_int b (p + (8 * i)) (Bigarray.Array1.unsafe_get a (pos + i))
      done
    end;
    w.pos <- w.pos + need

  let bool_array w a =
    let n = Array.length a in
    let need = 8 * (n + 1) in
    if fits w need then begin
      let b = w.buf and p = w.pos + 8 in
      put_int b w.pos n;
      for i = 0 to n - 1 do
        put_int b (p + (8 * i)) (if Array.unsafe_get a i then 1 else 0)
      done
    end;
    w.pos <- w.pos + need

  (* Measuring a column scans it for its width, so both passes agree. *)
  let column w ?(pos = 0) a ~len =
    if pos < 0 || len < 0 || pos > Array.length a - len then
      invalid_arg "Codec.W.column";
    let width = column_width a ~pos ~len in
    let need = 8 + (width * len) in
    if fits w need then begin
      let b = w.buf and p = w.pos + 8 in
      put_int b w.pos width;
      if width = 4 then
        for i = 0 to len - 1 do
          put_i32 b (p + (4 * i)) (Array.unsafe_get a (pos + i))
        done
      else
        for i = 0 to len - 1 do
          put_int b (p + (8 * i)) (Array.unsafe_get a (pos + i))
        done
    end;
    w.pos <- w.pos + need
end

module R = struct
  (* A cursor over [data.[pos .. limit)], so a container can hand out
     readers over its sections without copying them. *)
  type t = { data : string; mutable pos : int; limit : int }

  let of_substring data ~pos ~len =
    if pos < 0 || len < 0 || pos > String.length data - len then
      invalid_arg "Codec.R.of_substring";
    { data; pos; limit = pos + len }

  let remaining r = r.limit - r.pos
  let eof r = remaining r = 0

  let need r n =
    if remaining r < n then fail "codec: truncated read at byte %d" r.pos

  let int r =
    need r 8;
    let v = get_int r.data r.pos in
    r.pos <- r.pos + 8;
    v

  let i64 r =
    need r 8;
    let x = get64u r.data r.pos in
    r.pos <- r.pos + 8;
    if big_endian () then bswap64 x else x

  let bool r =
    match int r with
    | 0 -> false
    | 1 -> true
    | v -> fail "codec: invalid bool %d at byte %d" v r.pos

  let float r = Int64.float_of_bits (i64 r)

  let blob r =
    let n = int r in
    if n < 0 || n > remaining r then
      fail "codec: invalid string length %d at byte %d" n r.pos;
    let p = r.pos in
    r.pos <- p + n;
    (p, n)

  let string r =
    let p, n = blob r in
    String.sub r.data p n

  let int_array r =
    let n = int r in
    if n < 0 || n > remaining r / 8 then
      fail "codec: invalid array length %d at byte %d" n r.pos;
    let p = r.pos in
    r.pos <- p + (8 * n);
    Array.init n (fun i -> get_int r.data (p + (8 * i)))

  (* Restore into an existing array of known size — the common case for
     machine state, where the destination was sized by the config and a
     length mismatch means the snapshot belongs to a different machine.
     Returns the offset of the (bounds-checked) array body. *)
  let body_into r dst ~what =
    let n = int r in
    if n <> Array.length dst then
      fail "codec: %s length %d does not match machine (%d)" what n
        (Array.length dst);
    need r (8 * n);
    let p = r.pos in
    r.pos <- p + (8 * n);
    p

  let int_array_into r dst ~what =
    let p = body_into r dst ~what in
    for i = 0 to Array.length dst - 1 do
      Array.unsafe_set dst i (get_int r.data (p + (8 * i)))
    done

  let bool_array_into r dst ~what =
    let p = body_into r dst ~what in
    for i = 0 to Array.length dst - 1 do
      match get_int r.data (p + (8 * i)) with
      | 0 -> dst.(i) <- false
      | 1 -> dst.(i) <- true
      | v -> fail "codec: invalid bool %d at byte %d" v (p + (8 * i) + 8)
    done

  let int_range_into r dst ~pos ~max ~what =
    if pos < 0 || max < 0 || pos > Array.length dst - max then
      invalid_arg "Codec.R.int_range_into";
    let n = int r in
    if n < 0 || n > max then
      fail "codec: %s %d at byte %d outside [0, %d]" what n r.pos max;
    need r (8 * n);
    let p = r.pos in
    r.pos <- p + (8 * n);
    for i = 0 to n - 1 do
      Array.unsafe_set dst (pos + i) (get_int r.data (p + (8 * i)))
    done;
    n

  let word_range_into r
      (dst : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t)
      ~pos ~max ~what =
    if pos < 0 || max < 0 || pos > Bigarray.Array1.dim dst - max then
      invalid_arg "Codec.R.word_range_into";
    let n = int r in
    if n < 0 || n > max then
      fail "codec: %s %d at byte %d outside [0, %d]" what n r.pos max;
    need r (8 * n);
    let p = r.pos in
    r.pos <- p + (8 * n);
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst (pos + i) (get_int r.data (p + (8 * i)))
    done;
    n

  let column_into r ?(pos = 0) dst ~len =
    if pos < 0 || len < 0 || pos > Array.length dst - len then
      invalid_arg "Codec.R.column_into";
    let width = int r in
    if width <> 4 && width <> 8 then
      fail "codec: invalid column width %d at byte %d" width r.pos;
    need r (width * len);
    let p = r.pos in
    r.pos <- p + (width * len);
    if width = 4 then
      for i = 0 to len - 1 do
        Array.unsafe_set dst (pos + i) (get_i32 r.data (p + (4 * i)))
      done
    else
      for i = 0 to len - 1 do
        Array.unsafe_set dst (pos + i) (get_int r.data (p + (8 * i)))
      done
end
