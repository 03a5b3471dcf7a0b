(* Flat binary codec for checkpoint payloads.

   Fixed-width little-endian integers, length-prefixed strings and
   arrays — no varints, no compression. The format favors auditability
   over size: every field of the machine state maps to a fixed byte
   range, so a section's byte image is a deterministic function of the
   machine and byte-level comparisons between snapshots are meaningful.
   Integrity is the container's job (per-section CRCs in
   [Hsgc_checkpoint.Checkpoint]); the reader here only bounds-checks,
   and every malformed read raises [Error].

   Snapshots run to tens of megabytes, so both directions check bounds
   once per field — once per array for the bulk codecs — and then move
   8-byte words with the compiler's unboxed, unchecked load/store
   primitives: no per-field allocation, no per-element bounds test. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

(* Unchecked: callers have bounds-checked [pos .. pos + 8). *)
let put_int b pos v =
  let x = Int64.of_int v in
  set64u b pos (if big_endian () then bswap64 x else x)

let get_int s pos =
  let x = get64u s pos in
  Int64.to_int (if big_endian () then bswap64 x else x)

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

  let int_array w a =
    let n = Array.length a in
    let need = 8 * (n + 1) in
    if fits w need then begin
      let b = w.buf and p = w.pos + 8 in
      put_int b w.pos n;
      for i = 0 to n - 1 do
        put_int b (p + (8 * i)) (Array.unsafe_get a i)
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

  let interleaved w cols ~len =
    let k = Array.length cols in
    if len < 0 || Array.exists (fun c -> Array.length c < len) cols then
      invalid_arg "Codec.W.interleaved";
    let need = 8 * k * len in
    if fits w need then begin
      let b = w.buf and p = ref w.pos in
      for i = 0 to len - 1 do
        for j = 0 to k - 1 do
          put_int b !p (Array.unsafe_get (Array.unsafe_get cols j) i);
          p := !p + 8
        done
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

  let interleaved_into r cols ~len =
    let k = Array.length cols in
    if len < 0 || Array.exists (fun c -> Array.length c < len) cols then
      invalid_arg "Codec.R.interleaved_into";
    need r (8 * k * len);
    let p = ref r.pos in
    r.pos <- !p + (8 * k * len);
    for i = 0 to len - 1 do
      for j = 0 to k - 1 do
        Array.unsafe_set (Array.unsafe_get cols j) i (get_int r.data !p);
        p := !p + 8
      done
    done
end
