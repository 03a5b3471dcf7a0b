(* Versioned, sectioned, CRC-guarded snapshot container.

   Layout (all integers 64-bit little-endian via Hsgc_util.Codec):

     magic            "HSGC-CKPT\n" (10 raw bytes)
     version          int
     fingerprint      string        (config/build identity, writer-chosen)
     section count    int
     per section:     name string, crc32 int, payload string

   Every section carries its own CRC-32 (IEEE), so a single flipped bit
   anywhere in a payload is detected and attributed to its section; the
   header fields are covered by structural validation (bad magic,
   version, lengths). Files are written atomically: payload to a
   temporary file in the destination directory, fsync, rename — a crash
   mid-write can leave a stale temp file but never a torn snapshot.

   Format version 2 sizes the two bulk sections by content: the heap
   stores each semispace up to its last nonzero word (Hsgc_heap.Heap)
   and the tracer ring its event columns at 4 bytes a value where they
   fit (Hsgc_obs.Tracer). Nothing reads version 1: a snapshot from
   another build is refused by its fingerprint anyway.

   A long run's snapshot is still megabytes (heap prefixes plus tracer
   ring), so each payload byte is stored once and read in place:
   [encode] sizes every section with a measuring pass of its encoder,
   allocates the file image at its exact size and has the encoders
   write straight into it; [of_string] keeps the image and hands out
   readers over its sections. *)

module Codec = Hsgc_util.Codec

let magic = "HSGC-CKPT\n"
let version = 2

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- CRC-32 (IEEE 802.3, reflected), slicing-by-8 ------------------- *)

(* Row k of [crc_tables] maps a byte to the CRC register after that
   byte and then k zero bytes, so one iteration folds eight input bytes
   with eight independent lookups instead of a chain of eight dependent
   ones. Row 0 is the classic byte-at-a-time table. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

(* Unchecked little-endian 32-bit load, as a non-negative int. *)
let le32 s i =
  let x = get32u s i in
  Int32.to_int (if big_endian () then bswap32 x else x) land 0xFFFFFFFF

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Checkpoint.crc32_sub";
  let t = crc_tables in
  let c = ref 0xFFFFFFFF and i = ref pos in
  while !i + 8 <= pos + len do
    let lo = !c lxor le32 s !i and hi = le32 s (!i + 4) in
    c :=
      Array.unsafe_get t (0x700 + (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

(* --- writing -------------------------------------------------------- *)

type image = string

let encode ~fingerprint sections =
  let rec unique = function
    | [] -> ()
    | (name, _) :: rest ->
      if List.mem_assoc name rest then
        invalid_arg
          (Printf.sprintf "Checkpoint.encode: duplicate section %S" name);
      unique rest
  in
  unique sections;
  let sized =
    List.map
      (fun (name, encoder) ->
        let m = Codec.W.measure () in
        encoder m;
        (name, encoder, Codec.W.pos m))
      sections
  in
  let framed s = 8 + String.length s in
  let size =
    List.fold_left
      (fun acc (name, _, len) -> acc + framed name + 16 + len)
      (String.length magic + 8 + framed fingerprint + 8)
      sized
  in
  let buf = Bytes.create size in
  Bytes.blit_string magic 0 buf 0 (String.length magic);
  let w = Codec.W.into buf ~pos:(String.length magic) in
  Codec.W.int w version;
  Codec.W.string w fingerprint;
  Codec.W.int w (List.length sized);
  List.iter
    (fun (name, encoder, len) ->
      Codec.W.string w name;
      let crc_at = Codec.W.pos w in
      Codec.W.int w 0;
      Codec.W.int w len;
      let start = Codec.W.pos w in
      encoder w;
      let wrote = Codec.W.pos w - start in
      if wrote <> len then
        invalid_arg
          (Printf.sprintf
             "Checkpoint.encode: section %S wrote %d bytes, measured %d" name
             wrote len);
      (* The CRC only reads the payload just written; [buf] is not
         mutated while the string view is in use. *)
      let crc = crc32_sub (Bytes.unsafe_to_string buf) ~pos:start ~len in
      Codec.W.int (Codec.W.into buf ~pos:crc_at) crc)
    sized;
  Bytes.unsafe_to_string buf

let to_string image = image

(* A failed write, fsync or rename (a full disk, a directory at [path])
   removes the temp file before re-raising, so failures leave nothing
   behind. *)
let write image ~path =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".ckpt-" ".tmp" in
  try
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let n = String.length image in
        let written = Unix.write_substring fd image 0 n in
        if written <> n then failwith "Checkpoint.write: short write";
        Unix.fsync fd);
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

(* --- reading -------------------------------------------------------- *)

type snapshot = {
  image : string;
  s_fingerprint : string;
  s_sections : (string * int * int) list;
      (* name, payload offset in [image], length — in file order,
         CRC-verified *)
}

let fingerprint s = s.s_fingerprint

let reader s name =
  match List.find_opt (fun (n, _, _) -> n = name) s.s_sections with
  | Some (_, pos, len) -> Codec.R.of_substring s.image ~pos ~len
  | None -> corrupt "missing section %S" name

let of_string data =
  let mlen = String.length magic in
  if String.length data < mlen || String.sub data 0 mlen <> magic then
    corrupt "bad magic: not a checkpoint file";
  let r =
    Codec.R.of_substring data ~pos:mlen ~len:(String.length data - mlen)
  in
  let parse () =
    let v = Codec.R.int r in
    if v <> version then corrupt "snapshot version %d, expected %d" v version;
    let fp = Codec.R.string r in
    let n = Codec.R.int r in
    if n < 0 || n > 4096 then corrupt "implausible section count %d" n;
    let sections =
      List.init n (fun _ ->
          let name = Codec.R.string r in
          let crc = Codec.R.int r in
          let pos, len = Codec.R.blob r in
          let actual = crc32_sub data ~pos ~len in
          if actual <> crc then
            corrupt "section %S CRC mismatch (stored %08x, computed %08x)"
              name crc actual;
          (name, pos, len))
    in
    if not (Codec.R.eof r) then
      corrupt "trailing garbage after last section";
    { image = data; s_fingerprint = fp; s_sections = sections }
  in
  match parse () with
  | s -> s
  | exception Codec.Error msg -> corrupt "malformed container: %s" msg

let load path =
  let data =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> corrupt "cannot read %s: %s" path msg
  in
  of_string data

let section_ranges s = s.s_sections
let payload_ranges path = section_ranges (load path)
