(* Checkpoint/restore (Hsgc_checkpoint + Coprocessor.Snapshot + the
   Hsgc_core.Resume driver): container integrity under mutation, the
   codec and CRC against byte-level references, byte-identical snapshot
   images, exact snapshot round-trips mid-collection, and the
   load-bearing property —
   resume equivalence. A run killed at any cycle and resumed from its
   latest snapshot must end in the same final state (verify result,
   total cycles, per-core counters, trace digest) as a run that was
   never interrupted, for every default workload across the core grid,
   with or without fault injection. *)

module Coprocessor = Hsgc_coproc.Coprocessor
module Workloads = Hsgc_objgraph.Workloads
module Verify = Hsgc_heap.Verify
module Tracer = Hsgc_obs.Tracer
module Profiler = Hsgc_obs.Profiler
module Injector = Hsgc_fault.Injector
module Codec = Hsgc_util.Codec
module Heap = Hsgc_heap.Heap
module Semispace = Hsgc_heap.Semispace
module Checkpoint = Hsgc_checkpoint.Checkpoint
module Resume = Hsgc_core.Resume
module Interrupt = Hsgc_core.Chaos.Interrupt
module Memsys = Hsgc_memsim.Memsys

let tmpdir () = Filename.temp_dir "hsgc-test-ckpt" ""

let rm_rf dir =
  (match Sys.readdir dir with
  | entries ->
    Array.iter
      (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
      entries
  | exception Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let with_tmpdir f =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Container: CRCs, mutation, fingerprint                              *)
(* ------------------------------------------------------------------ *)

(* A checkpoint taken mid-collection, so every section carries real
   machine state (not just initial zeros). *)
let write_midrun_checkpoint ~dir =
  let w = Workloads.db in
  let heap = Workloads.build_heap ~scale:0.05 ~seed:42 w in
  let cfg = Coprocessor.config ~n_cores:8 () in
  let sim = Coprocessor.start cfg heap in
  for _ = 1 to 400 do
    if not (Coprocessor.halted sim) then Coprocessor.step sim
  done;
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale = 0.05;
      seed = 42;
      partitions = 1;
      obs_on = false;
      obs_capacity = 0;
      obs_interval = 0;
      prof_on = false;
    }
  in
  let path = Filename.concat dir "mid.ckpt" in
  Resume.save sim meta ~path;
  path

(* Satellite: snapshot-integrity mutation. Flip one byte in every
   section payload; every flip must be refused, and the refusal must
   name the mutated section. *)
let test_mutation_every_section_caught () =
  with_tmpdir @@ fun dir ->
  let path = write_midrun_checkpoint ~dir in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let ranges = Checkpoint.payload_ranges path in
  if List.length ranges < 12 then
    Alcotest.failf "expected >= 12 sections, found %d (%s)"
      (List.length ranges)
      (String.concat ", " (List.map (fun (n, _, _) -> n) ranges));
  List.iter
    (fun (name, off, len) ->
      if len = 0 then Alcotest.failf "section %S has an empty payload" name;
      (* Flip the first, middle and last byte of the payload — CRC-32
         catches any single-byte change wherever it lands. *)
      List.iter
        (fun i ->
          let b = Bytes.of_string raw in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
          match Checkpoint.of_string (Bytes.to_string b) with
          | _ ->
            Alcotest.failf "flip at byte %d of section %S went undetected" i
              name
          | exception Checkpoint.Corrupt _ -> ())
        [ off; off + (len / 2); off + len - 1 ])
    ranges;
  (* Structural damage is refused too: bad magic, truncation. *)
  (match Checkpoint.of_string ("XXXX" ^ raw) with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception Checkpoint.Corrupt _ -> ());
  match Checkpoint.of_string (String.sub raw 0 (String.length raw - 7)) with
  | _ -> Alcotest.fail "truncated snapshot accepted"
  | exception Checkpoint.Corrupt _ -> ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_mutation_names_section () =
  with_tmpdir @@ fun dir ->
  let path = write_midrun_checkpoint ~dir in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun (name, off, len) ->
      let i = off + (len / 2) in
      let b = Bytes.of_string raw in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      match Checkpoint.of_string (Bytes.to_string b) with
      | _ -> Alcotest.failf "flip in %S undetected" name
      | exception Checkpoint.Corrupt msg ->
        let quoted = Printf.sprintf "%S" name in
        if not (contains msg quoted) then
          Alcotest.failf "corrupt %S reported as %S — does not name the section"
            name msg)
    (Checkpoint.payload_ranges path)

let test_fingerprint_mismatch_refused () =
  with_tmpdir @@ fun dir ->
  let w = Workloads.compress in
  let heap = Workloads.build_heap ~scale:0.05 ~seed:1 w in
  let sim = Coprocessor.start (Coprocessor.config ~n_cores:4 ()) heap in
  for _ = 1 to 100 do
    Coprocessor.step sim
  done;
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale = 0.05;
      seed = 1;
      partitions = 1;
      obs_on = false;
      obs_capacity = 0;
      obs_interval = 0;
      prof_on = false;
    }
  in
  let path = Filename.concat dir "other-build.ckpt" in
  Resume.save ~fingerprint:"deadbeef-other-build" sim meta ~path;
  (match Resume.resume ~path () with
  | _ -> Alcotest.fail "snapshot from a different build accepted"
  | exception Checkpoint.Corrupt _ -> ());
  (* The explicit-override escape hatch still works. *)
  match Resume.resume ~fingerprint:"deadbeef-other-build" ~path () with
  | (_ : Resume.resumed) -> ()
  | exception Checkpoint.Corrupt msg ->
    Alcotest.failf "override fingerprint refused: %s" msg

let test_sanitizer_incompatible () =
  let heap = Workloads.build_heap ~scale:0.05 ~seed:1 Workloads.compress in
  let cfg =
    Coprocessor.config ~sanitize:Hsgc_sanitizer.Sanitizer.Check ~n_cores:4 ()
  in
  let sim = Coprocessor.start cfg heap in
  match Coprocessor.Snapshot.save sim ~fingerprint:"x" with
  | _ -> Alcotest.fail "snapshot of a sanitized machine accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Codec and CRC against byte-level references; byte-identical images  *)
(* ------------------------------------------------------------------ *)

(* The byte-at-a-time CRC-32 the container computed before
   slicing-by-8: the sliced loop must agree with it on every slice. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_reference s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := crc_table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let test_crc_values () =
  List.iter
    (fun (s, crc) ->
      Alcotest.(check int) (Printf.sprintf "crc32 %S" s) crc (Checkpoint.crc32 s))
    [
      ("", 0);
      ("a", 0xE8B7BE43);
      ("123456789", 0xCBF43926);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339);
    ];
  (* Long slices at every alignment, ending at every tail length. *)
  let big =
    String.init 100_003 (fun i ->
        Char.chr (((i * 7919) lxor (i lsr 5)) land 0xFF))
  in
  for pos = 0 to 8 do
    let len = String.length big - (4 * pos) in
    Alcotest.(check int)
      (Printf.sprintf "slice at %d" pos)
      (crc32_reference (String.sub big pos len))
      (Checkpoint.crc32_sub big ~pos ~len)
  done

let qcheck_crc_slices =
  QCheck.Test.make
    ~name:"slicing-by-8 CRC-32 equals the byte-at-a-time reference on any slice"
    ~count:1000
    (QCheck.make
       ~print:(fun (s, pos, len) -> Printf.sprintf "%S pos=%d len=%d" s pos len)
       QCheck.Gen.(
         let* s = string_size (int_range 0 100) in
         let n = String.length s in
         let* pos = int_range 0 n in
         let* len = int_range 0 (n - pos) in
         return (s, pos, len)))
    (fun (s, pos, len) ->
      Checkpoint.crc32_sub s ~pos ~len = crc32_reference (String.sub s pos len))

type op =
  | Int of int
  | Bool of bool
  | Float of float
  | Str of string
  | Ints of int array
  | Bools of bool array
  | Range of int array * int * int  (** array, first index, length *)
  | Column of int array * int  (** values, kept length *)

let fits_i32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF

(* A column's width: 4 exactly when each kept value fits 32 bits. *)
let column_width a len =
  if Array.for_all fits_i32 (Array.sub a 0 len) then 4 else 8

(* The bytes each op must produce, built with Buffer: the reserved
   writer must reproduce them exactly. *)
let reference_bytes ops =
  let b = Buffer.create 64 in
  let int v = Buffer.add_int64_le b (Int64.of_int v) in
  let bool x = int (if x then 1 else 0) in
  List.iter
    (function
      | Int v -> int v
      | Bool x -> bool x
      | Float f -> Buffer.add_int64_le b (Int64.bits_of_float f)
      | Str s ->
        int (String.length s);
        Buffer.add_string b s
      | Ints a ->
        int (Array.length a);
        Array.iter int a
      | Bools a ->
        int (Array.length a);
        Array.iter bool a
      | Range (a, pos, len) ->
        int len;
        Array.iter int (Array.sub a pos len)
      | Column (a, len) ->
        let width = column_width a len in
        int width;
        Array.iter
          (fun v ->
            if width = 4 then Buffer.add_int32_le b (Int32.of_int v) else int v)
          (Array.sub a 0 len))
    ops;
  Buffer.contents b

let write_ops w =
  List.iter (function
    | Int v -> Codec.W.int w v
    | Bool x -> Codec.W.bool w x
    | Float f -> Codec.W.float w f
    | Str s -> Codec.W.string w s
    | Ints a -> Codec.W.int_array w a
    | Bools a -> Codec.W.bool_array w a
    | Range (a, pos, len) -> Codec.W.int_range w a ~pos ~len
    | Column (a, len) -> Codec.W.column w a ~len)

(* Marks the destination words a range read must leave alone. *)
let untouched = 0x5EED

let read_op r = function
  | Int _ -> Int (Codec.R.int r)
  | Bool _ -> Bool (Codec.R.bool r)
  | Float _ -> Float (Codec.R.float r)
  | Str _ -> Str (Codec.R.string r)
  | Ints _ -> Ints (Codec.R.int_array r)
  | Bools a ->
    let d = Array.make (Array.length a) false in
    Codec.R.bool_array_into r d ~what:"bools";
    Bools d
  | Range (a, pos, _) ->
    let d = Array.make (Array.length a) untouched in
    let n =
      Codec.R.int_range_into r d ~pos ~max:(Array.length a - pos) ~what:"range"
    in
    Range (d, pos, n)
  | Column (a, len) ->
    let d = Array.make (Array.length a) 0 in
    Codec.R.column_into r d ~len;
    Column (d, len)

let same_op a b =
  match (a, b) with
  | Float x, Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Range (a, pos, len), Range (d, pos', n) ->
    pos = pos' && len = n
    && Array.sub a pos len = Array.sub d pos n
    && Array.for_all (( = ) untouched) (Array.sub d 0 pos)
    && Array.for_all (( = ) untouched)
         (Array.sub d (pos + n) (Array.length d - pos - n))
  | Column (a, len), Column (d, n) -> len = n && Array.sub a 0 len = Array.sub d 0 n
  | _ -> a = b

(* Values at and around the edges of a 4-byte column. *)
let edge_values =
  [
    -0x8000_0000; -0x8000_0001; -0x7FFF_FFFF; 0x7FFF_FFFF; 0x7FFF_FFFE;
    0x8000_0000; min_int; max_int; 0; -1; 1;
  ]

(* Column values: mostly 32-bit (edges included), so both widths come
   up often. *)
let gen_column_value =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-0x8000_0000) 0x7FFF_FFFF);
        (3, oneofl edge_values);
        (1, int);
      ])

let gen_column =
  QCheck.Gen.(
    let* n = int_range 0 16 in
    let* narrow = bool in
    let* values =
      array_repeat n
        (if narrow then
           oneof
             [ int_range (-0x8000_0000) 0x7FFF_FFFF;
               oneofl (List.filter fits_i32 edge_values) ]
         else gen_column_value)
    in
    let* len = int_range 0 n in
    return (values, len))

let gen_ops =
  QCheck.Gen.(
    let op =
      frequency
        [
          (3, map (fun v -> Int v) int);
          (1, map (fun b -> Bool b) bool);
          (1, map (fun f -> Float f) float);
          (1, map (fun s -> Str s) (string_size (int_range 0 20)));
          ( 2,
            map (fun l -> Ints (Array.of_list l)) (list_size (int_range 0 20) int)
          );
          ( 1,
            map
              (fun l -> Bools (Array.of_list l))
              (list_size (int_range 0 10) bool) );
          ( 1,
            let* a = array_size (int_range 0 20) int in
            let n = Array.length a in
            let* pos = int_range 0 n in
            let* len = int_range 0 (n - pos) in
            return (Range (a, pos, len)) );
          (1, map (fun (a, len) -> Column (a, len)) gen_column);
        ]
    in
    list_size (int_range 0 12) op)

let qcheck_codec_reference_bytes =
  QCheck.Test.make
    ~name:
      "codec: measured size, reserved writes and in-place reads agree with \
       the Buffer-based reference bytes"
    ~count:500 (QCheck.make gen_ops)
    (fun ops ->
      let m = Codec.W.measure () in
      write_ops m ops;
      let n = Codec.W.pos m in
      (* Write at an unaligned offset into exactly the reserved bytes. *)
      let buf = Bytes.make (n + 3) '#' in
      let w = Codec.W.into buf ~pos:3 in
      write_ops w ops;
      let r = Codec.R.of_substring (Bytes.to_string buf) ~pos:3 ~len:n in
      let back = List.map (read_op r) ops in
      Codec.W.pos w = n + 3
      && Bytes.sub_string buf 0 3 = "###"
      && Bytes.sub_string buf 3 n = reference_bytes ops
      && Codec.R.eof r
      && List.for_all2 same_op ops back)

let test_reserved_sizes_enforced () =
  let w = Codec.W.into (Bytes.create 12) ~pos:0 in
  Codec.W.int w 1;
  (match Codec.W.int w 2 with
  | () -> Alcotest.fail "write past the reserved bytes accepted"
  | exception Invalid_argument _ -> ());
  let noop _ = () in
  (match Checkpoint.encode ~fingerprint:"f" [ ("a", noop); ("a", noop) ] with
  | _ -> Alcotest.fail "duplicate section accepted"
  | exception Invalid_argument _ -> ());
  (* An encoder whose measuring and filling runs disagree would leave
     the image inconsistent. *)
  let calls = ref 0 in
  let drifting w =
    incr calls;
    if !calls = 1 then Codec.W.int w 7
  in
  match Checkpoint.encode ~fingerprint:"f" [ ("s", drifting) ] with
  | _ -> Alcotest.fail "size drift between the two encoder runs accepted"
  | exception Invalid_argument _ -> ()

let run_steps sim n =
  for _ = 1 to n do
    if not (Coprocessor.halted sim) then Coprocessor.step sim
  done

let golden_meta ~workload ~seed ~obs_capacity ~prof_on =
  {
    Resume.workload;
    scale = 0.05;
    seed;
    partitions = 1;
    obs_on = obs_capacity > 0;
    obs_capacity;
    obs_interval = (if obs_capacity > 0 then 64 else 0);
    prof_on;
  }

let plain_machine () =
  let heap = Workloads.build_heap ~scale:0.05 ~seed:42 Workloads.db in
  let sim = Coprocessor.start (Coprocessor.config ~n_cores:8 ()) heap in
  run_steps sim 400;
  (sim, golden_meta ~workload:"db" ~seed:42 ~obs_capacity:0 ~prof_on:false)

(* Every optional section live: delay faults, sub-object scan units,
   the profiler, and a tracer whose ring has overflowed. *)
let observed_machine ?(steps = 3000) () =
  let heap = Workloads.build_heap ~scale:0.05 ~seed:7 Workloads.javac in
  let faults = Injector.delay_class ~seed:5 ~intensity:0.3 () in
  let cfg = Coprocessor.config ~faults ~scan_unit:8 ~n_cores:16 () in
  let obs = Tracer.create ~capacity:4096 ~interval:64 ~n_cores:16 () in
  Tracer.enable obs;
  let prof = Profiler.create ~n_cores:16 () in
  Profiler.enable prof;
  let sim = Coprocessor.start ~obs ~prof cfg heap in
  run_steps sim steps;
  (sim, golden_meta ~workload:"javac" ~seed:7 ~obs_capacity:4096 ~prof_on:true)

(* Size and MD5 of each image in format version 4 (heap semispaces up
   to their last nonzero word, width-fitted ring columns, the header
   FIFO's live entries, the parent link in "meta"), and of a delta
   image: the observed machine saved, stepped 500 more steps and saved
   again. The pins guard the stability of that format: any change to
   what a section stores, or how, moves them and must be deliberate. *)
let golden_save ~dir name (sim, meta) =
  let path = Filename.concat dir (name ^ ".ckpt") in
  Resume.save ~fingerprint:"golden" sim meta ~path;
  path

let golden_images =
  [
    ( "plain",
      (fun dir -> golden_save ~dir "plain" (plain_machine ())),
      141700,
      "12109073e40392ebe6fed83f1885049d" );
    ( "observed",
      (fun dir -> golden_save ~dir "observed" (observed_machine ())),
      382574,
      "8d825502aeffcd1805c1aadad11ff8e6" );
    ( "observed delta",
      (fun dir ->
        let sim, meta = observed_machine () in
        ignore (golden_save ~dir "observed" (sim, meta));
        run_steps sim 500;
        golden_save ~dir "observed-delta" (sim, meta)),
      192487,
      "4dcb662456783419d37d425609e01f65" );
  ]

let test_golden_images () =
  List.iter
    (fun (name, write, size, digest) ->
      with_tmpdir @@ fun dir ->
      let path = write dir in
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int) (name ^ " image size") size (String.length raw);
      Alcotest.(check string)
        (name ^ " image digest") digest
        (Digest.to_hex (Digest.string raw));
      Alcotest.(check int) (name ^ " file mode") 0o644
        (Unix.stat path).Unix.st_perm)
    golden_images

(* A failed write must not leave its temp file in the checkpoint
   directory: here the rename fails because [path] is a directory. *)
let test_write_failure_leaves_no_temp () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "snap.ckpt" in
  Sys.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> Sys.rmdir path) @@ fun () ->
  let image =
    Checkpoint.encode ~fingerprint:"f" [ ("s", fun w -> Codec.W.int w 1) ]
  in
  (match Checkpoint.write image ~path with
  | () -> Alcotest.fail "write onto a directory succeeded"
  | exception Sys_error _ -> ());
  match
    List.filter
      (String.starts_with ~prefix:".ckpt-")
      (Array.to_list (Sys.readdir dir))
  with
  | [] -> ()
  | left -> Alcotest.failf "temp files left behind: %s" (String.concat ", " left)

(* ------------------------------------------------------------------ *)
(* Format v2: heap extents, width-fitted ring columns                  *)
(* ------------------------------------------------------------------ *)

let encode_bytes encoder =
  let m = Codec.W.measure () in
  encoder m;
  let buf = Bytes.create (Codec.W.pos m) in
  encoder (Codec.W.into buf ~pos:0);
  Bytes.to_string buf

let reader_of s = Codec.R.of_substring s ~pos:0 ~len:(String.length s)

(* Words of a space up to its last nonzero one. *)
let reference_extent words =
  let n = ref (Array.length words) in
  while !n > 0 && words.(!n - 1) = 0 do
    decr n
  done;
  !n

type heap_case = {
  words : int;  (** per semispace *)
  null_word : int;
  contents_a : int array;
  contents_b : int array;
  used_a : int;  (** [free - base] *)
  used_b : int;
  a_current : bool;
  roots : int array;
}

(* A space's contents: all zero, a prefix with interior zeros, or
   nonzero up to its last word. [free] is drawn independently, so words
   above it — stale in the idle space — are common. *)
let gen_space words =
  QCheck.Gen.(
    let value = frequency [ (1, return 0); (3, int) ] in
    frequency
      [
        (1, return (Array.make words 0));
        ( 3,
          let* p = int_range 0 words in
          let* prefix = array_repeat p value in
          return (Array.append prefix (Array.make (words - p) 0)) );
        ( 1,
          let* a = array_repeat (words - 1) value in
          let* last = map (fun v -> if v = 0 then 1 else v) int in
          return (Array.append a [| last |]) );
      ])

let gen_heap_case =
  QCheck.Gen.(
    let* words =
      frequency
        [
          (1, return 1);
          (4, int_range 1 16);
          (3, int_range 17 512);
          (1, int_range 513 4096);
          (1, return 4096);
        ]
    in
    let* null_word = frequency [ (4, return 0); (1, int) ] in
    let* contents_a = gen_space words in
    let* contents_b = gen_space words in
    let* used_a = int_range 0 words in
    let* used_b = int_range 0 words in
    let* a_current = bool in
    let* roots = array_size (int_range 0 8) (int_range 0 (2 * words)) in
    return
      { words; null_word; contents_a; contents_b; used_a; used_b; a_current;
        roots })

let print_heap_case c =
  Printf.sprintf "words=%d extents=%d/%d used=%d/%d a_current=%b roots=%d null=%d"
    c.words
    (reference_extent c.contents_a)
    (reference_extent c.contents_b)
    c.used_a c.used_b c.a_current (Array.length c.roots) c.null_word

let build_case_heap c =
  let h = Heap.create ~semispace_words:c.words in
  let a = h.Heap.space_a and b = h.Heap.space_b in
  h.Heap.mem.(0) <- c.null_word;
  Array.blit c.contents_a 0 h.Heap.mem a.Semispace.base c.words;
  Array.blit c.contents_b 0 h.Heap.mem b.Semispace.base c.words;
  a.Semispace.free <- a.Semispace.base + c.used_a;
  b.Semispace.free <- b.Semispace.base + c.used_b;
  h.Heap.a_is_current <- c.a_current;
  Heap.set_roots h (Array.copy c.roots);
  h

let same_space (x : Semispace.t) (y : Semispace.t) =
  x.base = y.base && x.limit = y.limit && x.free = y.free

let qcheck_heap_image =
  QCheck.Test.make
    ~name:
      "heap image: random heaps restore word for word, 8 bytes per word of \
       the two extents"
    ~count:300
    (QCheck.make ~print:print_heap_case gen_heap_case)
    (fun c ->
      let h = build_case_heap c in
      let image = encode_bytes (Heap.encode h) in
      (* The null word, per space its bounds, free and extent, the
         orientation and the roots' length: 11 words. *)
      let size =
        8
        * (reference_extent c.contents_a
          + reference_extent c.contents_b
          + 11 + Array.length c.roots)
      in
      (* Onto a zeroed heap, and onto one whose every word is dirty: the
         zero tails must be written, not assumed. *)
      let restores_onto fill =
        let fresh = Heap.create ~semispace_words:c.words in
        Array.fill fresh.Heap.mem 0 (Array.length fresh.Heap.mem) fill;
        let r = reader_of image in
        Heap.restore fresh r;
        Codec.R.eof r
        && fresh.Heap.mem = h.Heap.mem
        && same_space fresh.Heap.space_a h.Heap.space_a
        && same_space fresh.Heap.space_b h.Heap.space_b
        && fresh.Heap.a_is_current = h.Heap.a_is_current
        && fresh.Heap.roots = h.Heap.roots
      in
      String.length image = size && restores_onto 0 && restores_onto (-1))

(* A heap delta against any earlier copy of the heap's words: random
   heaps, then random changed words — scattered, in runs, across the
   space boundaries and the null word. *)
let qcheck_heap_delta =
  QCheck.Test.make
    ~name:
      "heap delta: restored onto its base word for word, folded into the \
       base, and sizing the full image exactly"
    ~count:300
    (QCheck.make
       ~print:(fun (c, _) -> print_heap_case c)
       QCheck.Gen.(
         let* c = gen_heap_case in
         let n = 1 + (2 * c.words) in
         let change =
           let* at = int_range 0 (n - 1) in
           let* len = frequency [ (3, return 1); (1, int_range 1 8) ] in
           let* v = frequency [ (1, return 0); (3, int) ] in
           return (at, len, v)
         in
         let* changes = list_size (int_range 0 12) change in
         return (c, changes)))
    (fun (c, changes) ->
      let h = build_case_heap c in
      let base = Array.copy h.Heap.mem in
      let n = Array.length base in
      let words a =
        Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout a
      in
      List.iter
        (fun (at, len, v) ->
          for i = at to min (n - 1) (at + len - 1) do
            h.Heap.mem.(i) <- v + i
          done)
        changes;
      let d = Heap.delta h ~base:(words base) in
      let image = encode_bytes (Heap.encode_delta h d) in
      let onto = build_case_heap c in
      Array.blit base 0 onto.Heap.mem 0 n;
      let r = reader_of image in
      Heap.restore_delta onto r;
      let folded = words base in
      Heap.apply_delta h d ~base:folded;
      Codec.R.eof r
      && onto.Heap.mem = h.Heap.mem
      && folded = words h.Heap.mem
      && Heap.full_bytes h d = String.length (encode_bytes (Heap.encode h)))

let qcheck_ring_columns =
  QCheck.Test.make
    ~name:
      "ring columns: edge values round-trip, width 4 exactly when every \
       value fits 32 bits"
    ~count:500
    (QCheck.make
       ~print:(fun (a, len) ->
         Printf.sprintf "len=%d [%s]" len
           (String.concat "; " (Array.to_list (Array.map string_of_int a))))
       gen_column)
    (fun (a, len) ->
      let image = encode_bytes (fun w -> Codec.W.column w a ~len) in
      let width = Int64.to_int (String.get_int64_le image 0) in
      let d = Array.make (Array.length a) 0 in
      let r = reader_of image in
      Codec.R.column_into r d ~len;
      width = column_width a len
      && String.length image = 8 + (width * len)
      && Codec.R.eof r
      && Array.sub d 0 len = Array.sub a 0 len)

let test_column_edges () =
  List.iter
    (fun (values, width) ->
      let a = Array.of_list values in
      let len = Array.length a in
      let image = encode_bytes (fun w -> Codec.W.column w a ~len) in
      let d = Array.make len 0 in
      Codec.R.column_into (reader_of image) d ~len;
      let what = String.concat "; " (List.map string_of_int values) in
      Alcotest.(check int) ("width of " ^ what) width
        (Int64.to_int (String.get_int64_le image 0));
      Alcotest.(check (array int)) ("values of " ^ what) a d)
    [
      ([], 4);
      ([ -0x8000_0000; 0x7FFF_FFFF; 0; -1 ], 4);
      ([ 0x8000_0000 ], 8);
      ([ -0x8000_0001 ], 8);
      ([ 1; min_int ], 8);
      ([ max_int; 2 ], 8);
    ]

(* Malformed bulk payloads raise [Codec.Error] at the codec; through a
   real snapshot the container reports them as [Corrupt], naming the
   section. *)
let test_malformed_payloads () =
  let refused what bytes read =
    match read (reader_of bytes) with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Codec.Error _ -> ()
  in
  let words l = encode_bytes (fun w -> List.iter (Codec.W.int w) l) in
  let dst = Array.make 8 0 in
  let range ~pos ~max r =
    ignore (Codec.R.int_range_into r dst ~pos ~max ~what:"range")
  in
  refused "range past its max" (words [ 5; 1; 2; 3; 4; 5 ]) (range ~pos:4 ~max:4);
  refused "negative range" (words [ -1 ]) (range ~pos:0 ~max:8);
  refused "short range" (words [ 3; 1; 2 ]) (range ~pos:0 ~max:8);
  List.iter
    (fun width ->
      refused
        (Printf.sprintf "column width %d" width)
        (words [ width; 0; 0; 0 ])
        (fun r -> Codec.R.column_into r dst ~len:2))
    [ 0; 1; 2; 5; 16; -4 ];
  refused "short 4-byte column" (words [ 4; 0 ]) (fun r ->
      Codec.R.column_into r dst ~len:3);
  refused "short 8-byte column" (words [ 8; 1; 2 ]) (fun r ->
      Codec.R.column_into r dst ~len:3);
  (* Space A's extent follows the null word and A's bounds and free. *)
  let extent_a = 32 in
  let heap = Bytes.of_string (encode_bytes (Heap.encode (Heap.create ~semispace_words:16))) in
  Bytes.set_int64_le heap extent_a 17L;
  refused "heap extent past its semispace" (Bytes.to_string heap)
    (Heap.restore (Heap.create ~semispace_words:16));
  let sim, _ = observed_machine ~steps:500 () in
  let image =
    Checkpoint.to_string (Coprocessor.Snapshot.save sim ~fingerprint:"x")
  in
  (* Overwrite one payload word and re-seal the section's CRC, so only
     the payload decoder can object. *)
  let patched section ~at v =
    let b = Bytes.of_string image in
    let _, off, len =
      List.find
        (fun (n, _, _) -> n = section)
        (Checkpoint.section_ranges (Checkpoint.of_string image))
    in
    let v = v (fun i -> Int64.to_int (Bytes.get_int64_le b (off + i))) in
    Bytes.set_int64_le b (off + at) (Int64.of_int v);
    let crc = Checkpoint.crc32_sub (Bytes.unsafe_to_string b) ~pos:off ~len in
    Bytes.set_int64_le b (off - 16) (Int64.of_int crc);
    Checkpoint.of_string (Bytes.to_string b)
  in
  List.iter
    (fun (section, what, at, v) ->
      let fresh, _ = observed_machine ~steps:0 () in
      match Coprocessor.Snapshot.restore fresh (patched section ~at v) with
      | () -> Alcotest.failf "%s accepted" what
      | exception Checkpoint.Corrupt msg ->
        if not (contains msg (Printf.sprintf "%S" section)) then
          Alcotest.failf "%s reported as %S — does not name the section" what
            msg)
    [
      (* limit - base + 1 words *)
      ("heap", "heap extent past its semispace", extent_a,
        fun word -> word 16 - word 8 + 1);
      (* The first ring column's width follows the tracer's on flag,
         shape, cycle, length and dropped count. *)
      ("obs", "ring column of width 5", 56, fun _ -> 5);
      (* The FIFO's live-entry count leads its section. *)
      ("fifo", "FIFO length past its capacity", 0, fun _ -> 32769);
    ]

(* Both directions move words unboxed through buffers sized up front: a
   save allocates its image plus a few words per section, a restore only
   its readers — never a box per field. Both stay near 500 minor words
   at any machine size (measured at scales 0.05 and 0.5). A delta's
   restore onto its parent costs the same; a delta save about 1 100,
   the first doublings of its run table (past 256 words the table goes
   to the major heap). *)
let test_codec_allocation () =
  let minor_words f =
    let before = Gc.minor_words () in
    let x = f () in
    (x, Gc.minor_words () -. before)
  in
  let sim, _ = observed_machine () in
  let image, saved =
    minor_words (fun () -> Coprocessor.Snapshot.save sim ~fingerprint:"x")
  in
  let snap = Checkpoint.of_string (Checkpoint.to_string image) in
  let fresh, _ = observed_machine ~steps:0 () in
  let (), restored =
    minor_words (fun () -> Coprocessor.Snapshot.restore fresh snap)
  in
  (* A delta of the same machine 500 steps on, and its restore onto the
     machine just restored from the full image: a chain's next link. *)
  let parent = Coprocessor.Snapshot.parent sim in
  run_steps sim 500;
  let delta, delta_saved =
    minor_words (fun () ->
        Coprocessor.Snapshot.save ~parent sim ~fingerprint:"x")
  in
  let delta_snap = Checkpoint.of_string (Checkpoint.to_string delta) in
  let (), delta_restored =
    minor_words (fun () -> Coprocessor.Snapshot.restore fresh delta_snap)
  in
  let fields = String.length (Checkpoint.to_string image) / 8 in
  List.iter
    (fun (what, words) ->
      if words > 4096. then
        Alcotest.failf "%s of a %d-field snapshot allocated %.0f minor words"
          what fields words)
    [
      ("save", saved);
      ("restore", restored);
      ("delta save", delta_saved);
      ("chain restore", delta_restored);
    ]

(* ------------------------------------------------------------------ *)
(* Driver: boundary placement, latest, zero-cost off path              *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_boundaries_exact () =
  with_tmpdir @@ fun dir ->
  let w = Workloads.db in
  let every = 1000 in
  let heap = Workloads.build_heap ~scale:0.05 ~seed:42 w in
  let sim = Coprocessor.start (Coprocessor.config ~n_cores:8 ()) heap in
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale = 0.05;
      seed = 42;
      partitions = 1;
      obs_on = false;
      obs_capacity = 0;
      obs_interval = 0;
      prof_on = false;
    }
  in
  (match Resume.drive ~every ~dir ~meta sim with
  | Resume.Finished _ -> ()
  | Resume.Stopped _ -> Alcotest.fail "run stopped without a stop condition");
  let files = Sys.readdir dir in
  Array.sort compare files;
  if Array.length files = 0 then Alcotest.fail "no checkpoints written";
  Array.iter
    (fun f ->
      match Scanf.sscanf f "ckpt-%d.ckpt" (fun c -> c) with
      | c ->
        if c mod every <> 0 then
          Alcotest.failf "checkpoint %s is off the %d-cycle boundary" f every
      | exception Scanf.Scan_failure _ ->
        Alcotest.failf "unexpected file %s" f)
    files;
  (* latest picks the highest cycle. *)
  match Resume.latest ~dir with
  | None -> Alcotest.fail "latest found nothing"
  | Some p ->
    Alcotest.(check string)
      "latest is the last file"
      (Filename.concat dir files.(Array.length files - 1))
      p

let test_drive_off_matches_collect () =
  (* With checkpointing off, the driver must be the plain stepping loop:
     same stats as Coprocessor.collect on an identical heap. *)
  let w = Workloads.javacc in
  let build () = Workloads.build_heap ~scale:0.05 ~seed:4 w in
  let cfg = Coprocessor.config ~n_cores:8 () in
  let reference = Coprocessor.collect cfg (build ()) in
  let sim = Coprocessor.start cfg (build ()) in
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale = 0.05;
      seed = 4;
      partitions = 1;
      obs_on = false;
      obs_capacity = 0;
      obs_interval = 0;
      prof_on = false;
    }
  in
  match Resume.drive ~meta sim with
  | Resume.Stopped _ -> Alcotest.fail "stopped without a stop condition"
  | Resume.Finished (stats, ()) ->
    Test_kernel.check_stats_equal "drive-off vs collect" reference stats

(* ------------------------------------------------------------------ *)
(* Resume equivalence                                                  *)
(* ------------------------------------------------------------------ *)

let check_point_result (r : Interrupt.point_result) ctx =
  if not r.Interrupt.equivalent then
    Alcotest.failf "%s: resumed run diverged: %s" ctx
      (Option.value r.Interrupt.mismatch ~default:"?");
  if r.Interrupt.corrupt_caught <> r.Interrupt.corrupt_flips then
    Alcotest.failf "%s: %d/%d corrupt flips caught" ctx
      r.Interrupt.corrupt_caught r.Interrupt.corrupt_flips;
  if r.Interrupt.checkpoints < 1 then
    Alcotest.failf "%s: no checkpoints written before the kill" ctx

(* Every default workload across the core grid: kill at a deterministic
   random cycle, resume, demand the final state is indistinguishable
   from an uninterrupted run's. *)
let test_resume_equivalence_grid () =
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          let p =
            { Interrupt.workload = w.Workloads.name; n_cores; seed = 42; draw = 0 }
          in
          let r = Interrupt.run_point ~scale:0.05 p in
          check_point_result r
            (Printf.sprintf "%s at %d cores" w.Workloads.name n_cores))
        [ 1; 4; 16 ])
    Workloads.all

(* A plain one-core run steps the exclusive interpreter after its root
   phase, a segment per step up to the horizon. Saved at a horizon
   mid-run and resumed onto a fresh machine, it ends as the saved run
   does — statistics, split and post-heap — and both match naive
   stepping. *)
let test_lone_core_resume () =
  let build () = Workloads.build_heap ~scale:0.05 ~seed:11 Workloads.db in
  let mem = Memsys.with_extra_latency Memsys.default_config 20 in
  let cfg = Coprocessor.config ~mem ~n_cores:1 () in
  let naive =
    Coprocessor.collect { cfg with Coprocessor.skip = false } (build ())
  in
  let finish sim =
    while not (Coprocessor.halted sim) do
      Coprocessor.step sim
    done;
    Coprocessor.finalize sim
  in
  let saved_heap = build () in
  let saved = Coprocessor.start cfg saved_heap in
  let horizon = naive.Coprocessor.total_cycles / 2 in
  while Coprocessor.now saved < horizon do
    Coprocessor.step ~horizon saved
  done;
  Alcotest.(check int) "segments stop at the horizon" horizon
    (Coprocessor.now saved);
  Alcotest.(check bool) "saved past the root phase" true
    (Coprocessor.roots_done saved);
  let image =
    Checkpoint.to_string (Coprocessor.Snapshot.save saved ~fingerprint:"t")
  in
  let resumed_heap = build () in
  let resumed = Coprocessor.start cfg resumed_heap in
  Coprocessor.Snapshot.restore resumed (Checkpoint.of_string image);
  let saved = finish saved and resumed = finish resumed in
  Test_kernel.check_stats_equal "lone core" ~ref_name:"saved"
    ~other_name:"resumed" saved resumed;
  Alcotest.(check (pair int int)) "executed/skipped split"
    (saved.Coprocessor.executed_cycles, saved.Coprocessor.skipped_cycles)
    (resumed.Coprocessor.executed_cycles, resumed.Coprocessor.skipped_cycles);
  Test_kernel.check_stats_equal "lone core" ~other_name:"resumed" naive
    resumed;
  if
    not
      (Verify.equal_snapshot
         (Verify.snapshot saved_heap)
         (Verify.snapshot resumed_heap))
  then Alcotest.fail "resumed post-heap differs from the saved run's"

(* Resume must also replay the fault injector's RNG mid-stream and the
   scan-unit sub-object machinery: a delay-faulted, scan-unit-enabled
   run killed mid-flight still ends bit-identical. Its snapshots record
   4 partitions, as those of the retired partitioned kernel could: the
   count is decoded and ignored. *)
let test_resume_with_faults_and_scan_unit () =
  with_tmpdir @@ fun dir ->
  let w = Workloads.db in
  let scale = 0.05 and seed = 3 in
  let faults = Injector.delay_class ~seed:5 ~intensity:0.3 () in
  let cfg = Coprocessor.config ~faults ~scan_unit:8 ~n_cores:8 () in
  let capacity = 1 lsl 15 and interval = 64 in
  let mk_obs () =
    let o = Tracer.create ~capacity ~interval ~n_cores:8 () in
    Tracer.enable o;
    o
  in
  let base_stats, base_digest =
    let heap = Workloads.build_heap ~scale ~seed w in
    let obs = mk_obs () in
    let s = Coprocessor.collect ~obs cfg heap in
    (s, Tracer.digest obs)
  in
  let total = base_stats.Coprocessor.total_cycles in
  let meta =
    {
      Resume.workload = w.Workloads.name;
      scale;
      seed;
      partitions = 4;
      obs_on = true;
      obs_capacity = capacity;
      obs_interval = interval;
      prof_on = false;
    }
  in
  let stop_at = total / 3 in
  let killed =
    let heap = Workloads.build_heap ~scale ~seed w in
    let sim = Coprocessor.start ~obs:(mk_obs ()) cfg heap in
    Resume.drive ~every:(max 1 (stop_at / 2)) ~dir ~stop_at ~meta sim
  in
  match killed with
  | Resume.Finished _ -> Alcotest.fail "run finished before its stop point"
  | Resume.Stopped { checkpoint = None; _ } ->
    Alcotest.fail "no final checkpoint"
  | Resume.Stopped { checkpoint = Some path; _ } -> (
    let r = Resume.resume ~path () in
    Alcotest.(check int) "partitions decoded" 4 r.Resume.meta.Resume.partitions;
    match Resume.drive ~meta:r.Resume.meta r.Resume.sim with
    | Resume.Stopped _ -> Alcotest.fail "resumed run stopped"
    | Resume.Finished (stats, _) ->
      Alcotest.(check int) "total cycles" total stats.Coprocessor.total_cycles;
      if stats.Coprocessor.per_core <> base_stats.Coprocessor.per_core then
        Alcotest.fail "per-core counters differ after faulted resume";
      Alcotest.(check int)
        "faults injected" base_stats.Coprocessor.faults_injected
        stats.Coprocessor.faults_injected;
      Alcotest.(check string)
        "trace digest" base_digest
        (Tracer.digest (Option.get r.Resume.obs));
      match Verify.check_collection ~pre:r.Resume.pre r.Resume.heap with
      | Ok () -> ()
      | Error f ->
        Alcotest.failf "resumed heap failed verification: %a" Verify.pp_failure
          f)

(* qcheck leg: random workload, seed and kill draw. *)
let qcheck_resume_equivalence =
  QCheck.Test.make
    ~name:
      "a run killed at a random cycle and resumed from its latest checkpoint \
       ends bit-identical to an uninterrupted run"
    ~count:12
    (QCheck.make
       ~print:(fun (wi, seed, draw) ->
         Printf.sprintf "workload=%d seed=%d draw=%d" wi seed draw)
       QCheck.Gen.(
         let* wi = int_range 0 (List.length Workloads.all - 1) in
         let* seed = int_range 0 1000 in
         let* draw = int_range 0 5 in
         return (wi, seed, draw)))
    (fun (wi, seed, draw) ->
      let w = List.nth Workloads.all wi in
      let r =
        Interrupt.run_point ~scale:0.03
          {
            Interrupt.workload = w.Workloads.name;
            n_cores = 4;
            seed;
            draw;
          }
      in
      r.Interrupt.equivalent
      && r.Interrupt.corrupt_caught = r.Interrupt.corrupt_flips)

(* ------------------------------------------------------------------ *)
(* Checkpoint chains: full image, then deltas                          *)
(* ------------------------------------------------------------------ *)

let is_delta path = Checkpoint.mem (Checkpoint.load path) "heap-delta"

let full_image sim =
  Checkpoint.to_string (Coprocessor.Snapshot.save sim ~fingerprint:"x")

(* The machine restored from the chain ending at [path], re-encoded as a
   full image, must be byte for byte a full image of the live machine. *)
let check_chain_equals_live ?fingerprint ctx ~path live =
  let r = Resume.resume ?fingerprint ~path () in
  if full_image r.Resume.sim <> full_image live then
    Alcotest.failf "%s: chain ending at %s restores another machine" ctx
      (Filename.basename path)

(* Every save of [Resume.drive], over every workload at 1, 4 and 16
   cores, parked and as the unparked twin, with a tracer whose ring
   overflows and a profiler, and with neither. [should_stop] is polled
   right after each boundary save, before the next step. *)
let test_chain_equals_full_image () =
  let twin cfg = { cfg with Coprocessor.faults = Some Injector.default_spec } in
  List.iter
    (fun w ->
      List.iter
        (fun (n_cores, twinned, observed) ->
          let scale = 0.05 and seed = 42 in
          let base = Coprocessor.config ~n_cores () in
          let cfg = if twinned then twin base else base in
          let total =
            (Coprocessor.collect cfg (Workloads.build_heap ~scale ~seed w))
              .Coprocessor.total_cycles
          in
          let every = max 1 (total / 4) in
          let interval = 64 in
          (* A ring that fills half way through the run. *)
          let capacity =
            if not observed then 0
            else begin
              let o = Tracer.create ~capacity:(1 lsl 17) ~interval ~n_cores () in
              Tracer.enable o;
              ignore
                (Coprocessor.collect ~obs:o cfg
                   (Workloads.build_heap ~scale ~seed w));
              max 1 ((Tracer.length o + Tracer.dropped o) / 2)
            end
          in
          let obs, prof =
            if not observed then (None, None)
            else begin
              let o = Tracer.create ~capacity ~interval ~n_cores () in
              Tracer.enable o;
              let p = Profiler.create ~n_cores () in
              Profiler.enable p;
              (Some o, Some p)
            end
          in
          let ctx =
            Printf.sprintf "%s/%d cores/%s/%s" w.Workloads.name n_cores
              (if twinned then "unparked" else "parked")
              (if observed then "observed" else "plain")
          in
          let meta =
            {
              Resume.workload = w.Workloads.name;
              scale;
              seed;
              partitions = 1;
              obs_on = observed;
              obs_capacity = capacity;
              obs_interval = (if observed then interval else 0);
              prof_on = observed;
            }
          in
          with_tmpdir @@ fun dir ->
          let sim =
            Coprocessor.start ?obs ?prof cfg (Workloads.build_heap ~scale ~seed w)
          in
          let checked = ref 0 and deltas = ref 0 and last = ref 0 in
          let should_stop () =
            let now = Coprocessor.now sim in
            if now mod every = 0 && now > !last then begin
              last := now;
              let path = Resume.checkpoint_path ~dir ~cycle:now in
              if is_delta path then incr deltas;
              check_chain_equals_live ctx ~path sim;
              incr checked
            end;
            false
          in
          (match Resume.drive ~every ~dir ~should_stop ~meta sim with
          | Resume.Finished _ -> ()
          | Resume.Stopped _ -> Alcotest.failf "%s: run stopped" ctx);
          if !checked < 3 then
            Alcotest.failf "%s: %d saves checked, expected at least 3" ctx
              !checked;
          if !deltas < 2 then
            Alcotest.failf "%s: %d of %d saves were deltas" ctx !deltas !checked;
          match obs with
          | Some o when Tracer.dropped o = 0 ->
            Alcotest.failf "%s: the ring never overflowed" ctx
          | _ -> ())
        (List.concat_map
           (fun n ->
             List.concat_map
               (fun twinned ->
                 List.map (fun observed -> (n, twinned, observed)) [ false; true ])
               [ false; true ])
           [ 1; 4; 16 ]))
    Workloads.all

let chain_meta ~seed =
  {
    Resume.workload = "db";
    scale = 0.05;
    seed;
    partitions = 1;
    obs_on = true;
    obs_capacity = 4096;
    obs_interval = 64;
    prof_on = false;
  }

let chain_machine ~seed =
  let heap = Workloads.build_heap ~scale:0.05 ~seed Workloads.db in
  let obs = Tracer.create ~capacity:4096 ~interval:64 ~n_cores:8 () in
  Tracer.enable obs;
  Coprocessor.start ~obs (Coprocessor.config ~n_cores:8 ()) heap

(* Three saves 400 steps apart into [dir]: a full image and two deltas. *)
let write_chain ?(seed = 42) dir =
  let sim = chain_machine ~seed in
  let meta = chain_meta ~seed in
  let paths =
    List.map
      (fun name ->
        run_steps sim 400;
        let path = Filename.concat dir name in
        Resume.save ~fingerprint:"chain" sim meta ~path;
        path)
      [ "a.ckpt"; "b.ckpt"; "c.ckpt" ]
  in
  (sim, paths)

let refused ~path ~fingerprint needles =
  match Resume.resume ~fingerprint ~path () with
  | _ -> Alcotest.failf "resume from %s accepted" path
  | exception Checkpoint.Corrupt msg ->
    List.iter
      (fun n ->
        if not (contains msg n) then
          Alcotest.failf "refusal %S does not name %S" msg n)
      needles

let test_chain_refusals () =
  with_tmpdir @@ fun dir ->
  let sim, paths = write_chain dir in
  let last = List.nth paths 2 in
  Alcotest.(check (list bool))
    "a full image, then two deltas" [ false; true; true ]
    (List.map is_delta paths);
  check_chain_equals_live ~fingerprint:"chain" "3-link chain" ~path:last sim;
  (* A flipped byte in each file, at the middle of each section. *)
  List.iter
    (fun path ->
      let raw = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun (name, off, len) ->
          let b = Bytes.of_string raw in
          let i = off + (len / 2) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc b);
          refused ~path:last ~fingerprint:"chain"
            [ path; Printf.sprintf "%S" name ])
        (Checkpoint.payload_ranges path);
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc raw))
    paths;
  (* A missing parent. *)
  let full = List.hd paths in
  let raw = In_channel.with_open_bin full In_channel.input_all in
  Sys.remove full;
  refused ~path:last ~fingerprint:"chain" [ full; "missing" ];
  Out_channel.with_open_bin full (fun oc -> Out_channel.output_string oc raw);
  (* A parent of the same name from another run. *)
  let middle = List.nth paths 1 in
  let raw = In_channel.with_open_bin middle In_channel.input_all in
  with_tmpdir (fun other ->
      let _, other_paths = write_chain ~seed:43 other in
      Sys.rename (List.nth other_paths 1) middle);
  refused ~path:last ~fingerprint:"chain" [ middle; "not the snapshot" ];
  Out_channel.with_open_bin middle (fun oc -> Out_channel.output_string oc raw);
  ignore (Resume.resume ~fingerprint:"chain" ~path:last ())

(* A delta whose parent was written by another build is refused, naming
   the parent. *)
let test_chain_across_fingerprints () =
  with_tmpdir @@ fun dir ->
  let sim = chain_machine ~seed:42 and meta = chain_meta ~seed:42 in
  let save fingerprint name =
    run_steps sim 400;
    let path = Filename.concat dir name in
    Resume.save ~fingerprint sim meta ~path;
    path
  in
  let a = save "build-a" "a.ckpt" in
  let b = save "build-b" "b.ckpt" in
  Alcotest.(check bool) "second save is a delta" true (is_delta b);
  refused ~path:b ~fingerprint:"build-b" [ a; "different build" ]

(* A save that fails leaves no temp file and does not advance the chain:
   the next save is a delta of the last durable image. *)
let test_failed_delta_write () =
  with_tmpdir @@ fun dir ->
  let sim = chain_machine ~seed:42 and meta = chain_meta ~seed:42 in
  run_steps sim 400;
  let a = Filename.concat dir "a.ckpt" in
  Resume.save sim meta ~path:a;
  run_steps sim 400;
  let blocked = Filename.concat dir "b.ckpt" in
  Sys.mkdir blocked 0o755;
  (match Resume.save sim meta ~path:blocked with
  | () -> Alcotest.fail "save onto a directory succeeded"
  | exception Sys_error _ -> ());
  Sys.rmdir blocked;
  (match
     List.filter
       (String.starts_with ~prefix:".ckpt-")
       (Array.to_list (Sys.readdir dir))
   with
  | [] -> ()
  | left -> Alcotest.failf "temp files left behind: %s" (String.concat ", " left));
  run_steps sim 100;
  let c = Filename.concat dir "c.ckpt" in
  Resume.save sim meta ~path:c;
  Alcotest.(check bool) "the next save is a delta" true (is_delta c);
  check_chain_equals_live "after a failed save" ~path:c sim;
  Sys.remove a;
  refused ~path:c ~fingerprint:(Resume.fingerprint ()) [ a; "missing" ]

(* A stop on a checkpoint boundary saves onto the path of the periodic
   save just written: the chain rule makes it a full image, so the chain
   stays resumable (the interrupt campaign's kill at cycle 4862 with
   [every] 2431 is this case). *)
let test_stop_on_boundary () =
  with_tmpdir @@ fun dir ->
  let sim = chain_machine ~seed:42 and meta = chain_meta ~seed:42 in
  let every = 700 in
  match Resume.drive ~every ~dir ~stop_at:(3 * every) ~meta sim with
  | Resume.Finished _ -> Alcotest.fail "run finished before its stop"
  | Resume.Stopped { checkpoint = None; _ } -> Alcotest.fail "no stop save"
  | Resume.Stopped { checkpoint = Some path; at_cycle } ->
    Alcotest.(check int) "stopped on the boundary" (3 * every) at_cycle;
    Alcotest.(check string)
      "onto the periodic save's path"
      (Resume.checkpoint_path ~dir ~cycle:(3 * every))
      path;
    Alcotest.(check bool) "the stop save is a full image" false (is_delta path);
    Alcotest.(check bool)
      "the periodic save before it was a delta" true
      (is_delta (Resume.checkpoint_path ~dir ~cycle:(2 * every)));
    check_chain_equals_live "stop on a boundary" ~path sim

(* The chain rule, case by case. *)
let test_chain_rule () =
  with_tmpdir @@ fun dir ->
  with_tmpdir @@ fun other ->
  let sim = chain_machine ~seed:42 and meta = chain_meta ~seed:42 in
  let save ?(steps = 200) dir name =
    run_steps sim steps;
    let path = Filename.concat dir name in
    Resume.save sim meta ~path;
    is_delta path
  in
  Alcotest.(check bool) "first save: full" false (save dir "1.ckpt");
  Alcotest.(check bool) "next save: delta" true (save dir "2.ckpt");
  Alcotest.(check bool) "another directory: full" false (save other "3.ckpt");
  Alcotest.(check bool) "back again: full" false (save dir "4.ckpt");
  Alcotest.(check bool) "onto the parent's path: full" false
    (save ~steps:0 dir "4.ckpt");
  Alcotest.(check bool) "then a delta" true (save dir "5.ckpt");
  (* Saves a few cycles apart carry little heap but every small section:
     their bytes pass a full image's after a handful, and the chain
     restarts with a full image. *)
  let full_seen = ref false and bytes = ref 0 in
  for i = 6 to 60 do
    let before = String.length (full_image sim) in
    if save ~steps:3 dir (Printf.sprintf "%d.ckpt" i) then begin
      let path = Filename.concat dir (Printf.sprintf "%d.ckpt" i) in
      bytes := !bytes + (Unix.stat path).Unix.st_size;
      if !bytes > before + 1024 then
        Alcotest.failf "deltas hold %d bytes, a full image %d" !bytes before
    end
    else begin
      full_seen := true;
      bytes := 0
    end
  done;
  Alcotest.(check bool) "delta bytes past a full image restart the chain"
    true !full_seen;
  (* After [finalize] the heap has flipped: full again. *)
  while not (Coprocessor.halted sim) do
    Coprocessor.step sim
  done;
  ignore (Coprocessor.finalize sim);
  Alcotest.(check bool) "flipped heap: full" false (save ~steps:0 dir "z.ckpt")

(* A watchdog trip writes a full post-mortem image and leaves the chain
   where it was. *)
let test_postmortem_full () =
  with_tmpdir @@ fun dir ->
  let heap = Workloads.build_heap ~scale:0.05 ~seed:42 Workloads.db in
  let cfg = Coprocessor.config ~cycle_budget:2500 ~n_cores:8 () in
  let sim = Coprocessor.start cfg heap in
  let meta =
    {
      (chain_meta ~seed:42) with
      Resume.obs_on = false;
      obs_capacity = 0;
      obs_interval = 0;
    }
  in
  (match Resume.drive ~every:1000 ~dir ~meta sim with
  | _ -> Alcotest.fail "the budget did not trip"
  | exception Coprocessor.Stall_diagnosis _ -> ());
  let pm = Filename.concat dir Resume.postmortem_name in
  Alcotest.(check bool) "post-mortem is full" false (is_delta pm);
  Alcotest.(check bool) "the second periodic save is a delta" true
    (is_delta (Resume.checkpoint_path ~dir ~cycle:2000));
  (* The next save deltas against the last periodic save, not the
     post-mortem. *)
  let next = Filename.concat dir "next.ckpt" in
  Resume.save sim meta ~path:next;
  Sys.remove pm;
  Alcotest.(check bool) "the next save is a delta" true (is_delta next);
  check_chain_equals_live "after the post-mortem" ~path:next sim

let suite =
  [
    Alcotest.test_case "mutation: every section flip caught" `Quick
      test_mutation_every_section_caught;
    Alcotest.test_case "mutation: refusal names the section" `Quick
      test_mutation_names_section;
    Alcotest.test_case "fingerprint mismatch refused" `Quick
      test_fingerprint_mismatch_refused;
    Alcotest.test_case "sanitizer incompatible with snapshots" `Quick
      test_sanitizer_incompatible;
    Alcotest.test_case "crc32: check values, long unaligned slices" `Quick
      test_crc_values;
    QCheck_alcotest.to_alcotest qcheck_crc_slices;
    QCheck_alcotest.to_alcotest qcheck_codec_reference_bytes;
    Alcotest.test_case "reserved sizes: overrun, duplicate, drift refused"
      `Quick test_reserved_sizes_enforced;
    Alcotest.test_case "snapshot images byte-identical to the recorded format"
      `Quick test_golden_images;
    Alcotest.test_case "write failure leaves no temp file" `Quick
      test_write_failure_leaves_no_temp;
    QCheck_alcotest.to_alcotest qcheck_heap_image;
    QCheck_alcotest.to_alcotest qcheck_heap_delta;
    QCheck_alcotest.to_alcotest qcheck_ring_columns;
    Alcotest.test_case "ring columns at the 32-bit edges" `Quick
      test_column_edges;
    Alcotest.test_case "malformed heap and ring payloads refused" `Quick
      test_malformed_payloads;
    Alcotest.test_case "save and restore allocate no per-field boxes" `Quick
      test_codec_allocation;
    Alcotest.test_case "checkpoints land exactly on boundaries" `Quick
      test_checkpoint_boundaries_exact;
    Alcotest.test_case "driver with checkpointing off = plain collect" `Quick
      test_drive_off_matches_collect;
    Alcotest.test_case "resume equivalence: workloads x {1,4,16} cores" `Quick
      test_resume_equivalence_grid;
    Alcotest.test_case "resume with faults and scan-unit" `Quick
      test_resume_with_faults_and_scan_unit;
    Alcotest.test_case "lone-core run resumed mid-run" `Quick
      test_lone_core_resume;
    QCheck_alcotest.to_alcotest qcheck_resume_equivalence;
    Alcotest.test_case "chain restores equal full images at every save"
      `Quick test_chain_equals_full_image;
    Alcotest.test_case "chain refusals: flipped byte, missing or foreign parent"
      `Quick test_chain_refusals;
    Alcotest.test_case "chain refusal: link across a fingerprint change"
      `Quick test_chain_across_fingerprints;
    Alcotest.test_case "failed delta write: no temp file, chain kept" `Quick
      test_failed_delta_write;
    Alcotest.test_case "stop on a checkpoint boundary leaves a resumable chain"
      `Quick test_stop_on_boundary;
    Alcotest.test_case "chain rule: when a save is full" `Quick test_chain_rule;
    Alcotest.test_case "post-mortem snapshot is full, outside the chain"
      `Quick test_postmortem_full;
  ]
