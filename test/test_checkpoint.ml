(* Checkpoint/restore (Hsgc_checkpoint + Coprocessor.Snapshot + the
   Hsgc_core.Resume driver): container integrity under mutation, the
   codec and CRC against byte-level references, byte-identical snapshot
   images, exact snapshot round-trips mid-collection, and the
   load-bearing property —
   resume equivalence. A run killed at any cycle and resumed from its
   latest snapshot must end in the same final state (verify result,
   total cycles, per-core counters, trace digest) as a run that was
   never interrupted, for every default workload across the core grid,
   with or without fault injection, under sequential or BSP stepping. *)

module Coprocessor = Hsgc_coproc.Coprocessor
module Workloads = Hsgc_objgraph.Workloads
module Verify = Hsgc_heap.Verify
module Tracer = Hsgc_obs.Tracer
module Profiler = Hsgc_obs.Profiler
module Injector = Hsgc_fault.Injector
module Codec = Hsgc_util.Codec
module Checkpoint = Hsgc_checkpoint.Checkpoint
module Resume = Hsgc_core.Resume
module Interrupt = Hsgc_core.Chaos.Interrupt

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
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
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
  | Rows of int array array  (** columns of one length *)

let rows_len cols = if Array.length cols = 0 then 0 else Array.length cols.(0)

(* What the Buffer-based writer the codec replaced emitted for each op:
   the reserved writer must reproduce these bytes exactly. *)
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
      | Rows cols ->
        for i = 0 to rows_len cols - 1 do
          Array.iter (fun c -> int c.(i)) cols
        done)
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
    | Rows cols -> Codec.W.interleaved w cols ~len:(rows_len cols))

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
  | Rows cols ->
    let d = Array.map (fun c -> Array.make (Array.length c) 0) cols in
    Codec.R.interleaved_into r d ~len:(rows_len cols);
    Rows d

let same_op a b =
  match (a, b) with
  | Float x, Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

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
            let* k = int_range 0 5 in
            let* len = int_range 0 8 in
            map
              (fun cols -> Rows (Array.of_list (List.map Array.of_list cols)))
              (list_repeat k (list_repeat len int)) );
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

(* Size and MD5 of each image as written by the Buffer-based encoder
   that preceded the reserve-once one: the on-disk format is unchanged,
   so snapshots written before and after it stay interchangeable. *)
let golden_images =
  [
    ("plain", plain_machine, 756572, "03daa14f8e00c65bff8b865cabb7b25d");
    ( "observed",
      (fun () -> observed_machine ()),
      954054,
      "2c7020eb511e7d5dec40c0e9e473f24f" );
  ]

let test_golden_images () =
  with_tmpdir @@ fun dir ->
  List.iter
    (fun (name, machine, size, digest) ->
      let sim, meta = machine () in
      let path = Filename.concat dir (name ^ ".ckpt") in
      Resume.save ~fingerprint:"golden" sim meta ~path;
      let raw = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int) (name ^ " image size") size (String.length raw);
      Alcotest.(check string)
        (name ^ " image digest") digest
        (Digest.to_hex (Digest.string raw)))
    golden_images

(* Both directions move words unboxed through buffers sized up front: a
   save allocates its image plus a few words per section, a restore only
   its readers — never a box per field. Both stay near 500 minor words
   at any machine size (measured at scales 0.05 and 0.5). *)
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
  let fields = String.length (Checkpoint.to_string image) / 8 in
  List.iter
    (fun (what, words) ->
      if words > 4096. then
        Alcotest.failf "%s of a %d-field snapshot allocated %.0f minor words"
          what fields words)
    [ ("save", saved); ("restore", restored) ]

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
  (match Resume.drive ~every ~dir ~partitions:1 ~meta sim with
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
  match Resume.drive ~partitions:1 ~meta sim with
  | Resume.Stopped _ -> Alcotest.fail "stopped without a stop condition"
  | Resume.Finished (stats, None) ->
    Test_kernel.check_stats_equal "drive-off vs collect" reference stats
  | Resume.Finished (_, Some _) ->
    Alcotest.fail "sequential drive reported BSP stats"

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

(* Every default workload across the core grid, sequential and BSP
   stepping: kill at a deterministic random cycle, resume, demand the
   final state is indistinguishable from an uninterrupted run's. *)
let test_resume_equivalence_grid () =
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          let p =
            {
              Interrupt.workload = w.Workloads.name;
              n_cores;
              partitions = min 4 n_cores;
              seed = 42;
              draw = 0;
            }
          in
          let r = Interrupt.run_point ~scale:0.05 p in
          check_point_result r
            (Printf.sprintf "%s at %d cores" w.Workloads.name n_cores))
        [ 1; 4; 16 ])
    Workloads.all

(* Resume must also replay the fault injector's RNG mid-stream and the
   scan-unit sub-object machinery: a delay-faulted, scan-unit-enabled
   run killed mid-flight still ends bit-identical. *)
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
      partitions = 1;
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
    Resume.drive ~every:(max 1 (stop_at / 2)) ~dir ~stop_at ~partitions:1 ~meta
      sim
  in
  match killed with
  | Resume.Finished _ -> Alcotest.fail "run finished before its stop point"
  | Resume.Stopped { checkpoint = None; _ } ->
    Alcotest.fail "no final checkpoint"
  | Resume.Stopped { checkpoint = Some path; _ } -> (
    let r = Resume.resume ~path () in
    match Resume.drive ~partitions:1 ~meta:r.Resume.meta r.Resume.sim with
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

(* qcheck leg: random workload, seed, kill draw and partition count. *)
let qcheck_resume_equivalence =
  QCheck.Test.make
    ~name:
      "a run killed at a random cycle and resumed from its latest checkpoint \
       ends bit-identical to an uninterrupted run"
    ~count:12
    (QCheck.make
       ~print:(fun (wi, seed, draw, parts) ->
         Printf.sprintf "workload=%d seed=%d draw=%d partitions=%d" wi seed
           draw parts)
       QCheck.Gen.(
         let* wi = int_range 0 (List.length Workloads.all - 1) in
         let* seed = int_range 0 1000 in
         let* draw = int_range 0 5 in
         let* parts = oneofl [ 1; 2; 4 ] in
         return (wi, seed, draw, parts)))
    (fun (wi, seed, draw, parts) ->
      let w = List.nth Workloads.all wi in
      let r =
        Interrupt.run_point ~scale:0.03
          {
            Interrupt.workload = w.Workloads.name;
            n_cores = 4;
            partitions = parts;
            seed;
            draw;
          }
      in
      r.Interrupt.equivalent
      && r.Interrupt.corrupt_caught = r.Interrupt.corrupt_flips)

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
    QCheck_alcotest.to_alcotest qcheck_resume_equivalence;
  ]
