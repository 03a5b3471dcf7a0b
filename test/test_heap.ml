(* Tests for the object heap. *)

module Heap = Hsgc_heap.Heap
module Header = Hsgc_heap.Header
module Semispace = Hsgc_heap.Semispace

let alloc_exn heap ~pi ~delta =
  match Heap.alloc heap ~pi ~delta with
  | Some a -> a
  | None -> Alcotest.fail "allocation unexpectedly failed"

let test_null_reserved () =
  let heap = Heap.create ~semispace_words:100 in
  let a = alloc_exn heap ~pi:1 ~delta:1 in
  Alcotest.(check bool) "first object is not at null" true (a <> Heap.null);
  Alcotest.(check int) "null is 0" 0 Heap.null

let test_alloc_layout () =
  let heap = Heap.create ~semispace_words:100 in
  let a = alloc_exn heap ~pi:2 ~delta:3 in
  let b = alloc_exn heap ~pi:0 ~delta:0 in
  Alcotest.(check int) "objects contiguous" (a + 2 + 2 + 3) b;
  Alcotest.(check int) "pi" 2 (Heap.obj_pi heap a);
  Alcotest.(check int) "delta" 3 (Heap.obj_delta heap a);
  Alcotest.(check int) "size" 7 (Heap.obj_size heap a);
  Alcotest.(check bool) "white" true (Heap.obj_state heap a = Header.White)

let test_alloc_zeroed () =
  let heap = Heap.create ~semispace_words:100 in
  let a = alloc_exn heap ~pi:2 ~delta:2 in
  Alcotest.(check int) "pointer slot null" Heap.null (Heap.get_pointer heap a 0);
  Alcotest.(check int) "data slot zero" 0 (Heap.get_data heap a 1);
  Alcotest.(check int) "header1 zero" 0 (Heap.header1 heap a)

let test_pointer_data_accessors () =
  let heap = Heap.create ~semispace_words:100 in
  let a = alloc_exn heap ~pi:2 ~delta:2 in
  let b = alloc_exn heap ~pi:0 ~delta:1 in
  Heap.set_pointer heap a 1 b;
  Heap.set_data heap a 0 4242;
  Alcotest.(check int) "pointer readback" b (Heap.get_pointer heap a 1);
  Alcotest.(check int) "data readback" 4242 (Heap.get_data heap a 0);
  (* Pointer and data areas do not overlap. *)
  Alcotest.(check int) "slot 0 pointer untouched" Heap.null
    (Heap.get_pointer heap a 0);
  Alcotest.(check int) "data 1 untouched" 0 (Heap.get_data heap a 1)

let test_alloc_exhaustion () =
  let heap = Heap.create ~semispace_words:10 in
  (* size 2+0+4 = 6 fits; another 6 does not. *)
  Alcotest.(check bool) "first fits" true (Heap.alloc heap ~pi:0 ~delta:4 <> None);
  Alcotest.(check bool) "second rejected" true
    (Heap.alloc heap ~pi:0 ~delta:4 = None)

let test_flip () =
  let heap = Heap.create ~semispace_words:50 in
  let from0 = Heap.from_space heap and to0 = Heap.to_space heap in
  Alcotest.(check bool) "disjoint" true (from0.Semispace.base <> to0.Semispace.base);
  ignore (alloc_exn heap ~pi:0 ~delta:1);
  Heap.flip heap;
  Alcotest.(check bool) "roles swapped" true
    (Heap.from_space heap == to0 && Heap.to_space heap == from0);
  Alcotest.(check int) "new tospace reset" 0 (Semispace.used (Heap.to_space heap))

let test_roots () =
  let heap = Heap.create ~semispace_words:100 in
  let a = alloc_exn heap ~pi:0 ~delta:1 in
  Alcotest.(check int) "no roots" 0 (Heap.root_count heap);
  Heap.add_root heap a;
  Alcotest.(check int) "one root" 1 (Heap.root_count heap);
  Heap.set_roots heap [| a; a |];
  Alcotest.(check int) "replaced" 2 (Heap.root_count heap)

let test_iter_objects () =
  let heap = Heap.create ~semispace_words:100 in
  let a = alloc_exn heap ~pi:1 ~delta:0 in
  let b = alloc_exn heap ~pi:0 ~delta:5 in
  let c = alloc_exn heap ~pi:2 ~delta:2 in
  let seen = ref [] in
  Heap.iter_objects heap (Heap.from_space heap) (fun o -> seen := o :: !seen);
  Alcotest.(check (list int)) "address order" [ a; b; c ] (List.rev !seen)

let build_diamond heap =
  (* r -> a, b; a -> c; b -> c *)
  let c = alloc_exn heap ~pi:0 ~delta:1 in
  let a = alloc_exn heap ~pi:1 ~delta:0 in
  let b = alloc_exn heap ~pi:1 ~delta:0 in
  let r = alloc_exn heap ~pi:2 ~delta:0 in
  Heap.set_pointer heap a 0 c;
  Heap.set_pointer heap b 0 c;
  Heap.set_pointer heap r 0 a;
  Heap.set_pointer heap r 1 b;
  Heap.set_roots heap [| r |];
  (r, a, b, c)

let test_reachable_diamond () =
  let heap = Heap.create ~semispace_words:100 in
  let r, a, b, c = build_diamond heap in
  let garbage = alloc_exn heap ~pi:0 ~delta:3 in
  let reach = Heap.reachable heap in
  Alcotest.(check int) "four reachable" 4 (Hashtbl.length reach);
  List.iter
    (fun o -> Alcotest.(check bool) "reachable member" true (Hashtbl.mem reach o))
    [ r; a; b; c ];
  Alcotest.(check bool) "garbage excluded" false (Hashtbl.mem reach garbage)

let test_reachable_cycle () =
  let heap = Heap.create ~semispace_words:100 in
  let a = alloc_exn heap ~pi:1 ~delta:0 in
  let b = alloc_exn heap ~pi:1 ~delta:0 in
  Heap.set_pointer heap a 0 b;
  Heap.set_pointer heap b 0 a;
  Heap.set_roots heap [| a |];
  Alcotest.(check int) "cycle terminates" 2 (Hashtbl.length (Heap.reachable heap))

let test_live_words () =
  let heap = Heap.create ~semispace_words:100 in
  let _ = build_diamond heap in
  ignore (alloc_exn heap ~pi:0 ~delta:9);
  (* diamond footprint: c=3, a=3, b=3, r=4 *)
  Alcotest.(check int) "live words" 13 (Heap.live_words heap)

let test_null_roots_ignored () =
  let heap = Heap.create ~semispace_words:100 in
  Heap.set_roots heap [| Heap.null; Heap.null |];
  Alcotest.(check int) "nothing reachable" 0 (Hashtbl.length (Heap.reachable heap))

let qcheck_accessor_roundtrip =
  QCheck.Test.make ~name:"pointer/data slots are independent cells" ~count:200
    QCheck.(triple (int_range 0 6) (int_range 0 6) small_nat)
    (fun (pi, delta, seed) ->
      let heap = Heap.create ~semispace_words:200 in
      match Heap.alloc heap ~pi ~delta with
      | None -> false
      | Some a ->
        let target =
          match Heap.alloc heap ~pi:0 ~delta:0 with Some t -> t | None -> a
        in
        (* write a distinct value everywhere, then read everything back *)
        for i = 0 to pi - 1 do
          Heap.set_pointer heap a i (if i mod 2 = 0 then target else Heap.null)
        done;
        for i = 0 to delta - 1 do
          Heap.set_data heap a i (seed + (i * 31))
        done;
        let ok = ref true in
        for i = 0 to pi - 1 do
          let expected = if i mod 2 = 0 then target else Heap.null in
          if Heap.get_pointer heap a i <> expected then ok := false
        done;
        for i = 0 to delta - 1 do
          if Heap.get_data heap a i <> seed + (i * 31) then ok := false
        done;
        !ok && Heap.obj_pi heap a = pi && Heap.obj_delta heap a = delta)

(* Heap memory is OS zero pages outside the OCaml heap. *)

(* Words a call adds to the OCaml heap, minor and major together. *)
let ocaml_words f =
  (* [Gc.quick_stat] counts the minor heap as of its last collection,
     and takes in a word allocated directly on the major heap only when
     a later major slice accounts for it: a reading after a bare
     [Gc.minor] can include words allocated before the call, or miss
     words allocated by it. A full major cycle before each reading
     accounts for every pending word. *)
  let total () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  in
  let before = total () in
  let r = f () in
  (total () -. before, r)

(* A heap costs its record and the array's handle, whatever its size;
   and materializing a plan adds only its roots, the words of the heap
   itself being outside. *)
let test_heap_words_outside_ocaml_heap () =
  let words, h = ocaml_words (fun () -> Heap.create ~semispace_words:(1 lsl 22)) in
  ignore (Sys.opaque_identity h);
  if words > 256.0 then
    Alcotest.failf "Heap.create at 2^22 words added %.0f words to the OCaml heap"
      words;
  let w = Hsgc_objgraph.Workloads.cup in
  let plan = w.Hsgc_objgraph.Workloads.build ~scale:1.0 ~seed:42 in
  let roots = Array.length (Hsgc_objgraph.Plan.roots plan) in
  let words, h = ocaml_words (fun () -> Hsgc_objgraph.Plan.materialize plan) in
  ignore (Sys.opaque_identity h);
  if words > 256.0 +. float_of_int roots then
    Alcotest.failf
      "materializing cup at scale 1 (%d roots) added %.0f words to the OCaml \
       heap"
      roots words

(* Resident set size in kB, or [None] where /proc is absent. *)
let vm_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.starts_with ~prefix:"VmRSS:" line then
          Scanf.sscanf line "VmRSS: %d kB" (fun kb -> Some kb)
        else find ()
    in
    let kb = find () in
    close_in ic;
    kb

(* With transparent huge pages always on, a touched page may be 2 MB. *)
let thp_always () =
  match open_in "/sys/kernel/mm/transparent_hugepage/enabled" with
  | exception Sys_error _ -> false
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    List.mem "[always]" (String.split_on_char ' ' line)

let rss_or_skip () = match vm_rss_kb () with Some kb -> kb | None -> Alcotest.skip ()

(* Dead heaps are unmapped as fast as a loop makes new ones: the GC is
   paced by their size. 64 heaps of 8 MB, each written once per page
   and dropped, may hold at most 16 heaps' worth at any time. The loop
   runs in a fresh process (release_loop.ml): how soon a major cycle
   completes depends on the live OCaml heap and on work the collector
   has done ahead, which other tests in this process leave behind. *)
let test_release_keeps_pace () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "release_loop.exe" in
  if not (Sys.file_exists exe) then Alcotest.failf "%s is not built (dune build)" exe;
  let ic = Unix.open_process_args_in exe [| exe |] in
  let line = try input_line ic with End_of_file -> "" in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s failed" exe);
  if line = "skip" then Alcotest.skip ();
  let heap_kb, grown = Scanf.sscanf line "%d %d" (fun h g -> (h, g)) in
  let heap_kb =
    if thp_always () then ((heap_kb + 2047) / 2048 * 2048) + 2048 else heap_kb
  in
  if grown > 16 * heap_kb then
    Alcotest.failf "64 dropped heaps of %d kB: resident set grew by %d kB (bound %d)"
      heap_kb grown (16 * heap_kb)

(* Restoring a small image onto a fresh large heap writes the image's
   words only: the pages above its extents stay untouched. *)
let test_restore_onto_fresh_heap () =
  let module Codec = Hsgc_util.Codec in
  let semispace_words = 1 lsl 22 in
  let h = Heap.create ~semispace_words in
  let objs =
    Array.init 2048 (fun i -> alloc_exn h ~pi:(i mod 3) ~delta:(4 + (i mod 5)))
  in
  Array.iteri
    (fun i a ->
      for j = 0 to Heap.obj_pi h a - 1 do
        Heap.set_pointer h a j objs.((i + j + 1) mod Array.length objs)
      done;
      for j = 0 to Heap.obj_delta h a - 1 do
        Heap.set_data h a j ((i * 7) + j + 1)
      done)
    objs;
  Heap.set_roots h [| objs.(0); objs.(1) |];
  let encode = Heap.encode h in
  let m = Codec.W.measure () in
  encode m;
  let buf = Bytes.create (Codec.W.pos m) in
  encode (Codec.W.into buf ~pos:0);
  let image = Bytes.to_string buf in
  let before = rss_or_skip () in
  let fresh = Heap.create ~semispace_words in
  Heap.restore fresh (Codec.R.of_substring image ~pos:0 ~len:(String.length image));
  let grown = rss_or_skip () - before in
  let image_kb = String.length image / 1024 in
  let slack_kb = 1024 + if thp_always () then 4096 else 0 in
  if grown > image_kb + slack_kb then
    Alcotest.failf
      "restoring a %d kB image onto a fresh %d MB heap grew the resident set by \
       %d kB"
      image_kb
      (8 * Heap.length fresh.Heap.mem / 1024 / 1024)
      grown;
  Alcotest.(check bool) "restored word for word" true (fresh.Heap.mem = h.Heap.mem);
  Alcotest.(check (array int)) "roots" h.Heap.roots fresh.Heap.roots

let suite =
  [
    Alcotest.test_case "null reserved" `Quick test_null_reserved;
    Alcotest.test_case "alloc layout" `Quick test_alloc_layout;
    Alcotest.test_case "alloc zeroed" `Quick test_alloc_zeroed;
    Alcotest.test_case "pointer/data accessors" `Quick test_pointer_data_accessors;
    Alcotest.test_case "alloc exhaustion" `Quick test_alloc_exhaustion;
    Alcotest.test_case "flip" `Quick test_flip;
    Alcotest.test_case "roots" `Quick test_roots;
    Alcotest.test_case "iter_objects" `Quick test_iter_objects;
    Alcotest.test_case "reachable diamond" `Quick test_reachable_diamond;
    Alcotest.test_case "reachable cycle" `Quick test_reachable_cycle;
    Alcotest.test_case "live words" `Quick test_live_words;
    Alcotest.test_case "null roots ignored" `Quick test_null_roots_ignored;
    QCheck_alcotest.to_alcotest qcheck_accessor_roundtrip;
    Alcotest.test_case "dropped heaps are unmapped in pace" `Quick
      test_release_keeps_pace;
    Alcotest.test_case "heap words stay outside the OCaml heap" `Quick
      test_heap_words_outside_ocaml_heap;
    Alcotest.test_case "restore onto a fresh heap touches the image only" `Quick
      test_restore_onto_fresh_heap;
  ]
