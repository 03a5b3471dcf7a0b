(* Tests for the eight named workloads. *)

module Workloads = Hsgc_objgraph.Workloads
module Plan = Hsgc_objgraph.Plan
module Heap = Hsgc_heap.Heap
module Verify = Hsgc_heap.Verify
module Cheney_seq = Hsgc_core.Cheney_seq

let test_names_unique () =
  let names = List.map (fun w -> w.Workloads.name) Workloads.all in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "eight distinct workloads" 8 (List.length sorted)

let test_find () =
  Alcotest.(check bool) "db found" true (Workloads.find "db" <> None);
  Alcotest.(check bool) "unknown rejected" true (Workloads.find "nope" = None);
  match Workloads.find "javac" with
  | Some w -> Alcotest.(check string) "name" "javac" w.Workloads.name
  | None -> Alcotest.fail "javac missing"

let test_all_build_and_collect () =
  List.iter
    (fun w ->
      let plan = w.Workloads.build ~scale:0.02 ~seed:11 in
      Alcotest.(check bool)
        (w.Workloads.name ^ " has objects")
        true
        (Plan.n_objects plan > 0);
      Alcotest.(check bool)
        (w.Workloads.name ^ " has roots")
        true
        (Plan.n_roots plan > 0);
      Alcotest.(check bool)
        (w.Workloads.name ^ " live <= total")
        true
        (Plan.live_words plan <= Plan.size_words plan);
      (* every workload includes garbage *)
      Alcotest.(check bool)
        (w.Workloads.name ^ " has garbage")
        true
        (Plan.live_words plan < Plan.size_words plan);
      let heap = Plan.materialize plan in
      let pre = Verify.snapshot heap in
      ignore (Cheney_seq.collect heap);
      match Verify.check_collection ~pre heap with
      | Ok () -> ()
      | Error f ->
        Alcotest.failf "%s: %a" w.Workloads.name Verify.pp_failure f)
    Workloads.all

let test_deterministic_in_seed () =
  let snap seed =
    let heap = Workloads.build_heap ~scale:0.02 ~seed Workloads.javacc in
    Verify.snapshot heap
  in
  Alcotest.(check bool) "same seed same graph" true
    (Verify.equal_snapshot (snap 5) (snap 5));
  Alcotest.(check bool) "different seed different graph" false
    (Verify.equal_snapshot (snap 5) (snap 6))

let test_scale_grows () =
  let objs scale =
    Plan.n_objects (Workloads.db.Workloads.build ~scale ~seed:1)
  in
  Alcotest.(check bool) "scale 0.2 > scale 0.05" true (objs 0.2 > objs 0.05)

let test_shapes () =
  (* Structural signatures that drive the paper's per-benchmark behavior. *)
  let plan name =
    (Option.get (Workloads.find name)).Workloads.build ~scale:0.05 ~seed:7
  in
  (* search: live graph is a pure chain — max pi of live objects is 1 *)
  let p = plan "search" in
  let max_live_pi = ref 0 in
  let seen = Array.make (Plan.n_objects p) false in
  let rec visit id =
    if id >= 0 && not seen.(id) then begin
      seen.(id) <- true;
      max_live_pi := max !max_live_pi (Plan.pi_of p id);
      for s = 0 to Plan.pi_of p id - 1 do
        visit (Plan.child_of p id s)
      done
    end
  in
  Array.iter visit (Plan.roots p);
  Alcotest.(check int) "search live graph is linear" 1 !max_live_pi;
  (* compress: contains a handful of large arrays *)
  let p = plan "compress" in
  let big = ref 0 in
  Plan.iter_objects p (fun id -> if Plan.delta_of p id > 50 then incr big);
  Alcotest.(check bool) "compress has large arrays" true (!big >= 3);
  (* cup: three-ish layers, tens of thousands of leaves at full scale;
     at scale 0.05 still wide *)
  let p = plan "cup" in
  Alcotest.(check bool) "cup is wide" true (Plan.n_objects p > 2000)

let test_build_heap_defaults () =
  let heap = Workloads.build_heap ~scale:0.02 Workloads.jlisp in
  Alcotest.(check bool) "heap populated" true (Heap.root_count heap > 0)

(* MD5 of a plan's whole structure: per object π, δ and child ids, then
   the roots. Data words are a fixed function of (id, slot), so this
   pins everything a generated graph is. *)
let plan_digest plan =
  let b = Buffer.create 4096 in
  let add i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  for id = 0 to Plan.n_objects plan - 1 do
    let pi = Plan.pi_of plan id in
    add pi;
    add (Plan.delta_of plan id);
    for slot = 0 to pi - 1 do
      add (Plan.child_of plan id slot)
    done;
    Buffer.add_char b '\n'
  done;
  Array.iter add (Plan.roots plan);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded from the generators as they were when Zipf draws still
   re-summed their weights per draw; any change to a generator's draws
   or to the draw order moves a digest. *)
let golden_plans =
  [
    ("compress", 1.0, "11da34a7a397d9fcb930b8f711433663");
    ("cup", 1.0, "33ac13a1eb66e145cbf7cb4de7f39c44");
    ("db", 1.0, "b8af0b784ed699eb5512f6f3968b7711");
    ("javac", 1.0, "8bc984e3572e79e26e35b84b711005a6");
    ("javacc", 1.0, "e8d9e7c1f43ba97e73090a38921b82a5");
    ("jflex", 1.0, "c7af8d281d9aafa679353a4adb227b4c");
    ("jlisp", 1.0, "c95726dda3d4c6c1e2455181d859d1f7");
    ("search", 1.0, "3f3df7deac3ca2d2e96b21be01a2cf38");
    ("compress", 0.05, "d8d56bed496266c47dc15832c88feec9");
    ("cup", 0.05, "f24be31c89abbb29f3b829f875cd4a74");
    ("db", 0.05, "877f20aaa7dd8e4866a4d77cd5d03339");
    ("javac", 0.05, "d2d6b9369c1b17efa64ba24ebf304fb6");
    ("javacc", 0.05, "84dc3374bc7ccd703b09b3824e55fdbb");
    ("jflex", 0.05, "196abd74a96b20544a8fbcdccc968fc4");
    ("jlisp", 0.05, "2edc0bec8457248657c736ba2881791a");
    ("search", 0.05, "bddd85a495d178e61d1f00bfbe5ddfc8");
  ]

let test_plan_digests () =
  List.iter
    (fun (name, scale, digest) ->
      let w = Option.get (Workloads.find name) in
      Alcotest.(check string)
        (Printf.sprintf "%s at scale %g, seed 42" name scale)
        digest
        (plan_digest (w.Workloads.build ~scale ~seed:42)))
    golden_plans

let suite =
  [
    Alcotest.test_case "names unique" `Quick test_names_unique;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "all build and collect" `Slow test_all_build_and_collect;
    Alcotest.test_case "deterministic in seed" `Quick test_deterministic_in_seed;
    Alcotest.test_case "scale grows" `Quick test_scale_grows;
    Alcotest.test_case "shape signatures" `Quick test_shapes;
    Alcotest.test_case "build_heap defaults" `Quick test_build_heap_defaults;
    Alcotest.test_case "plans bit-identical to recorded digests" `Quick
      test_plan_digests;
  ]
