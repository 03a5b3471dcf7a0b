(* Tests for snapshots and post-collection verification. *)

module Heap = Hsgc_heap.Heap
module Header = Hsgc_heap.Header
module Semispace = Hsgc_heap.Semispace
module Verify = Hsgc_heap.Verify
module Cheney_seq = Hsgc_core.Cheney_seq
module Coprocessor = Hsgc_coproc.Coprocessor
module Plan = Hsgc_objgraph.Plan
module Graph_gen = Hsgc_objgraph.Graph_gen
module Workloads = Hsgc_objgraph.Workloads
module Rng = Hsgc_util.Rng

(* A snapshot object by object, the form [Verify]'s flat one encodes:
   each object's shape, child ids and data words. *)
type desc = { pi : int; delta : int; children : int array; data : int array }
type per_object = { objects : desc array; root_ids : int array }

(* The one conversion from [Verify.snapshot]'s flat form, which must
   hold exactly its objects' words. *)
let per_object (s : Verify.snapshot) =
  let word i = Int64.to_int (Bytes.get_int64_ne s.words (8 * i)) in
  let at = ref 0 in
  let objects =
    Array.map
      (fun (d : Verify.obj_desc) ->
        let body = !at in
        at := body + d.pi + d.delta;
        {
          pi = d.pi;
          delta = d.delta;
          children = Array.init d.pi (fun i -> word (body + i));
          data = Array.init d.delta (fun j -> word (body + d.pi + j));
        })
      s.objects
  in
  if 8 * !at <> Bytes.length s.words then
    failwith
      (Printf.sprintf "snapshot words: %d bytes for objects of %d words"
         (Bytes.length s.words) !at);
  { objects; root_ids = s.root_ids }

(* The verifier as it was before the direct-address rewrite, kept as the
   differential oracle: a Hashtbl/Queue BFS snapshot object by object,
   polymorphic structural equality, and the check composed from the
   two. *)
module Reference = struct
  let snapshot heap =
    let ids = Hashtbl.create 1024 in
    let order = ref [] in
    let count = ref 0 in
    let queue = Queue.create () in
    let id_of obj =
      if obj = Heap.null then -1
      else
        match Hashtbl.find_opt ids obj with
        | Some id -> id
        | None ->
          let id = !count in
          incr count;
          Hashtbl.add ids obj id;
          order := obj :: !order;
          Queue.add obj queue;
          id
    in
    let root_ids = Array.map id_of heap.Heap.roots in
    let descs = ref [] in
    while not (Queue.is_empty queue) do
      let obj = Queue.pop queue in
      let pi = Heap.obj_pi heap obj in
      let delta = Heap.obj_delta heap obj in
      let children =
        Array.init pi (fun i -> id_of (Heap.get_pointer heap obj i))
      in
      let data = Array.init delta (fun i -> Heap.get_data heap obj i) in
      descs := { pi; delta; children; data } :: !descs
    done;
    { objects = Array.of_list (List.rev !descs); root_ids }

  let equal_desc a b =
    a.pi = b.pi && a.delta = b.delta && a.children = b.children
    && a.data = b.data

  let equal_snapshot a b =
    a.root_ids = b.root_ids
    && Array.length a.objects = Array.length b.objects
    && Array.for_all2 equal_desc a.objects b.objects

  let check_collection ~(pre : Verify.snapshot) heap =
    match Verify.check_space heap with
    | Error _ as e -> e
    | Ok () ->
      let pre = per_object pre in
      if not (equal_snapshot pre (snapshot heap)) then
        Error (Verify.Graph_mismatch "")
      else
        let live =
          Array.fold_left
            (fun acc d -> acc + Header.size_of ~pi:d.pi ~delta:d.delta)
            0 pre.objects
        in
        if live <> Semispace.used (Heap.from_space heap) then
          Error (Verify.Not_compacted "")
        else Ok ()
end

let alloc_exn heap ~pi ~delta =
  match Heap.alloc heap ~pi ~delta with
  | Some a -> a
  | None -> Alcotest.fail "allocation failed"

(* Two heaps with the same abstract graph built in different allocation
   orders. *)
let build_pair () =
  let build order =
    let heap = Heap.create ~semispace_words:100 in
    let mk (pi, delta) = alloc_exn heap ~pi ~delta in
    match order with
    | `Forward ->
      let r = mk (2, 1) in
      let a = mk (1, 0) in
      let b = mk (0, 2) in
      Heap.set_pointer heap r 0 a;
      Heap.set_pointer heap r 1 b;
      Heap.set_pointer heap a 0 b;
      Heap.set_data heap r 0 7;
      Heap.set_data heap b 0 8;
      Heap.set_data heap b 1 9;
      Heap.set_roots heap [| r |];
      heap
    | `Backward ->
      let b = mk (0, 2) in
      let a = mk (1, 0) in
      let r = mk (2, 1) in
      Heap.set_pointer heap r 0 a;
      Heap.set_pointer heap r 1 b;
      Heap.set_pointer heap a 0 b;
      Heap.set_data heap r 0 7;
      Heap.set_data heap b 0 8;
      Heap.set_data heap b 1 9;
      Heap.set_roots heap [| r |];
      heap
  in
  (build `Forward, build `Backward)

let test_snapshot_address_independent () =
  let h1, h2 = build_pair () in
  let s1 = Verify.snapshot h1 and s2 = Verify.snapshot h2 in
  Alcotest.(check bool) "isomorphic graphs have equal snapshots" true
    (Verify.equal_snapshot s1 s2)

let test_snapshot_detects_data_change () =
  let h1, h2 = build_pair () in
  let s1 = Verify.snapshot h1 in
  (* mutate one data word in h2's b object *)
  Heap.iter_objects h2 (Heap.from_space h2) (fun o ->
      if Heap.obj_delta h2 o = 2 then Heap.set_data h2 o 0 999);
  let s2 = Verify.snapshot h2 in
  Alcotest.(check bool) "data change detected" false (Verify.equal_snapshot s1 s2)

let test_snapshot_detects_shape_change () =
  let h1, h2 = build_pair () in
  let s1 = Verify.snapshot h1 in
  (* re-point r slot 0 at b instead of a: a becomes unreachable *)
  Heap.iter_objects h2 (Heap.from_space h2) (fun o ->
      if Heap.obj_pi h2 o = 2 then
        Heap.set_pointer h2 o 0 (Heap.get_pointer h2 o 1));
  let s2 = Verify.snapshot h2 in
  Alcotest.(check bool) "shape change detected" false (Verify.equal_snapshot s1 s2)

let test_snapshot_root_order_matters () =
  let heap = Heap.create ~semispace_words:100 in
  let a = alloc_exn heap ~pi:0 ~delta:0 in
  let b = alloc_exn heap ~pi:0 ~delta:1 in
  Heap.set_roots heap [| a; b |];
  let s1 = Verify.snapshot heap in
  Heap.set_roots heap [| b; a |];
  let s2 = Verify.snapshot heap in
  Alcotest.(check bool) "root order is part of the graph" false
    (Verify.equal_snapshot s1 s2)

let test_check_collection_ok () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  match Verify.check_collection ~pre h with
  | Ok () -> ()
  | Error f -> Alcotest.failf "unexpected failure: %a" Verify.pp_failure f

let expect_failure ~pre heap msg =
  match Verify.check_collection ~pre heap with
  | Ok () -> Alcotest.failf "expected %s failure" msg
  | Error _ -> ()

let test_check_detects_corrupted_copy () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  (* corrupt a data word in the new space *)
  let space = Heap.from_space h in
  Heap.iter_objects h space (fun o ->
      if Heap.obj_delta h o = 2 then Heap.set_data h o 1 31337);
  expect_failure ~pre h "graph-mismatch"

let test_check_detects_non_black () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  let space = Heap.from_space h in
  let first = space.Semispace.base in
  Heap.set_header0 h first (Header.with_state (Heap.header0 h first) Header.Gray);
  expect_failure ~pre h "bad-state"

let test_check_detects_dangling () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  let space = Heap.from_space h in
  (* point some pointer slot back into the old space *)
  Heap.iter_objects h space (fun o ->
      if Heap.obj_pi h o = 2 then
        Heap.set_pointer h o 0 (Heap.to_space h).Semispace.base);
  expect_failure ~pre h "dangling-pointer"

let test_check_detects_gap () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  (* pretend more words are used than the live data *)
  let space = Heap.from_space h in
  space.Semispace.free <- space.Semispace.free + 2;
  expect_failure ~pre h "not-compacted"

let test_empty_heap_snapshot () =
  let h = Heap.create ~semispace_words:50 in
  let s = Verify.snapshot h in
  Alcotest.(check int) "no objects" 0 (Array.length s.Verify.objects);
  let pre = s in
  ignore (Cheney_seq.collect h);
  match Verify.check_collection ~pre h with
  | Ok () -> ()
  | Error f -> Alcotest.failf "empty heap should verify: %a" Verify.pp_failure f

(* The collected [build_pair] heap: r (pi 2, delta 1) -> a, b;
   a (pi 1) -> b; b (delta 2). Cheney copies in BFS order, so the new
   space holds r, a, b at increasing addresses and ids 0, 1, 2. *)
let collected_pair () =
  let h, _ = build_pair () in
  let pre = Verify.snapshot h in
  ignore (Cheney_seq.collect h);
  let objs = ref [] in
  Heap.iter_objects h (Heap.from_space h) (fun o -> objs := o :: !objs);
  match List.rev !objs with
  | [ r; a; b ] ->
    Alcotest.(check (list int)) "r, a, b shapes" [ 2; 1; 0 ]
      [ Heap.obj_pi h r; Heap.obj_pi h a; Heap.obj_pi h b ];
    (h, pre, r, a, b)
  | objs -> Alcotest.failf "expected 3 objects, found %d" (List.length objs)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let failure = Alcotest.testable Verify.pp_failure ( = )

let check_failure what expected got =
  Alcotest.(check (result unit failure)) what (Error expected) got

let test_misaligned_into_body () =
  let h, pre, r, a, _ = collected_pair () in
  Heap.set_pointer h r 0 (a + 1);
  check_failure "pointer into a body"
    (Verify.Misaligned_pointer { obj = r; slot = 0; target = a + 1 })
    (Verify.check_collection ~pre h)

let test_misaligned_past_free () =
  let h, pre, _, a, _ = collected_pair () in
  let space = Heap.from_space h in
  let target = space.Semispace.free + 3 in
  Alcotest.(check bool) "target inside the space" true
    (Semispace.contains space target);
  Heap.set_pointer h a 0 target;
  check_failure "pointer into [free, limit)"
    (Verify.Misaligned_pointer { obj = a; slot = 0; target })
    (Verify.check_collection ~pre h)

let test_undecodable_header () =
  let h, pre, _, a, _ = collected_pair () in
  let word = Heap.header0 h a lor 3 in
  Heap.set_header0 h a word;
  check_failure "state tag 3" (Verify.Undecodable_header { obj = a; word })
    (Verify.check_collection ~pre h)

let test_size_overrun () =
  let h, pre, _, _, b = collected_pair () in
  Heap.set_header0 h b (Header.encode ~state:Black ~pi:0 ~delta:3);
  match Verify.check_collection ~pre h with
  | Error (Verify.Not_compacted msg) ->
    Alcotest.(check bool) ("overrun reported: " ^ msg) true
      (contains ~sub:"overruns" msg)
  | r ->
    Alcotest.failf "expected Not_compacted, got %a"
      Alcotest.(pp (result unit failure))
      r

let test_free_outside_space () =
  let h, pre, _, _, _ = collected_pair () in
  let space = Heap.from_space h in
  space.Semispace.free <- space.Semispace.limit + 5;
  (match Verify.check_collection ~pre h with
  | Error (Verify.Not_compacted _) -> ()
  | r ->
    Alcotest.failf "free past the limit: expected Not_compacted, got %a"
      Alcotest.(pp (result unit failure))
      r);
  ignore (Verify.snapshot h)

let test_bad_roots () =
  let h, pre, _, a, _ = collected_pair () in
  let roots = Array.copy h.Heap.roots in
  Heap.set_roots h [| a + 1 |];
  check_failure "root into a body"
    (Verify.Misaligned_pointer { obj = Heap.null; slot = 0; target = a + 1 })
    (Verify.check_collection ~pre h);
  let stale = (Heap.to_space h).Semispace.base in
  Heap.set_roots h [| roots.(0); stale |];
  check_failure "root into the old space"
    (Verify.Dangling_pointer { obj = Heap.null; slot = 1; target = stale })
    (Verify.check_collection ~pre h)

(* Two defects: the lower-addressed holder is reported, whatever the
   defects' kinds; a parse defect beats any pointer defect. *)
let test_lowest_defect_reported () =
  let stale h = (Heap.to_space h).Semispace.base in
  let h, pre, r, a, b = collected_pair () in
  Heap.set_pointer h r 1 (b + 1);
  Heap.set_pointer h a 0 (stale h);
  check_failure "misaligned in r before dangling in a"
    (Verify.Misaligned_pointer { obj = r; slot = 1; target = b + 1 })
    (Verify.check_collection ~pre h);
  let h, pre, r, a, b = collected_pair () in
  Heap.set_pointer h r 1 (stale h);
  Heap.set_pointer h a 0 (b + 1);
  check_failure "dangling in r before misaligned in a"
    (Verify.Dangling_pointer { obj = r; slot = 1; target = stale h })
    (Verify.check_collection ~pre h);
  let h, pre, r, _, b = collected_pair () in
  Heap.set_pointer h r 0 (b + 1);
  let word = Heap.header0 h b lor 3 in
  Heap.set_header0 h b word;
  check_failure "parse defect in b before pointer defect in r"
    (Verify.Undecodable_header { obj = b; word })
    (Verify.check_collection ~pre h)

let mismatch_of ~pre h =
  match Verify.check_collection ~pre h with
  | Error (Verify.Graph_mismatch msg) -> msg
  | r ->
    Alcotest.failf "expected a graph mismatch, got %a"
      Alcotest.(pp (result unit failure))
      r

let test_mismatch_names_the_difference () =
  let expect what ~sub msg =
    if not (contains ~sub msg) then
      Alcotest.failf "%s: %S does not mention %S" what msg sub
  in
  let h, pre, _, _, b = collected_pair () in
  Heap.set_data h b 1 0x7a69;
  expect "data" ~sub:"object #2: data word 1: 0x9 -> 0x7a69" (mismatch_of ~pre h);
  let h, pre, r, a, _ = collected_pair () in
  Heap.set_pointer h r 1 a;
  expect "child" ~sub:"object #0: child slot 1: id 2 -> 1" (mismatch_of ~pre h);
  (* Same footprint, so the space still parses: a's pointer becomes data. *)
  let h, pre, _, a, _ = collected_pair () in
  Heap.set_header0 h a (Header.encode ~state:Black ~pi:0 ~delta:1);
  expect "pi" ~sub:"object #1: pi 1 -> 0" (mismatch_of ~pre h);
  let h, pre, _, _, _ = collected_pair () in
  Heap.set_roots h [| Heap.null |];
  expect "root" ~sub:"root slot 0: id 0 -> -1" (mismatch_of ~pre h);
  let h, pre, r, _, _ = collected_pair () in
  Heap.set_roots h [| r; r |];
  expect "root count" ~sub:"root count 1 -> 2" (mismatch_of ~pre h);
  let h, pre, _, _, _ = collected_pair () in
  (* An extra empty object adds no words; dropping the last object drops
     its words too. *)
  let extra = { Verify.pi = 0; delta = 0 } in
  let longer = { pre with Verify.objects = Array.append pre.Verify.objects [| extra |] } in
  expect "object count" ~sub:"object count 4 -> 3" (mismatch_of ~pre:longer h);
  let kept = Array.sub pre.Verify.objects 0 2 in
  let kept_words =
    Array.fold_left (fun acc (d : Verify.obj_desc) -> acc + d.pi + d.delta) 0 kept
  in
  let shorter =
    { pre with Verify.objects = kept; words = Bytes.sub pre.Verify.words 0 (8 * kept_words) }
  in
  expect "object count" ~sub:"object count 2 -> at least 3"
    (mismatch_of ~pre:shorter h)

(* --- differential oracle ------------------------------------------ *)

(* Random trees, layered fans and chains with interleaved garbage, plus
   a few extra links for sharing and cycles. *)
let random_plan rng =
  let plan = Plan.create () in
  for _ = 0 to Rng.int rng 3 do
    let root =
      match Rng.int rng 3 with
      | 0 ->
        Graph_gen.random_tree plan rng
          ~n:(1 + Rng.int rng 60)
          ~max_fanout:(1 + Rng.int rng 4)
          ~reserve_slots:1 ~delta_min:0 ~delta_max:3 ()
      | 1 ->
        Graph_gen.layered plan rng
          ~widths:(Array.init (1 + Rng.int rng 3) (fun _ -> 1 + Rng.int rng 8))
          ~delta:(Rng.int rng 3)
      | _ ->
        fst
          (Graph_gen.chain plan
             ~n:(1 + Rng.int rng 40)
             ~pi:(1 + Rng.int rng 2)
             ~delta:(Rng.int rng 3))
    in
    Plan.add_root plan root;
    Graph_gen.garbage plan rng ~n:(Rng.int rng 20) ~max_pi:2 ~max_delta:4
  done;
  let n = Plan.n_objects plan in
  for _ = 1 to Rng.int rng 10 do
    let id = Rng.int rng n in
    let pi = Plan.pi_of plan id in
    if pi > 0 then begin
      let slot = Rng.int rng pi in
      if Plan.child_of plan id slot < 0 then
        Plan.link plan ~parent:id ~slot ~child:(Rng.int rng n)
    end
  done;
  plan

(* One random single-word mutation of a collected heap (or none): a
   pointer slot or root redirected to null, another object, a body word,
   the unused tail of the space or the old space; a data word or a
   header bit flipped. *)
let mutate rng heap =
  let space = Heap.from_space heap in
  let objs = ref [] in
  Heap.iter_objects heap space (fun o -> objs := o :: !objs);
  let objs = Array.of_list !objs in
  let pick () = objs.(Rng.int rng (Array.length objs)) in
  let target () =
    match Rng.int rng 5 with
    | 0 -> Heap.null
    | 1 -> pick ()
    | 2 ->
      let o = pick () in
      o + 1 + Rng.int rng (Heap.obj_size heap o - 1)
    | 3 ->
      space.Semispace.free
      + Rng.int rng (max 1 (space.Semispace.limit - space.Semispace.free))
    | _ -> (Heap.to_space heap).Semispace.base + Rng.int rng 8
  in
  let with_field has f =
    let holders = List.filter has (Array.to_list objs) in
    if holders <> [] then f (List.nth holders (Rng.int rng (List.length holders)))
  in
  if Array.length objs > 0 then
    match Rng.int rng 5 with
    | 0 -> ()
    | 1 ->
      with_field
        (fun o -> Heap.obj_pi heap o > 0)
        (fun o -> Heap.set_pointer heap o (Rng.int rng (Heap.obj_pi heap o)) (target ()))
    | 2 ->
      with_field
        (fun o -> Heap.obj_delta heap o > 0)
        (fun o ->
          let j = Rng.int rng (Heap.obj_delta heap o) in
          Heap.set_data heap o j (Heap.get_data heap o j lxor (1 lsl Rng.int rng 40)))
    | 3 ->
      let o = pick () in
      Heap.set_header0 heap o (Heap.header0 heap o lxor (1 lsl Rng.int rng 42))
    | _ ->
      let roots = heap.Heap.roots in
      if Array.length roots > 0 then roots.(Rng.int rng (Array.length roots)) <- target ()

let outcome = function
  | Ok () -> "ok"
  | Error (Verify.Graph_mismatch _) -> "graph-mismatch"
  | Error (Verify.Not_compacted _) -> "not-compacted"
  | Error (Verify.Bad_state _) -> "bad-state"
  | Error (Verify.Undecodable_header _) -> "undecodable-header"
  | Error (Verify.Dangling_pointer _) -> "dangling-pointer"
  | Error (Verify.Misaligned_pointer _) -> "misaligned-pointer"

(* A broken heap may send either snapshot out of the memory array. *)
let try_snapshot snap heap =
  match snap heap with s -> Some s | exception Invalid_argument _ -> None

let qcheck_differential =
  QCheck.Test.make ~name:"verifier agrees with the reference on mutated heaps"
    ~count:150 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let plan = random_plan rng in
      let collectors =
        [
          ("cheney", fun heap -> ignore (Cheney_seq.collect heap));
          ( "coprocessor",
            let n_cores = 1 + Rng.int rng 8 in
            fun heap ->
              ignore (Coprocessor.collect (Coprocessor.config ~n_cores ()) heap) );
        ]
      in
      List.iter
        (fun (name, collect) ->
          let heap = Plan.materialize plan in
          let pre = Verify.snapshot heap in
          if per_object pre <> Reference.snapshot heap then
            QCheck.Test.fail_reportf "%s: pre snapshots differ" name;
          collect heap;
          mutate rng heap;
          if
            Option.map per_object (try_snapshot Verify.snapshot heap)
            <> try_snapshot Reference.snapshot heap
          then QCheck.Test.fail_reportf "%s: post snapshots differ" name;
          let got = outcome (Verify.check_collection ~pre heap) in
          let want = outcome (Reference.check_collection ~pre heap) in
          if got <> want then
            QCheck.Test.fail_reportf "%s: check_collection %s, reference %s" name
              got want)
        collectors;
      true)

(* A stray pointer to the last word of memory: its header word is the
   zero of the unused tail, so it decodes as an object with no body, and
   its (empty) data area starts past the end of the array. Both
   snapshots must read it as that empty object, and both verifiers must
   give the same verdict. *)
let test_pointer_to_last_word () =
  let h, pre, r, _, _ = collected_pair () in
  let last = Heap.length h.Heap.mem - 1 in
  Alcotest.(check int) "last word is an unused zero" 0 h.Heap.mem.{last};
  Heap.set_pointer h r 0 last;
  (match (try_snapshot Verify.snapshot h, try_snapshot Reference.snapshot h) with
  | Some got, Some want ->
    if not (Reference.equal_snapshot (per_object got) want) then
      Alcotest.fail "snapshots of the stray pointer differ"
  | None, _ -> Alcotest.fail "Verify.snapshot rejected the stray pointer"
  | Some _, None -> Alcotest.fail "reference snapshot rejected the stray pointer");
  Alcotest.(check string)
    "same verdict as the reference"
    (outcome (Reference.check_collection ~pre h))
    (outcome (Verify.check_collection ~pre h))

(* Verifying a correct collection allocates only fixed-size scratch on
   the minor heap: the id table, the BFS queue and the start bitmap are
   heap-sized, so they go straight to the major heap. *)
let test_check_allocation () =
  List.iter
    (fun w ->
      let heap = Workloads.build_heap ~scale:0.3 ~seed:42 w in
      let pre = Verify.snapshot heap in
      ignore (Cheney_seq.collect heap);
      let before = Gc.minor_words () in
      let result = Verify.check_collection ~pre heap in
      let words = Gc.minor_words () -. before in
      Alcotest.(check (result unit failure)) (w.Workloads.name ^ " verifies") (Ok ()) result;
      if words > 1024. then
        Alcotest.failf "%s: check_collection allocated %.0f minor words"
          w.Workloads.name words)
    Workloads.all

(* A snapshot allocates no block per object: its scratch and its words
   are [Bytes] that go straight to the major heap, and every object of a
   common shape shares one descriptor. *)
let test_snapshot_allocation () =
  List.iter
    (fun w ->
      let heap = Workloads.build_heap ~scale:0.3 ~seed:42 w in
      let before = Gc.minor_words () in
      let s = Verify.snapshot heap in
      let words = Gc.minor_words () -. before in
      if words > 1024. then
        Alcotest.failf "%s: a snapshot of %d objects allocated %.0f minor words"
          w.Workloads.name (Array.length s.Verify.objects) words)
    Workloads.all

let suite =
  [
    Alcotest.test_case "snapshot address independent" `Quick
      test_snapshot_address_independent;
    Alcotest.test_case "snapshot detects data change" `Quick
      test_snapshot_detects_data_change;
    Alcotest.test_case "snapshot detects shape change" `Quick
      test_snapshot_detects_shape_change;
    Alcotest.test_case "snapshot root order" `Quick test_snapshot_root_order_matters;
    Alcotest.test_case "check_collection ok" `Quick test_check_collection_ok;
    Alcotest.test_case "detects corrupted copy" `Quick test_check_detects_corrupted_copy;
    Alcotest.test_case "detects non-black object" `Quick test_check_detects_non_black;
    Alcotest.test_case "detects dangling pointer" `Quick test_check_detects_dangling;
    Alcotest.test_case "detects compaction gap" `Quick test_check_detects_gap;
    Alcotest.test_case "empty heap" `Quick test_empty_heap_snapshot;
    Alcotest.test_case "misaligned: pointer into a body" `Quick
      test_misaligned_into_body;
    Alcotest.test_case "misaligned: pointer past the last object" `Quick
      test_misaligned_past_free;
    Alcotest.test_case "undecodable header (state tag 3)" `Quick
      test_undecodable_header;
    Alcotest.test_case "object overruns free" `Quick test_size_overrun;
    Alcotest.test_case "free outside the space" `Quick test_free_outside_space;
    Alcotest.test_case "roots must land on object starts" `Quick test_bad_roots;
    Alcotest.test_case "lowest-address defect reported" `Quick
      test_lowest_defect_reported;
    Alcotest.test_case "graph mismatch names the first difference" `Quick
      test_mismatch_names_the_difference;
    QCheck_alcotest.to_alcotest qcheck_differential;
    Alcotest.test_case "stray pointer to the last word of memory" `Quick
      test_pointer_to_last_word;
    Alcotest.test_case "check_collection allocation is bounded" `Quick
      test_check_allocation;
    Alcotest.test_case "snapshot allocation is bounded" `Quick
      test_snapshot_allocation;
  ]
