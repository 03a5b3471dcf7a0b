(* Tests for the workload plan and its materialization. *)

module Plan = Hsgc_objgraph.Plan
module Heap = Hsgc_heap.Heap
module Header = Hsgc_heap.Header
module Semispace = Hsgc_heap.Semispace

let test_obj_and_sizes () =
  let p = Plan.create () in
  let a = Plan.obj p ~pi:2 ~delta:3 in
  let b = Plan.obj p ~pi:0 ~delta:0 in
  Alcotest.(check int) "ids dense" 0 a;
  Alcotest.(check int) "ids dense 2" 1 b;
  Alcotest.(check int) "n_objects" 2 (Plan.n_objects p);
  Alcotest.(check int) "size_words" (7 + 2) (Plan.size_words p);
  Alcotest.(check int) "pi_of" 2 (Plan.pi_of p a);
  Alcotest.(check int) "delta_of" 3 (Plan.delta_of p a)

let test_links () =
  let p = Plan.create () in
  let a = Plan.obj p ~pi:2 ~delta:0 in
  let b = Plan.obj p ~pi:0 ~delta:0 in
  Plan.link p ~parent:a ~slot:1 ~child:b;
  Alcotest.(check int) "linked" b (Plan.child_of p a 1);
  Alcotest.(check int) "unlinked is -1" (-1) (Plan.child_of p a 0)

let test_link_errors () =
  let p = Plan.create () in
  let a = Plan.obj p ~pi:1 ~delta:0 in
  Alcotest.check_raises "bad slot" (Invalid_argument "Plan.link: bad slot")
    (fun () -> Plan.link p ~parent:a ~slot:1 ~child:a);
  Alcotest.check_raises "bad id" (Invalid_argument "Plan: bad object id")
    (fun () -> Plan.link p ~parent:5 ~slot:0 ~child:a)

let test_child_of_bad_slot () =
  (* Slots sit end to end in one array, so an unchecked index would
     read a neighbour's slot. *)
  let p = Plan.create () in
  let a = Plan.obj p ~pi:2 ~delta:0 in
  let b = Plan.obj p ~pi:1 ~delta:0 in
  Plan.link p ~parent:b ~slot:0 ~child:a;
  List.iter
    (fun (id, slot) ->
      Alcotest.check_raises
        (Printf.sprintf "child_of %d %d" id slot)
        (Invalid_argument "Plan.child_of: bad slot")
        (fun () -> ignore (Plan.child_of p id slot)))
    [ (a, -1); (a, 2); (b, 1); (b, -1) ]

let test_roots () =
  let p = Plan.create () in
  let a = Plan.obj p ~pi:0 ~delta:0 in
  let b = Plan.obj p ~pi:0 ~delta:0 in
  Plan.add_root p a;
  Plan.add_root p b;
  Alcotest.(check (array int)) "roots in order" [| a; b |] (Plan.roots p);
  Alcotest.(check int) "n_roots" 2 (Plan.n_roots p)

let test_live_words () =
  let p = Plan.create () in
  let a = Plan.obj p ~pi:1 ~delta:1 in
  let b = Plan.obj p ~pi:0 ~delta:2 in
  let _garbage = Plan.obj p ~pi:0 ~delta:10 in
  Plan.link p ~parent:a ~slot:0 ~child:b;
  Plan.add_root p a;
  Alcotest.(check int) "live words exclude garbage" (4 + 4) (Plan.live_words p);
  Alcotest.(check int) "size words include garbage" (4 + 4 + 12) (Plan.size_words p)

let test_live_words_cycle () =
  let p = Plan.create () in
  let a = Plan.obj p ~pi:1 ~delta:0 in
  let b = Plan.obj p ~pi:1 ~delta:0 in
  Plan.link p ~parent:a ~slot:0 ~child:b;
  Plan.link p ~parent:b ~slot:0 ~child:a;
  Plan.add_root p a;
  Alcotest.(check int) "cycle counted once" 6 (Plan.live_words p)

let test_materialize_structure () =
  let p = Plan.create () in
  let a = Plan.obj p ~pi:1 ~delta:2 in
  let b = Plan.obj p ~pi:0 ~delta:1 in
  Plan.link p ~parent:a ~slot:0 ~child:b;
  Plan.add_root p a;
  let heap = Plan.materialize p in
  Alcotest.(check int) "one root" 1 (Heap.root_count heap);
  let ra = heap.Heap.roots.(0) in
  Alcotest.(check int) "root pi" 1 (Heap.obj_pi heap ra);
  let rb = Heap.get_pointer heap ra 0 in
  Alcotest.(check bool) "child linked" true (rb <> Heap.null);
  Alcotest.(check int) "child delta" 1 (Heap.obj_delta heap rb);
  (* Data filled deterministically. *)
  Alcotest.(check int) "data word" (Plan.data_word a 1) (Heap.get_data heap ra 1);
  Alcotest.(check int) "child data" (Plan.data_word b 0) (Heap.get_data heap rb 0)

let test_materialize_heap_factor () =
  let p = Plan.create () in
  ignore (Plan.obj p ~pi:0 ~delta:8);
  let h2 = Plan.materialize ~heap_factor:2.0 p in
  let h3 = Plan.materialize ~heap_factor:3.0 p in
  Alcotest.(check bool) "factor grows the space" true
    (Semispace.words (Heap.from_space h3) > Semispace.words (Heap.from_space h2));
  Alcotest.check_raises "factor below 1 rejected"
    (Invalid_argument "Plan.materialize: heap_factor < 1.0") (fun () ->
      ignore (Plan.materialize ~heap_factor:0.5 p));
  (* NaN passes a [< 1.0] test, and [int_of_float] of a NaN, infinite
     or out-of-range size is unspecified. *)
  List.iter
    (fun factor ->
      Alcotest.check_raises
        (Printf.sprintf "factor %g rejected" factor)
        (Invalid_argument "Plan.materialize: heap_factor not finite or heap too large")
        (fun () -> ignore (Plan.materialize ~heap_factor:factor p)))
    [ Float.nan; Float.infinity; 1e300 ]

let test_materialize_empty_plan () =
  let p = Plan.create () in
  let heap = Plan.materialize p in
  Alcotest.(check int) "no objects allocated" 0
    (Semispace.used (Heap.from_space heap))

let test_data_word_distinct () =
  (* Different (id, slot) pairs give different fill values in practice. *)
  let seen = Hashtbl.create 64 in
  let collisions = ref 0 in
  for id = 0 to 50 do
    for slot = 0 to 10 do
      let v = Plan.data_word id slot in
      if Hashtbl.mem seen v then incr collisions;
      Hashtbl.replace seen v ()
    done
  done;
  Alcotest.(check int) "no collisions in small range" 0 !collisions

let test_iter_objects () =
  let p = Plan.create () in
  let _ = Plan.obj p ~pi:0 ~delta:0 in
  let _ = Plan.obj p ~pi:0 ~delta:0 in
  let count = ref 0 in
  Plan.iter_objects p (fun _ -> incr count);
  Alcotest.(check int) "visits all" 2 !count

(* --- differential test against per-object allocation ------------ *)

(* The straightforward path [Plan.materialize] must match word for
   word: one [Heap.alloc] per object in id order, data words through
   [Heap.set_data], then every linked slot through [Heap.set_pointer]. *)
let reference_materialize ~heap_factor plan =
  let words =
    int_of_float (Float.ceil (float_of_int (Plan.size_words plan) *. heap_factor))
    + 64
  in
  let heap = Heap.create ~semispace_words:words in
  let n = Plan.n_objects plan in
  let addr = Array.make (max n 1) Heap.null in
  for id = 0 to n - 1 do
    match Heap.alloc heap ~pi:(Plan.pi_of plan id) ~delta:(Plan.delta_of plan id) with
    | None -> Alcotest.fail "reference heap too small"
    | Some a ->
      addr.(id) <- a;
      for slot = 0 to Plan.delta_of plan id - 1 do
        Heap.set_data heap a slot (Plan.data_word id slot)
      done
  done;
  for id = 0 to n - 1 do
    for slot = 0 to Plan.pi_of plan id - 1 do
      let child = Plan.child_of plan id slot in
      if child >= 0 then Heap.set_pointer heap addr.(id) slot addr.(child)
    done
  done;
  Heap.set_roots heap (Array.map (fun id -> addr.(id)) (Plan.roots plan));
  heap

(* A random plan: per object π and δ (both from 0, δ sometimes large),
   per slot a link kind (0 null, 1 self, 2 back, 3 forward) and a draw
   that picks the target, a few roots (repeats allowed) and a factor. *)
type spec = {
  areas : (int * int) array;
  links : (int * int) array array;
  root_ids : int list;
  factor : float;
}

let gen_spec =
  QCheck.Gen.(
    let* n = int_range 0 40 in
    let* areas =
      array_repeat n
        (pair (int_range 0 4) (frequency [ (4, int_range 0 4); (1, int_range 5 40) ]))
    in
    let* links = array_repeat n (array_repeat 4 (pair (int_range 0 3) nat)) in
    let* root_ids =
      if n = 0 then return [] else list_size (int_range 1 4) (int_range 0 (n - 1))
    in
    let* factor = float_range 1.0 4.0 in
    return { areas; links; root_ids; factor })

let plan_of_spec spec =
  let p = Plan.create () in
  let n = Array.length spec.areas in
  Array.iter (fun (pi, delta) -> ignore (Plan.obj p ~pi ~delta)) spec.areas;
  for id = 0 to n - 1 do
    for slot = 0 to fst spec.areas.(id) - 1 do
      let kind, draw = spec.links.(id).(slot) in
      let child =
        match kind with
        | 0 -> -1
        | 2 when id > 0 -> draw mod id
        | 3 when id < n - 1 -> id + 1 + (draw mod (n - 1 - id))
        | _ -> id
      in
      if child >= 0 then Plan.link p ~parent:id ~slot ~child
    done
  done;
  List.iter (Plan.add_root p) spec.root_ids;
  p

let print_spec spec =
  let p = plan_of_spec spec in
  let b = Buffer.create 256 in
  Printf.bprintf b "factor %g, roots [%s]\n" spec.factor
    (String.concat "; " (List.map string_of_int spec.root_ids));
  for id = 0 to Plan.n_objects p - 1 do
    Printf.bprintf b "%d: pi %d delta %d ->" id (Plan.pi_of p id) (Plan.delta_of p id);
    for slot = 0 to Plan.pi_of p id - 1 do
      Printf.bprintf b " %d" (Plan.child_of p id slot)
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let qcheck_materialize_matches_reference =
  QCheck.Test.make ~name:"materialize equals per-object allocation" ~count:500
    (QCheck.make ~print:print_spec gen_spec)
    (fun spec ->
      let plan = plan_of_spec spec in
      let heap_factor = spec.factor in
      let h = Plan.materialize ~heap_factor plan in
      let r = reference_materialize ~heap_factor plan in
      h.Heap.mem = r.Heap.mem
      && h.Heap.space_a.Semispace.free = r.Heap.space_a.Semispace.free
      && h.Heap.space_b.Semispace.free = r.Heap.space_b.Semispace.free
      && h.Heap.a_is_current = r.Heap.a_is_current
      && h.Heap.roots = r.Heap.roots)

let suite =
  [
    Alcotest.test_case "obj and sizes" `Quick test_obj_and_sizes;
    Alcotest.test_case "links" `Quick test_links;
    Alcotest.test_case "link errors" `Quick test_link_errors;
    Alcotest.test_case "child_of bad slot" `Quick test_child_of_bad_slot;
    Alcotest.test_case "roots" `Quick test_roots;
    Alcotest.test_case "live words" `Quick test_live_words;
    Alcotest.test_case "live words with cycle" `Quick test_live_words_cycle;
    Alcotest.test_case "materialize structure" `Quick test_materialize_structure;
    Alcotest.test_case "materialize heap factor" `Quick test_materialize_heap_factor;
    Alcotest.test_case "materialize empty plan" `Quick test_materialize_empty_plan;
    Alcotest.test_case "data_word distinct" `Quick test_data_word_distinct;
    Alcotest.test_case "iter_objects" `Quick test_iter_objects;
    QCheck_alcotest.to_alcotest qcheck_materialize_matches_reference;
  ]
