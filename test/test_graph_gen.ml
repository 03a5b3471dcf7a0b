(* Tests for the graph shape builders. *)

module Plan = Hsgc_objgraph.Plan
module Graph_gen = Hsgc_objgraph.Graph_gen
module Rng = Hsgc_util.Rng
module Header = Hsgc_heap.Header

(* Count reachable objects from a given id. *)
let reachable_count plan root =
  let n = Plan.n_objects plan in
  let seen = Array.make n false in
  let rec visit id acc =
    if id < 0 || seen.(id) then acc
    else begin
      seen.(id) <- true;
      let acc = ref (acc + 1) in
      for s = 0 to Plan.pi_of plan id - 1 do
        acc := visit (Plan.child_of plan id s) !acc
      done;
      !acc
    end
  in
  visit root 0

let test_chain () =
  let p = Plan.create () in
  let head, tail = Graph_gen.chain p ~n:10 ~pi:1 ~delta:2 in
  Alcotest.(check int) "10 objects" 10 (Plan.n_objects p);
  Alcotest.(check int) "all reachable from head" 10 (reachable_count p head);
  Alcotest.(check int) "tail terminates" (-1) (Plan.child_of p tail 0);
  (* walk the chain *)
  let rec walk id len =
    match Plan.child_of p id 0 with -1 -> len | next -> walk next (len + 1)
  in
  Alcotest.(check int) "length" 10 (walk head 1)

let test_chain_single () =
  let p = Plan.create () in
  let head, tail = Graph_gen.chain p ~n:1 ~pi:1 ~delta:0 in
  Alcotest.(check int) "head = tail" head tail

let test_chain_with_payload () =
  let p = Plan.create () in
  let head, _ =
    Graph_gen.chain_with_payload p ~n:6 ~node_delta:1 ~payload_pi:0
      ~payload_delta:2 ()
  in
  Alcotest.(check int) "nodes + payloads" 12 (Plan.n_objects p);
  Alcotest.(check int) "all reachable" 12 (reachable_count p head)

let test_chain_with_payload_every () =
  let p = Plan.create () in
  let head, _ =
    Graph_gen.chain_with_payload p ~n:6 ~every:3 ~node_delta:0 ~payload_pi:0
      ~payload_delta:1 ()
  in
  Alcotest.(check int) "6 nodes + 2 payloads" 8 (Plan.n_objects p);
  Alcotest.(check int) "all reachable" 8 (reachable_count p head)

let test_star () =
  let p = Plan.create () in
  let hub, children = Graph_gen.star p ~fanout:5 ~child_pi:0 ~child_delta:1 in
  Alcotest.(check int) "5 children" 5 (Array.length children);
  Alcotest.(check int) "hub pi" 5 (Plan.pi_of p hub);
  Alcotest.(check int) "all reachable" 6 (reachable_count p hub)

let test_layered_coverage () =
  let p = Plan.create () in
  let rng = Rng.create 1 in
  let hub = Graph_gen.layered p rng ~widths:[| 3; 12; 24 |] ~delta:1 in
  (* hub + 3 + 12 + 24 objects, all reachable *)
  Alcotest.(check int) "all objects" 40 (Plan.n_objects p);
  Alcotest.(check int) "full coverage" 40 (reachable_count p hub)

let test_layered_leaves () =
  let p = Plan.create () in
  let rng = Rng.create 1 in
  let _ = Graph_gen.layered p rng ~widths:[| 2; 4 |] ~delta:3 in
  (* Last layer objects have pi = 0. *)
  let leaves = ref 0 in
  Plan.iter_objects p (fun id ->
      if Plan.pi_of p id = 0 then incr leaves);
  Alcotest.(check int) "4 leaves" 4 !leaves

let test_random_tree () =
  let p = Plan.create () in
  let rng = Rng.create 2 in
  let root =
    Graph_gen.random_tree p rng ~n:50 ~max_fanout:3 ~delta_min:1 ~delta_max:4 ()
  in
  Alcotest.(check int) "50 nodes" 50 (Plan.n_objects p);
  Alcotest.(check int) "tree fully reachable" 50 (reachable_count p root);
  (* It is a tree: each node except the root has exactly one parent. *)
  let indeg = Array.make 50 0 in
  Plan.iter_objects p (fun id ->
      for s = 0 to Plan.pi_of p id - 1 do
        let c = Plan.child_of p id s in
        if c >= 0 then indeg.(c) <- indeg.(c) + 1
      done);
  Alcotest.(check int) "root has no parent" 0 indeg.(root);
  Plan.iter_objects p (fun id ->
      if id <> root then Alcotest.(check int) "single parent" 1 indeg.(id))

let test_random_tree_reserved_slots () =
  let p = Plan.create () in
  let rng = Rng.create 3 in
  let root =
    Graph_gen.random_tree p rng ~n:40 ~max_fanout:3 ~reserve_slots:1
      ~delta_min:0 ~delta_max:0 ()
  in
  (* The last slot of every node is never used by the tree. *)
  Plan.iter_objects p (fun id ->
      if id >= root && id < root + 40 then begin
        let pi = Plan.pi_of p id in
        Alcotest.(check int) "reserved slot free" (-1) (Plan.child_of p id (pi - 1))
      end)

let test_caterpillar () =
  let p = Plan.create () in
  let rng = Rng.create 4 in
  let head = Graph_gen.caterpillar p rng ~backbone:5 ~tuft:4 ~delta:1 in
  (* 5 backbone nodes, each with a 4-node tuft. *)
  Alcotest.(check int) "objects" (5 * 5) (Plan.n_objects p);
  Alcotest.(check int) "fully reachable" 25 (reachable_count p head)

let test_zipf_pool_skew () =
  let p = Plan.create () in
  let rng = Rng.create 5 in
  let clients = Array.init 2000 (fun _ -> Plan.obj p ~pi:1 ~delta:0) in
  let pool =
    Graph_gen.zipf_pool p rng
      ~clients:(Array.map (fun id -> Graph_gen.slot_ref ~id ~slot:0) clients)
      ~pool:10 ~s:1.5
  in
  Alcotest.(check int) "pool created" 10 (Array.length pool);
  let indeg = Hashtbl.create 10 in
  Array.iter (fun c ->
      let target = Plan.child_of p c 0 in
      Alcotest.(check bool) "client linked" true (target >= 0);
      Hashtbl.replace indeg target
        (1 + Option.value ~default:0 (Hashtbl.find_opt indeg target)))
    clients;
  let counts =
    Array.map (fun id -> Option.value ~default:0 (Hashtbl.find_opt indeg id)) pool
  in
  let hottest = Array.fold_left max 0 counts in
  Alcotest.(check bool) "top symbol dominates (>25%)" true (hottest > 500)

let test_zipf_pool_wide_client () =
  (* A client slot is packed with its object id: any slot of an object
     with the largest π a header holds must survive the packing. *)
  let p = Plan.create () in
  let rng = Rng.create 8 in
  let pi = Header.max_area in
  let wide = Plan.obj p ~pi ~delta:0 in
  let narrow = Plan.obj p ~pi:1 ~delta:0 in
  let clients =
    [| Graph_gen.slot_ref ~id:wide ~slot:(pi - 1); Graph_gen.slot_ref ~id:narrow ~slot:0 |]
  in
  let pool = Graph_gen.zipf_pool p rng ~clients ~pool:1 ~s:1.0 in
  Alcotest.(check int) "last slot of the widest object" pool.(0)
    (Plan.child_of p wide (pi - 1));
  Alcotest.(check int) "slot 0 untouched" (-1) (Plan.child_of p wide 0);
  Alcotest.(check int) "next object's slot" pool.(0) (Plan.child_of p narrow 0)

let test_garbage_unreachable () =
  let p = Plan.create () in
  let rng = Rng.create 6 in
  let root = Plan.obj p ~pi:0 ~delta:1 in
  Plan.add_root p root;
  Graph_gen.garbage p rng ~n:30 ~max_pi:2 ~max_delta:4;
  Alcotest.(check int) "31 objects total" 31 (Plan.n_objects p);
  Alcotest.(check int) "live words only the root" 3 (Plan.live_words p)

let test_invalid_args () =
  let p = Plan.create () in
  Alcotest.check_raises "chain n=0"
    (Invalid_argument "Graph_gen.chain: n must be positive") (fun () ->
      ignore (Graph_gen.chain p ~n:0 ~pi:1 ~delta:0));
  Alcotest.check_raises "chain pi=0"
    (Invalid_argument "Graph_gen.chain: pi must be >= 1") (fun () ->
      ignore (Graph_gen.chain p ~n:3 ~pi:0 ~delta:0))

let suite =
  [
    Alcotest.test_case "chain" `Quick test_chain;
    Alcotest.test_case "chain single" `Quick test_chain_single;
    Alcotest.test_case "chain with payload" `Quick test_chain_with_payload;
    Alcotest.test_case "payload every k" `Quick test_chain_with_payload_every;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "layered coverage" `Quick test_layered_coverage;
    Alcotest.test_case "layered leaves" `Quick test_layered_leaves;
    Alcotest.test_case "random tree" `Quick test_random_tree;
    Alcotest.test_case "random tree reserved slots" `Quick
      test_random_tree_reserved_slots;
    Alcotest.test_case "caterpillar" `Quick test_caterpillar;
    Alcotest.test_case "zipf pool skew" `Quick test_zipf_pool_skew;
    Alcotest.test_case "zipf pool wide client" `Quick test_zipf_pool_wide_client;
    Alcotest.test_case "garbage unreachable" `Quick test_garbage_unreachable;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
  ]
