module Rng = Hsgc_util.Rng

type t = {
  name : string;
  description : string;
  build : scale:float -> seed:int -> Plan.t;
}

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

(* Roughly a quarter of allocated objects are dead at collection time in
   every workload: the collector must skip them. *)
let with_garbage plan rng ~live_objects =
  Graph_gen.garbage plan rng ~n:(live_objects / 4) ~max_pi:2 ~max_delta:6

let compress =
  {
    name = "compress";
    description =
      "linear compression pipeline: a width-2 chain of buffers plus a few \
       large arrays; almost no object-level parallelism";
    build =
      (fun ~scale ~seed ->
        let plan = Plan.create () in
        let rng = Rng.create seed in
        let n = scaled scale 10_000 in
        (* Tiny nodes: the next-pointer discovery latency is most of a
           node's processing time, so the chain itself supports barely
           more than one core; the payload leaf feeds a second. *)
        let head, _tail =
          Graph_gen.chain_with_payload plan ~n ~every:2 ~node_delta:0 ~payload_pi:0
            ~payload_delta:1 ()
        in
        (* The compression tables: a handful of big flat arrays. *)
        let hub, _arrays =
          Graph_gen.star plan ~fanout:4 ~child_pi:0 ~child_delta:(scaled scale 1_500)
        in
        Plan.add_root plan head;
        Plan.add_root plan hub;
        with_garbage plan rng ~live_objects:(2 * n);
        plan);
  }

let search =
  {
    name = "search";
    description =
      "search kernel: one long singly linked path — the degenerate case \
       for object-level parallelism";
    build =
      (fun ~scale ~seed ->
        let plan = Plan.create () in
        let rng = Rng.create seed in
        let n = scaled scale 20_000 in
        (* Bare cons-like nodes: nothing to overlap with the handoff. *)
        let head, _tail = Graph_gen.chain plan ~n ~pi:1 ~delta:0 in
        Plan.add_root plan head;
        with_garbage plan rng ~live_objects:n;
        plan);
  }

let db =
  {
    name = "db";
    description =
      "in-memory database: wide index fanning out to many records, each \
       with string fields; deep worklist, header-load heavy";
    build =
      (fun ~scale ~seed ->
        let plan = Plan.create () in
        let rng = Rng.create seed in
        let indexes = 48 in
        let records_per_index = scaled scale 160 in
        let root = Plan.obj plan ~pi:indexes ~delta:2 in
        (* Slot 2 of every record points into a small shared dictionary. *)
        let clients = Array.make (indexes * records_per_index) 0 in
        for i = 0 to indexes - 1 do
          let index = Plan.obj plan ~pi:records_per_index ~delta:1 in
          Plan.link plan ~parent:root ~slot:i ~child:index;
          for slot = 0 to records_per_index - 1 do
            let record = Plan.obj plan ~pi:3 ~delta:8 in
            Plan.link plan ~parent:index ~slot ~child:record;
            clients.((i * records_per_index) + slot) <-
              Graph_gen.slot_ref ~id:record ~slot:2;
            for field = 0 to 1 do
              let str = Plan.obj plan ~pi:0 ~delta:(4 + Rng.int rng 6) in
              Plan.link plan ~parent:record ~slot:field ~child:str
            done
          done
        done;
        ignore (Graph_gen.zipf_pool plan rng ~clients ~pool:256 ~s:0.8);
        Plan.add_root plan root;
        with_garbage plan rng ~live_objects:(indexes * records_per_index * 3);
        plan);
  }

let javac =
  {
    name = "javac";
    description =
      "compiler AST: random tree whose nodes all reference a small pool \
       of hot symbol objects — header-lock contention";
    build =
      (fun ~scale ~seed ->
        let plan = Plan.create () in
        let rng = Rng.create seed in
        let n = scaled scale 25_000 in
        (* Every tree node carries a reserved trailing slot referencing a
           small, heavily skewed symbol pool: the few hottest symbols are
           locked by many cores at once. *)
        let root =
          Graph_gen.random_tree plan rng ~n ~max_fanout:3 ~reserve_slots:1
            ~delta_min:1 ~delta_max:3 ()
        in
        let clients =
          Array.init n (fun i ->
              let id = root + i in
              Graph_gen.slot_ref ~id ~slot:(Plan.pi_of plan id - 1))
        in
        ignore (Graph_gen.zipf_pool plan rng ~clients ~pool:8 ~s:1.6);
        Plan.add_root plan root;
        with_garbage plan rng ~live_objects:n;
        plan);
  }

let cup =
  {
    name = "cup";
    description =
      "parser-table generator: an extremely wide layered graph whose gray \
       backlog overflows the header FIFO — scan-lock critical sections \
       lengthen";
    build =
      (fun ~scale ~seed ->
        let plan = Plan.create () in
        let rng = Rng.create seed in
        let w1 = scaled scale 240 in
        let w2 = scaled scale 22_000 in
        let w3 = scaled scale 44_000 in
        let hub = Graph_gen.layered plan rng ~widths:[| w1; w2; w3 |] ~delta:3 in
        Plan.add_root plan hub;
        with_garbage plan rng ~live_objects:(w2 + w3);
        plan);
  }

let javacc =
  {
    name = "javacc";
    description =
      "parser generator: caterpillar AST — a long backbone with small \
       subtrees, frontier width a couple dozen";
    build =
      (fun ~scale ~seed ->
        let plan = Plan.create () in
        let rng = Rng.create seed in
        let backbone = scaled scale 1_500 in
        let head = Graph_gen.caterpillar plan rng ~backbone ~tuft:12 ~delta:3 in
        Plan.add_root plan head;
        with_garbage plan rng ~live_objects:(backbone * 13);
        plan);
  }

let jflex =
  {
    name = "jflex";
    description =
      "scanner generator: a bounded number of independent DFA-row chains \
       — parallelism saturates around eight cores";
    build =
      (fun ~scale ~seed ->
        let plan = Plan.create () in
        let rng = Rng.create seed in
        let k = 5 in
        let n = scaled scale 6_000 in
        let hub = Plan.obj plan ~pi:k ~delta:0 in
        for i = 0 to k - 1 do
          (* Every second chain node carries a leaf payload: per-chain
             frontier ≈ 2 objects, so five chains feed 10-12 cores —
             scaling saturates between 8 and 16 cores. *)
          let head, _ =
            Graph_gen.chain_with_payload plan ~n ~every:2 ~node_delta:1
              ~payload_pi:0 ~payload_delta:2 ()
          in
          Plan.link plan ~parent:hub ~slot:i ~child:head
        done;
        Plan.add_root plan hub;
        with_garbage plan rng ~live_objects:(k * n * 2);
        plan);
  }

let jlisp =
  {
    name = "jlisp";
    description = "lisp interpreter: a small random cons-cell tree";
    build =
      (fun ~scale ~seed ->
        let plan = Plan.create () in
        let rng = Rng.create seed in
        let n = scaled scale 2_500 in
        let root =
          Graph_gen.random_tree plan rng ~n ~max_fanout:2 ~delta_min:0 ~delta_max:1
            ()
        in
        Plan.add_root plan root;
        with_garbage plan rng ~live_objects:n;
        plan);
  }

let all = [ compress; cup; db; javac; javacc; jflex; jlisp; search ]

let find name = List.find_opt (fun w -> w.name = name) all

let build_heap ?(scale = 1.0) ?(seed = 42) t =
  Plan.materialize (t.build ~scale ~seed)
