module Rng = Hsgc_util.Rng

let chain plan ~n ~pi ~delta =
  if n <= 0 then invalid_arg "Graph_gen.chain: n must be positive";
  if pi < 1 then invalid_arg "Graph_gen.chain: pi must be >= 1";
  let head = Plan.obj plan ~pi ~delta in
  let rec extend prev i =
    if i >= n then prev
    else begin
      let node = Plan.obj plan ~pi ~delta in
      Plan.link plan ~parent:prev ~slot:0 ~child:node;
      extend node (i + 1)
    end
  in
  let tail = extend head 1 in
  (head, tail)

let chain_with_payload plan ~n ?(every = 1) ~node_delta ~payload_pi ~payload_delta
    () =
  if n <= 0 || every <= 0 then invalid_arg "Graph_gen.chain_with_payload";
  let node i =
    let id = Plan.obj plan ~pi:2 ~delta:node_delta in
    if i mod every = 0 then begin
      let payload = Plan.obj plan ~pi:payload_pi ~delta:payload_delta in
      Plan.link plan ~parent:id ~slot:1 ~child:payload
    end;
    id
  in
  let head = node 0 in
  let rec extend prev i =
    if i >= n then prev
    else begin
      let next = node i in
      Plan.link plan ~parent:prev ~slot:0 ~child:next;
      extend next (i + 1)
    end
  in
  let tail = extend head 1 in
  (head, tail)

let star plan ~fanout ~child_pi ~child_delta =
  let hub = Plan.obj plan ~pi:fanout ~delta:0 in
  let children =
    Array.init fanout (fun slot ->
        let c = Plan.obj plan ~pi:child_pi ~delta:child_delta in
        Plan.link plan ~parent:hub ~slot ~child:c;
        c)
  in
  (hub, children)

let layered plan _rng ~widths ~delta =
  let n_layers = Array.length widths in
  if n_layers = 0 then invalid_arg "Graph_gen.layered";
  Array.iter (fun w -> if w <= 0 then invalid_arg "Graph_gen.layered: width") widths;
  (* Build bottom-up so a parent's π equals its block of children. *)
  let rec build i =
    let w = widths.(i) in
    if i = n_layers - 1 then Array.init w (fun _ -> Plan.obj plan ~pi:0 ~delta)
    else begin
      let children = build (i + 1) in
      let next_n = Array.length children in
      Array.init w (fun j ->
          (* Contiguous near-even partition of the next layer. *)
          let lo = j * next_n / w in
          let hi = (j + 1) * next_n / w in
          let parent = Plan.obj plan ~pi:(hi - lo) ~delta in
          for k = lo to hi - 1 do
            Plan.link plan ~parent ~slot:(k - lo) ~child:children.(k)
          done;
          parent)
    end
  in
  let top = build 0 in
  let hub = Plan.obj plan ~pi:(Array.length top) ~delta:0 in
  Array.iteri (fun slot c -> Plan.link plan ~parent:hub ~slot ~child:c) top;
  hub

let random_tree plan rng ~n ~max_fanout ?(reserve_slots = 0) ~delta_min ~delta_max
    () =
  if n <= 0 then invalid_arg "Graph_gen.random_tree";
  if max_fanout < 1 then invalid_arg "Graph_gen.random_tree: max_fanout";
  let new_node () =
    let pi = 1 + Rng.int rng max_fanout + reserve_slots in
    let delta = delta_min + Rng.int rng (delta_max - delta_min + 1) in
    Plan.obj plan ~pi ~delta
  in
  let root = new_node () in
  (* Nodes that still have a free pointer slot, as (id, next free slot). *)
  let open_nodes = ref [| (root, 0) |] in
  let open_count = ref 1 in
  let push id slot =
    if !open_count >= Array.length !open_nodes then begin
      let bigger = Array.make (2 * !open_count) (0, 0) in
      Array.blit !open_nodes 0 bigger 0 !open_count;
      open_nodes := bigger
    end;
    !open_nodes.(!open_count) <- (id, slot);
    incr open_count
  in
  for _ = 2 to n do
    if !open_count = 0 then
      (* Every slot used (can only happen for tiny n with fanout 1):
         attach nothing further. *)
      ()
    else begin
      let pick = Rng.int rng !open_count in
      let id, slot = !open_nodes.(pick) in
      (* Swap-remove, re-push if the parent still has slots. *)
      decr open_count;
      !open_nodes.(pick) <- !open_nodes.(!open_count);
      let child = new_node () in
      Plan.link plan ~parent:id ~slot ~child;
      (* The trailing [reserve_slots] slots stay free for the caller. *)
      if slot + 1 < Plan.pi_of plan id - reserve_slots then push id (slot + 1);
      push child 0
    end
  done;
  root

let caterpillar plan rng ~backbone ~tuft ~delta =
  if backbone <= 0 then invalid_arg "Graph_gen.caterpillar";
  (* Each backbone node: slot 0 = next, slot 1 = its tuft subtree. *)
  let rec subtree remaining =
    (* Small binary tree of [remaining] nodes. *)
    let pi = if remaining > 1 then 2 else 0 in
    let node = Plan.obj plan ~pi ~delta in
    if remaining > 1 then begin
      let left_n = 1 + Rng.int rng (remaining - 1) in
      let right_n = remaining - 1 - left_n in
      Plan.link plan ~parent:node ~slot:0 ~child:(subtree left_n);
      if right_n > 0 then Plan.link plan ~parent:node ~slot:1 ~child:(subtree right_n)
    end;
    node
  in
  let node () =
    let id = Plan.obj plan ~pi:2 ~delta in
    if tuft > 0 then Plan.link plan ~parent:id ~slot:1 ~child:(subtree tuft);
    id
  in
  let head = node () in
  let rec extend prev i =
    if i >= backbone then ()
    else begin
      let next = node () in
      Plan.link plan ~parent:prev ~slot:0 ~child:next;
      extend next (i + 1)
    end
  in
  extend head 1;
  head

let zipf_pool plan rng ~clients ~pool ~s =
  if pool <= 0 then invalid_arg "Graph_gen.zipf_pool";
  let pool_ids = Array.init pool (fun _ -> Plan.obj plan ~pi:0 ~delta:4) in
  let weights = Rng.zipf_table ~n:pool ~s in
  Array.iter
    (fun (client, slot) ->
      let target = pool_ids.(Rng.zipf_draw rng weights) in
      Plan.link plan ~parent:client ~slot ~child:target)
    clients;
  pool_ids

let garbage plan rng ~n ~max_pi ~max_delta =
  let prev = ref (-1) in
  for _ = 1 to n do
    let pi = Rng.int rng (max_pi + 1) in
    let delta = Rng.int rng (max_delta + 1) in
    let id = Plan.obj plan ~pi ~delta in
    (* Garbage may reference other garbage: the collector must still not
       trace into it. *)
    if pi > 0 && !prev >= 0 && Rng.bool rng then
      Plan.link plan ~parent:id ~slot:0 ~child:!prev;
    prev := id
  done
