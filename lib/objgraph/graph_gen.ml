module Rng = Hsgc_util.Rng
module Header = Hsgc_heap.Header

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
  (* Build bottom-up so a parent's π equals its block of children. A
     layer's ids are contiguous; [build i] returns layer [i]'s first. *)
  let rec build i =
    let below = if i + 1 < n_layers then build (i + 1) else 0 in
    let below_n = if i + 1 < n_layers then widths.(i + 1) else 0 in
    let w = widths.(i) in
    let first = Plan.n_objects plan in
    for j = 0 to w - 1 do
      (* Contiguous near-even partition of the next layer. *)
      let lo = j * below_n / w in
      let hi = (j + 1) * below_n / w in
      let parent = Plan.obj plan ~pi:(hi - lo) ~delta in
      for k = lo to hi - 1 do
        Plan.link plan ~parent ~slot:(k - lo) ~child:(below + k)
      done
    done;
    first
  in
  let top = build 0 in
  let hub = Plan.obj plan ~pi:widths.(0) ~delta:0 in
  for slot = 0 to widths.(0) - 1 do
    Plan.link plan ~parent:hub ~slot ~child:(top + slot)
  done;
  hub

(* An (object, slot) pair packed into one int. Every slot of an object
   with π up to [Header.max_area] fits below the radix. *)
let slot_radix = Header.max_area + 1

let slot_ref ~id ~slot =
  if id < 0 || slot < 0 || slot >= slot_radix then invalid_arg "Graph_gen.slot_ref";
  (id * slot_radix) + slot

let ref_id r = r / slot_radix
let ref_slot r = r mod slot_radix

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
  (* Nodes that still have a free pointer slot, as [slot_ref]s of their
     next free slot. Every node enters with slot 0 free, so the list is
     never empty. *)
  let open_refs = ref (Array.make 16 0) in
  let open_count = ref 0 in
  let push id slot =
    if !open_count >= Array.length !open_refs then begin
      (* A loop, not [Array.blit]: see [Plan]'s growth. *)
      let old = !open_refs in
      let bigger = Array.make (2 * !open_count) 0 in
      for i = 0 to !open_count - 1 do
        bigger.(i) <- old.(i)
      done;
      open_refs := bigger
    end;
    !open_refs.(!open_count) <- slot_ref ~id ~slot;
    incr open_count
  in
  push root 0;
  for _ = 2 to n do
    let pick = Rng.int rng !open_count in
    let r = !open_refs.(pick) in
    let id = ref_id r and slot = ref_slot r in
    (* Swap-remove, re-push if the parent still has slots. *)
    decr open_count;
    !open_refs.(pick) <- !open_refs.(!open_count);
    let child = new_node () in
    Plan.link plan ~parent:id ~slot ~child;
    (* The trailing [reserve_slots] slots stay free for the caller. *)
    if slot + 1 < Plan.pi_of plan id - reserve_slots then push id (slot + 1);
    push child 0
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
    (fun r ->
      let target = pool_ids.(Rng.zipf_draw rng weights) in
      Plan.link plan ~parent:(ref_id r) ~slot:(ref_slot r) ~child:target)
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
