module Heap = Hsgc_heap.Heap
module Semispace = Hsgc_heap.Semispace
module Header = Hsgc_heap.Header

(* Flat (CSR) layout. Object [id]'s pointer slots are
   [slots.(first.(id)) .. slots.(first.(id + 1) - 1)], each a child id
   or -1 for null, and its words are [offsets.(id) .. offsets.(id + 1) - 1]
   counted from the first object's header, which is also where
   [materialize] puts them. So π and δ are differences of consecutive
   entries, and [first] and [offsets] hold [n + 1] entries. Building a
   plan allocates nothing per object beyond doubling the three arrays. *)
type t = {
  mutable first : int array;
  mutable offsets : int array;
  mutable slots : int array;
  mutable n : int;
  mutable rev_roots : int list;
  mutable n_roots : int;
}

let create () =
  {
    first = Array.make 16 0;
    offsets = Array.make 16 0;
    slots = Array.make 16 (-1);
    n = 0;
    rev_roots = [];
    n_roots = 0;
  }

(* [a] with its length doubled until it exceeds [need], the new tail
   holding [fill]. The copy is a loop: [Array.blit] into a major-heap
   array goes through the write barrier word by word. *)
let grown (a : int array) ~need ~fill =
  let cap = ref (2 * Array.length a) in
  while !cap <= need do
    cap := 2 * !cap
  done;
  let a' = Array.make !cap fill in
  for i = 0 to Array.length a - 1 do
    a'.(i) <- a.(i)
  done;
  a'

let obj t ~pi ~delta =
  if pi < 0 || delta < 0 then invalid_arg "Plan.obj";
  let id = t.n in
  if id + 1 >= Array.length t.first then begin
    t.first <- grown t.first ~need:(id + 1) ~fill:0;
    t.offsets <- grown t.offsets ~need:(id + 1) ~fill:0
  end;
  (* Slots past [first.(n)] are never written before an object claims
     them, so fresh ones already read -1. *)
  let first = t.first.(id) in
  if first + pi > Array.length t.slots then
    t.slots <- grown t.slots ~need:(first + pi - 1) ~fill:(-1);
  t.first.(id + 1) <- first + pi;
  t.offsets.(id + 1) <- t.offsets.(id) + Header.size_of ~pi ~delta;
  t.n <- id + 1;
  id

let check_id t id = if id < 0 || id >= t.n then invalid_arg "Plan: bad object id"

(* Index of [id]'s slot [slot] in [slots]; [id] must be valid. *)
let slot_index t id slot ~what =
  let first = t.first.(id) in
  if slot < 0 || first + slot >= t.first.(id + 1) then invalid_arg what;
  first + slot

let link t ~parent ~slot ~child =
  check_id t parent;
  check_id t child;
  t.slots.(slot_index t parent slot ~what:"Plan.link: bad slot") <- child

let add_root t id =
  check_id t id;
  t.rev_roots <- id :: t.rev_roots;
  t.n_roots <- t.n_roots + 1

let n_objects t = t.n
let n_roots t = t.n_roots
let size_words t = t.offsets.(t.n)

let pi_of t id =
  check_id t id;
  t.first.(id + 1) - t.first.(id)

let delta_of t id =
  let pi = pi_of t id in
  t.offsets.(id + 1) - t.offsets.(id) - Header.size_of ~pi ~delta:0

let child_of t id slot =
  check_id t id;
  t.slots.(slot_index t id slot ~what:"Plan.child_of: bad slot")

let roots t = Array.of_list (List.rev t.rev_roots)

let iter_objects t f =
  for id = 0 to t.n - 1 do
    f id
  done

let live_words t =
  let seen = Bytes.make t.n '\000' in
  (* Each object is pushed at most once, so [n] entries suffice. *)
  let stack = Array.make (max t.n 1) 0 in
  let top = ref 0 in
  let visit id =
    if id >= 0 && Bytes.get seen id = '\000' then begin
      Bytes.set seen id '\001';
      stack.(!top) <- id;
      incr top
    end
  in
  List.iter visit t.rev_roots;
  let words = ref 0 in
  while !top > 0 do
    decr top;
    let id = stack.(!top) in
    words := !words + t.offsets.(id + 1) - t.offsets.(id);
    for s = t.first.(id) to t.first.(id + 1) - 1 do
      visit t.slots.(s)
    done
  done;
  !words

(* A cheap integer mix so every data word is a distinct, reproducible
   function of (object, slot); copy bugs then break graph isomorphism. *)
let data_word id slot = (((id * 2654435761) lxor (slot * 40503)) + 77) land 0x3FFFFFFFFFFF

(* Two semispaces of this size, the null word and the 64 words of slack
   must fit one OCaml array. *)
let max_semispace_words = ((Sys.max_array_length - 1) / 2) - 64

let materialize ?(heap_factor = 2.0) t =
  if heap_factor < 1.0 then invalid_arg "Plan.materialize: heap_factor < 1.0";
  let words = size_words t in
  let scaled = Float.ceil (float_of_int words *. heap_factor) in
  (* NaN fails every comparison, so test for the good case. *)
  if not (Float.is_finite heap_factor && scaled <= float_of_int max_semispace_words)
  then invalid_arg "Plan.materialize: heap_factor not finite or heap too large";
  let heap = Heap.create ~semispace_words:(int_of_float scaled + 64) in
  (* One bump for the whole plan: object [id] lands at
     [base + offsets.(id)], where one [Heap.alloc] per object in id
     order would have put it. [Heap.create]'s memory is zero pages, so
     header word 1 and null slots are already in place, unwritten. *)
  let base =
    match Semispace.bump (Heap.from_space heap) words with
    | Some base -> base
    | None -> failwith "Plan.materialize: sized heap too small (bug)"
  in
  let mem = heap.Heap.mem in
  for id = 0 to t.n - 1 do
    let obj = base + t.offsets.(id) and next = base + t.offsets.(id + 1) in
    let first = t.first.(id) in
    let pi = t.first.(id + 1) - first in
    let ptrs = obj + Header.header_words in
    let data = ptrs + pi in
    mem.{obj} <- Header.encode ~state:White ~pi ~delta:(next - data);
    for slot = 0 to pi - 1 do
      let child = t.slots.(first + slot) in
      if child >= 0 then mem.{ptrs + slot} <- base + t.offsets.(child)
    done;
    for a = data to next - 1 do
      mem.{a} <- data_word id (a - data)
    done
  done;
  Heap.set_roots heap
    (Array.of_list (List.rev_map (fun id -> base + t.offsets.(id)) t.rev_roots));
  heap
