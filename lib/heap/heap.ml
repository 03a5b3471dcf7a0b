type t = {
  mem : int array;
  mutable space_a : Semispace.t;
  mutable space_b : Semispace.t;
  mutable a_is_current : bool;
  mutable roots : int array;
}

let null = 0

let create ~semispace_words =
  if semispace_words <= 0 then invalid_arg "Heap.create";
  (* Word 0 is reserved so that address 0 can serve as null. *)
  let space_a = Semispace.create ~base:1 ~words:semispace_words in
  let space_b = Semispace.create ~base:(1 + semispace_words) ~words:semispace_words in
  {
    mem = Array.make (1 + (2 * semispace_words)) 0;
    space_a;
    space_b;
    a_is_current = true;
    roots = [||];
  }

let from_space t = if t.a_is_current then t.space_a else t.space_b
let to_space t = if t.a_is_current then t.space_b else t.space_a

let flip t =
  t.a_is_current <- not t.a_is_current;
  Semispace.reset (to_space t)

let read t addr = t.mem.(addr)
let write t addr v = t.mem.(addr) <- v

let header0 t obj = t.mem.(obj)
let header1 t obj = t.mem.(obj + 1)
let set_header0 t obj v = t.mem.(obj) <- v
let set_header1 t obj v = t.mem.(obj + 1) <- v

let pointer_addr obj i = obj + Header.header_words + i
let data_addr obj ~pi i = obj + Header.header_words + pi + i

let get_pointer t obj i = t.mem.(pointer_addr obj i)
let set_pointer t obj i child = t.mem.(pointer_addr obj i) <- child

let obj_pi t obj = Header.pi (header0 t obj)
let obj_delta t obj = Header.delta (header0 t obj)
let obj_size t obj = Header.size (header0 t obj)
let obj_state t obj = Header.state (header0 t obj)

let get_data t obj i = t.mem.(data_addr obj ~pi:(obj_pi t obj) i)
let set_data t obj i v = t.mem.(data_addr obj ~pi:(obj_pi t obj) i) <- v

let alloc t ~pi ~delta =
  let size = Header.size_of ~pi ~delta in
  match Semispace.bump (from_space t) size with
  | None -> None
  | Some obj ->
    t.mem.(obj) <- Header.encode ~state:White ~pi ~delta;
    Array.fill t.mem (obj + 1) (size - 1) 0;
    Some obj

(* Checkpoint codec: the null word, each semispace's geometry and its
   words up to its last nonzero one, orientation, and the root set.
   Between collections most of both spaces is zero — the allocation
   space above [free] and the idle space above the last collection's
   survivors — so the image is sized by what the heap holds, not by its
   capacity. Words above [free] that are not zero (stale copies in the
   idle space) are kept: restore reproduces [mem] word for word,
   copying each stored prefix and zero-filling the rest of its space in
   a heap of identical geometry (the memory array is reused). *)
module Codec = Hsgc_util.Codec

(* Words from the space's base up to and including its last nonzero
   word. *)
let extent t (s : Semispace.t) =
  let i = ref (s.limit - 1) in
  while !i >= s.base && Array.unsafe_get t.mem !i = 0 do
    decr i
  done;
  !i + 1 - s.base

let encode_space t s w =
  Semispace.encode s w;
  Codec.W.int_range w t.mem ~pos:s.Semispace.base ~len:(extent t s)

let restore_space t s r =
  Semispace.restore s r;
  let base = s.Semispace.base and words = Semispace.words s in
  let n =
    Codec.R.int_range_into r t.mem ~pos:base ~max:words
      ~what:"semispace extent"
  in
  Array.fill t.mem (base + n) (words - n) 0

let encode t w =
  Codec.W.int w t.mem.(null);
  encode_space t t.space_a w;
  encode_space t t.space_b w;
  Codec.W.bool w t.a_is_current;
  Codec.W.int_array w t.roots

let restore t r =
  t.mem.(null) <- Codec.R.int r;
  restore_space t t.space_a r;
  restore_space t t.space_b r;
  t.a_is_current <- Codec.R.bool r;
  t.roots <- Codec.R.int_array r

let set_roots t roots = t.roots <- roots
let add_root t obj = t.roots <- Array.append t.roots [| obj |]
let root_count t = Array.length t.roots

let iter_objects t space f =
  let rec go addr =
    if addr < space.Semispace.free then begin
      let size = obj_size t addr in
      f addr;
      go (addr + size)
    end
  in
  go space.Semispace.base

let reachable t =
  let seen = Hashtbl.create 1024 in
  let next_index = ref 0 in
  let stack = ref [] in
  let visit obj =
    if obj <> null && not (Hashtbl.mem seen obj) then begin
      Hashtbl.add seen obj !next_index;
      incr next_index;
      stack := obj :: !stack
    end
  in
  Array.iter visit t.roots;
  let rec drain () =
    match !stack with
    | [] -> ()
    | obj :: rest ->
      stack := rest;
      let pi = obj_pi t obj in
      for i = 0 to pi - 1 do
        visit (get_pointer t obj i)
      done;
      drain ()
  in
  drain ();
  seen

let live_words t =
  let seen = reachable t in
  Hashtbl.fold (fun obj _ acc -> acc + obj_size t obj) seen 0
