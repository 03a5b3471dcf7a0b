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

(* Delta codec: the words that differ from an earlier copy of [mem],
   against which the delta is applied on restore. Runs are found in one
   compare pass before encoding, so both encoder passes (measure, fill)
   only walk the run table. Two runs at most two equal words apart are
   merged: carrying the gap costs no more than a run's own start and
   length words. The same pass notes each semispace's extent, which
   sizes a full image without a second scan. The registers and roots
   are small and stored whole. *)
type delta = {
  mutable runs : int array;  (* start, length pairs *)
  mutable n_runs : int;
  mutable extent_a : int;
  mutable extent_b : int;
}

let max_gap = 2

let push_run d start len =
  let k = 2 * d.n_runs in
  if k + 2 > Array.length d.runs then begin
    let grown = Array.make (max 64 (2 * Array.length d.runs)) 0 in
    for i = 0 to k - 1 do
      Array.unsafe_set grown i (Array.unsafe_get d.runs i)
    done;
    d.runs <- grown
  end;
  d.runs.(k) <- start;
  d.runs.(k + 1) <- len;
  d.n_runs <- d.n_runs + 1

(* The base lives outside the OCaml heap: an [int array] copy of [mem]
   would be scanned by every marking cycle and would grow the major
   heap's headroom by its size. *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Compare [lo, hi) and extend the open run [start, stop) (start < 0:
   none), returning it and the last nonzero address seen (lo - 1 if
   none). A recursive loop over plain arguments keeps the state in
   registers. *)
let rec scan d mem (base : words) i hi start stop last =
  if i >= hi then (start, stop, last)
  else
    let v = Array.unsafe_get mem i in
    let last = if v <> 0 then i else last in
    if v = Bigarray.Array1.unsafe_get base i then
      scan d mem base (i + 1) hi start stop last
    else if start < 0 then scan d mem base (i + 1) hi i (i + 1) last
    else if i - stop > max_gap then begin
      push_run d start (stop - start);
      scan d mem base (i + 1) hi i (i + 1) last
    end
    else scan d mem base (i + 1) hi start (i + 1) last

let delta ?reuse t ~base =
  let mem = t.mem in
  if Bigarray.Array1.dim base <> Array.length mem then
    invalid_arg "Heap.delta: base size";
  let d =
    match reuse with
    | Some d -> d
    | None -> { runs = [||]; n_runs = 0; extent_a = 0; extent_b = 0 }
  in
  d.n_runs <- 0;
  (* All of [mem] in address order, a segment per space and per stretch
     around them; a run may span segments. *)
  let seg lo hi (start, stop, _) = scan d mem base lo hi start stop (lo - 1) in
  let lo, hi =
    if t.space_a.base < t.space_b.base then (t.space_a, t.space_b)
    else (t.space_b, t.space_a)
  in
  let r = seg 0 lo.base (-1, 0, 0) in
  let (_, _, last_lo) as r = seg lo.base lo.limit r in
  let r = seg lo.limit hi.base r in
  let (_, _, last_hi) as r = seg hi.base hi.limit r in
  let start, stop, _ = seg hi.limit (Array.length mem) r in
  if start >= 0 then push_run d start (stop - start);
  let ext_lo = last_lo + 1 - lo.base and ext_hi = last_hi + 1 - hi.base in
  if lo == t.space_a then begin
    d.extent_a <- ext_lo;
    d.extent_b <- ext_hi
  end
  else begin
    d.extent_a <- ext_hi;
    d.extent_b <- ext_lo
  end;
  d

(* What [encode] writes: the null word, per space 3 register words, a
   length word and its extent, orientation, the roots' length and
   roots. *)
let full_bytes t d =
  8 * (1 + 4 + d.extent_a + 4 + d.extent_b + 1 + 1 + Array.length t.roots)

let apply_delta t d ~(base : words) =
  for k = 0 to d.n_runs - 1 do
    let start = d.runs.(2 * k) and len = d.runs.((2 * k) + 1) in
    for i = start to start + len - 1 do
      Bigarray.Array1.unsafe_set base i (Array.unsafe_get t.mem i)
    done
  done

let encode_delta t d w =
  Codec.W.int w t.mem.(null);
  Semispace.encode t.space_a w;
  Semispace.encode t.space_b w;
  Codec.W.bool w t.a_is_current;
  Codec.W.int_array w t.roots;
  Codec.W.int w d.n_runs;
  for k = 0 to d.n_runs - 1 do
    let start = d.runs.(2 * k) in
    Codec.W.int w start;
    Codec.W.int_range w t.mem ~pos:start ~len:d.runs.((2 * k) + 1)
  done

let restore_delta t r =
  t.mem.(null) <- Codec.R.int r;
  Semispace.restore t.space_a r;
  Semispace.restore t.space_b r;
  t.a_is_current <- Codec.R.bool r;
  t.roots <- Codec.R.int_array r;
  let n = Array.length t.mem in
  let runs = Codec.R.int r in
  if runs < 0 || runs > n then
    raise (Codec.Error (Printf.sprintf "heap delta run count %d" runs));
  for _ = 1 to runs do
    let start = Codec.R.int r in
    if start < 0 || start > n then
      raise (Codec.Error (Printf.sprintf "heap delta run at %d" start));
    ignore
      (Codec.R.int_range_into r t.mem ~pos:start ~max:(n - start)
         ~what:"heap delta run")
  done

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
