type obj_desc = { pi : int; delta : int }

type snapshot = {
  objects : obj_desc array;
  root_ids : int array;
  words : Bytes.t;
}

(* Words in [Bytes], native-endian, at unboxed primitives: the major GC
   neither scans nor marks the contents of a [Bytes], where it would
   scan an [int array] word by word. Every caller checks the range. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let get_word b i = Int64.to_int (get64 b (i lsl 3))
let set_word b i v = set64 b (i lsl 3) (Int64.of_int v)

(* [b] with room for at least [n] words, its first [used] kept. *)
let reserve b ~used n =
  if n lsl 3 <= Bytes.length b then b
  else begin
    let bigger = Bytes.create (max (n lsl 3) (2 * Bytes.length b)) in
    Bytes.blit b 0 bigger 0 (used lsl 3);
    bigger
  end

(* The shapes that most objects have, one immutable descriptor each,
   shared by every object of the shape in every snapshot (and by the
   domains that snapshot in parallel). Any other (π, δ) gets its own. *)
let shared_pi = 64
let shared_delta = 16

let shapes =
  Array.init (shared_pi * shared_delta) (fun i ->
      { pi = i / shared_delta; delta = i mod shared_delta })

let shape ~pi ~delta =
  if pi < shared_pi && delta < shared_delta then
    Array.unsafe_get shapes ((pi * shared_delta) + delta)
  else { pi; delta }

let no_desc = shape ~pi:0 ~delta:0

(* Canonical ids, handed out in discovery order. Addresses inside the
   current space's allocated range [base, free) map to ids through a
   direct-address table indexed by word offset; any other address (only
   a broken heap holds one) goes to a small hashtable. Because ids are
   handed out in enqueue order, the id -> address array is also the BFS
   queue: the object with id k is the k-th dequeued. An id fits the
   table's 32 bits: ids are fewer than the roots and pointer words they
   come from. *)
type ids = {
  base : int;
  span : int;  (** words of [base, free) *)
  table : Bytes.t;  (** 4 bytes per word offset: its id, -1 until found *)
  mutable addrs : Bytes.t;  (** a word per id: its address *)
  mutable count : int;
  mutable strays : (int, int) Hashtbl.t option;
}

(* [capacity] is the ids the walk expects; the queue grows past it. *)
let ids_create ~capacity heap =
  let space = Heap.from_space heap in
  let base = space.Semispace.base in
  (* [free] is a field a broken heap may carry any value in: clamp it to
     the space before sizing anything from it. *)
  let span = max 0 (min space.Semispace.free space.Semispace.limit - base) in
  {
    base;
    span;
    table = Bytes.make (span lsl 2) '\255';
    addrs = Bytes.create (max 1 capacity lsl 3);
    count = 0;
    strays = None;
  }

let addr ids id = get_word ids.addrs id

let find ids addr =
  let off = addr - ids.base in
  if off >= 0 && off < ids.span then Int32.to_int (get32 ids.table (off lsl 2))
  else
    match ids.strays with
    | None -> -1
    | Some h -> ( match Hashtbl.find_opt h addr with Some id -> id | None -> -1)

(* Registers an undiscovered, non-null [addr] under the next id. *)
let add ids addr =
  let id = ids.count in
  if id lsl 3 = Bytes.length ids.addrs then
    ids.addrs <- reserve ids.addrs ~used:id (id + 1);
  set_word ids.addrs id addr;
  ids.count <- id + 1;
  let off = addr - ids.base in
  if off >= 0 && off < ids.span then set32 ids.table (off lsl 2) (Int32.of_int id)
  else begin
    let h =
      match ids.strays with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 16 in
        ids.strays <- Some h;
        h
    in
    Hashtbl.replace h addr id
  end;
  id

let id_of ids addr =
  if addr = Heap.null then -1
  else
    let id = find ids addr in
    if id >= 0 then id else add ids addr

(* One range check per object body ([len] words from [slots]), after
   which its words are read unchecked. An empty body is not checked: a
   stray pointer to the last word of memory reads a zero header, and its
   body would start past the end of the array. *)
let check_body (mem : Heap.words) ~slots ~len =
  if len > 0 && (slots < 0 || slots > Heap.length mem - len) then
    invalid_arg "index out of bounds"

(* A snapshot's queue, objects and words start this small and double as
   they fill. *)
let initial_objects = 256

let snapshot heap =
  let mem = heap.Heap.mem in
  let ids = ids_create ~capacity:initial_objects heap in
  let roots = heap.Heap.roots in
  let root_ids = Array.make (Array.length roots) (-1) in
  for r = 0 to Array.length roots - 1 do
    root_ids.(r) <- id_of ids roots.(r)
  done;
  (* BFS so that canonical ids depend only on graph shape and root order,
     not on heap addresses. Each object's child ids, then its data
     words, go to the end of [words]. *)
  let objects = ref (Array.make initial_objects no_desc) in
  let words = ref (Bytes.create (initial_objects lsl 3)) in
  let used = ref 0 in
  let k = ref 0 in
  while !k < ids.count do
    let obj = addr ids !k in
    let w0 = mem.{obj} in
    let pi = Header.pi w0 and delta = Header.delta w0 in
    let slots = obj + Header.header_words in
    check_body mem ~slots ~len:(pi + delta);
    let at = !used in
    words := reserve !words ~used:at (at + pi + delta);
    let buf = !words in
    for i = 0 to pi - 1 do
      set_word buf (at + i) (id_of ids (Bigarray.Array1.unsafe_get mem (slots + i)))
    done;
    for j = pi to pi + delta - 1 do
      set_word buf (at + j) (Bigarray.Array1.unsafe_get mem (slots + j))
    done;
    used := at + pi + delta;
    if !k = Array.length !objects then begin
      let bigger = Array.make (2 * !k) no_desc in
      Array.blit !objects 0 bigger 0 !k;
      objects := bigger
    end;
    Array.unsafe_set !objects !k (shape ~pi ~delta);
    incr k
  done;
  {
    objects = Array.sub !objects 0 ids.count;
    root_ids;
    words = Bytes.sub !words 0 (!used lsl 3);
  }

let rec equal_ints_from (a : int array) (b : int array) i =
  i = Array.length a || (a.(i) = b.(i) && equal_ints_from a b (i + 1))

let equal_ints a b = Array.length a = Array.length b && equal_ints_from a b 0

let rec equal_shapes_from a b i =
  i = Array.length a
  ||
  let x = a.(i) and y = b.(i) in
  (x == y || (x.pi = y.pi && x.delta = y.delta)) && equal_shapes_from a b (i + 1)

(* Equal shapes lay the words out alike, so the buffers compare whole. *)
let equal_snapshot a b =
  equal_ints a.root_ids b.root_ids
  && Array.length a.objects = Array.length b.objects
  && equal_shapes_from a.objects b.objects 0
  && Bytes.equal a.words b.words

type failure =
  | Graph_mismatch of string
  | Not_compacted of string
  | Bad_state of { obj : int; state : Header.state }
  | Undecodable_header of { obj : int; word : int }
  | Dangling_pointer of { obj : int; slot : int; target : int }
  | Misaligned_pointer of { obj : int; slot : int; target : int }

let holder ~obj ~slot =
  if obj = Heap.null then Printf.sprintf "root slot %d" slot
  else Printf.sprintf "object %d slot %d" obj slot

let pp_failure ppf = function
  | Graph_mismatch msg -> Format.fprintf ppf "graph mismatch: %s" msg
  | Not_compacted msg -> Format.fprintf ppf "not compacted: %s" msg
  | Bad_state { obj; state } ->
    Format.fprintf ppf "object %d has state %a (expected Black)" obj
      Header.pp_state state
  | Undecodable_header { obj; word } ->
    Format.fprintf ppf "object %d has undecodable header word %#x" obj word
  | Dangling_pointer { obj; slot; target } ->
    Format.fprintf ppf "%s points to %d outside the new space"
      (holder ~obj ~slot) target
  | Misaligned_pointer { obj; slot; target } ->
    Format.fprintf ppf "%s points to %d, which is not an object start"
      (holder ~obj ~slot) target

let bit_set bits i =
  Char.code (Bytes.get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit bits i =
  let byte = i lsr 3 in
  Bytes.set bits byte
    (Char.unsafe_chr (Char.code (Bytes.get bits byte) lor (1 lsl (i land 7))))

let check_space heap =
  let mem = heap.Heap.mem in
  let space = Heap.from_space heap in
  let base = space.Semispace.base and free = space.Semispace.free in
  let exception Fail of failure in
  try
    if free < base || free > space.Semispace.limit then
      raise
        (Fail
           (Not_compacted
              (Printf.sprintf "free=%d outside the space [%d, %d)" free base
                 space.Semispace.limit)));
    (* Pass 1 — wall-to-wall parse: the space must decode as a contiguous
       sequence of Black objects ending exactly at [free]. The state tag
       is inspected raw first: a corrupted header may carry the invalid
       tag 3, which must surface as a failure, not an exception from the
       decoder. Object starts are marked in a bitmap (one bit per word
       of [base, free)) for pass 2. *)
    let starts = Bytes.make ((free - base + 7) lsr 3) '\000' in
    let addr = ref base in
    while !addr < free do
      let obj = !addr in
      let w0 = mem.{obj} in
      if w0 land 3 = 3 then raise (Fail (Undecodable_header { obj; word = w0 }));
      (match Header.state w0 with
      | Black -> ()
      | (White | Gray) as state -> raise (Fail (Bad_state { obj; state })));
      let size = Header.size w0 in
      if size < Header.header_words || obj + size > free then
        raise
          (Fail
             (Not_compacted
                (Printf.sprintf "object %d of size %d overruns free=%d" obj size
                   free)));
      set_bit starts (obj - base);
      addr := obj + size
    done;
    if !addr <> free then
      raise
        (Fail
           (Not_compacted
              (Printf.sprintf "scan ended at %d but free=%d" !addr free)));
    (* Pass 2 — pointer discipline: every non-null pointer, and every
       non-null root, must land on an object start of this space. (The
       weaker [contains] check would let a corrupted low bit slide into a
       neighbour's body and go unnoticed here; it would also let the
       snapshot BFS read from a misparsed "object".) Runs only on a
       successfully parsed space, so pi is trustworthy, and re-walks it
       in address order so the lowest-address defect is the one
       reported. *)
    let check ~obj ~slot target =
      if target <> Heap.null then
        if not (Semispace.contains space target) then
          raise (Fail (Dangling_pointer { obj; slot; target }))
        else if target >= free || not (bit_set starts (target - base)) then
          raise (Fail (Misaligned_pointer { obj; slot; target }))
    in
    let addr = ref base in
    while !addr < free do
      let obj = !addr in
      let w0 = mem.{obj} in
      for slot = 0 to Header.pi w0 - 1 do
        check ~obj ~slot mem.{obj + Header.header_words + slot}
      done;
      addr := obj + Header.size w0
    done;
    let roots = heap.Heap.roots in
    for slot = 0 to Array.length roots - 1 do
      check ~obj:Heap.null ~slot roots.(slot)
    done;
    Ok ()
  with Fail f -> Error f

(* The isomorphism half of [check_collection], run in lockstep: replay
   [snapshot]'s BFS over [heap] and compare each object with
   [pre.objects.(id)] and its words in [pre.words] as it is dequeued,
   without building the second snapshot. Returns the first difference in
   BFS order, or [None] exactly when [equal_snapshot pre (snapshot
   heap)]. Only called once [check_space] has passed, so every root and
   pointer is null or an object start inside [base, free), which the id
   table covers. *)
let first_difference ~pre heap =
  let mem = heap.Heap.mem in
  let npre = Array.length pre.objects in
  let pre_words = pre.words in
  let n_pre_words = Bytes.length pre_words lsr 3 in
  let ids = ids_create ~capacity:npre heap in
  let exception Differ of string in
  (* The id [snapshot] would give [target] here: a known one, or the
     next fresh id. *)
  let post_id target =
    if target = Heap.null then -1
    else
      let id = find ids target in
      if id >= 0 then id else ids.count
  in
  (* Discovers [target] once its id matched the pre-snapshot's. *)
  let claim target id =
    if target <> Heap.null && id = ids.count then begin
      if id >= npre then
        raise
          (Differ (Printf.sprintf "object count %d -> at least %d" npre (id + 1)));
      ignore (add ids target)
    end
  in
  try
    let roots = heap.Heap.roots in
    let n_roots = Array.length pre.root_ids in
    if Array.length roots <> n_roots then
      raise
        (Differ
           (Printf.sprintf "root count %d -> %d" n_roots (Array.length roots)));
    for r = 0 to n_roots - 1 do
      let target = roots.(r) in
      let id = post_id target in
      if id <> pre.root_ids.(r) then
        raise
          (Differ
             (Printf.sprintf "root slot %d: id %d -> %d" r pre.root_ids.(r) id));
      claim target id
    done;
    let k = ref 0 in
    let at = ref 0 in
    while !k < ids.count do
      let id = !k in
      let obj = addr ids id in
      let d = pre.objects.(id) in
      let w0 = mem.{obj} in
      let pi = Header.pi w0 and delta = Header.delta w0 in
      if pi <> d.pi then
        raise (Differ (Printf.sprintf "object #%d: pi %d -> %d" id d.pi pi));
      if delta <> d.delta then
        raise
          (Differ (Printf.sprintf "object #%d: delta %d -> %d" id d.delta delta));
      let slots = obj + Header.header_words in
      check_body mem ~slots ~len:(pi + delta);
      let here = !at in
      if here + pi + delta > n_pre_words then
        invalid_arg "Verify.check_collection: pre's words end before its objects";
      for i = 0 to pi - 1 do
        let target = Bigarray.Array1.unsafe_get mem (slots + i) in
        let c = post_id target in
        let want = get_word pre_words (here + i) in
        if c <> want then
          raise
            (Differ
               (Printf.sprintf "object #%d: child slot %d: id %d -> %d" id i want c));
        claim target c
      done;
      let data = here + pi in
      for j = 0 to delta - 1 do
        let v = Bigarray.Array1.unsafe_get mem (slots + pi + j) in
        let want = get_word pre_words (data + j) in
        if v <> want then
          raise
            (Differ
               (Printf.sprintf "object #%d: data word %d: %#x -> %#x" id j want v))
      done;
      at := here + pi + delta;
      incr k
    done;
    if ids.count <> npre then
      raise (Differ (Printf.sprintf "object count %d -> %d" npre ids.count));
    None
  with Differ detail -> Some detail

let check_collection ~pre heap =
  let space = Heap.from_space heap in
  let exception Fail of failure in
  try
    (* 1. The new space is wall-to-wall well-formed. *)
    (match check_space heap with Ok () -> () | Error f -> raise (Fail f));
    (* 2. Graph isomorphism with the pre-collection snapshot. *)
    (match first_difference ~pre heap with
    | None -> ()
    | Some detail -> raise (Fail (Graph_mismatch detail)));
    (* 3. All live words accounted for: copies exactly fill [base, free).
       (Redundant with 1+2 but cheap and catches double-copies.) *)
    let live =
      Array.fold_left
        (fun acc d -> acc + Header.size_of ~pi:d.pi ~delta:d.delta)
        0 pre.objects
    in
    if live <> Semispace.used space then
      raise
        (Fail
           (Not_compacted
              (Printf.sprintf "live words %d but space used %d" live
                 (Semispace.used space))));
    Ok ()
  with Fail f -> Error f
