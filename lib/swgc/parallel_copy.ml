module Heap = Hsgc_heap.Heap
module Header = Hsgc_heap.Header
module Semispace = Hsgc_heap.Semispace

type stats = {
  domains : int;
  live_objects : int;
  live_words : int;
  elapsed_s : float;
  per_domain_objects : int array;
  cas_claims : int;
  cas_races_lost : int;
}

(* Forwarding-table states. *)
let unclaimed = -1
let claiming = -2

(* Treiber stack: the single shared worklist of gray objects. *)
module Worklist = struct
  type t = (int * int) list Atomic.t

  let create () : t = Atomic.make []

  let rec push (t : t) item =
    let old = Atomic.get t in
    if not (Atomic.compare_and_set t old (item :: old)) then push t item

  let rec pop (t : t) =
    match Atomic.get t with
    | [] -> None
    | item :: rest as old ->
      if Atomic.compare_and_set t old rest then Some item else pop t
end

(* Sorted base addresses of the objects in the current space; index in
   this array is the object's forwarding-table slot. *)
let object_bases heap =
  let space = Heap.from_space heap in
  let acc = ref [] in
  let count = ref 0 in
  Heap.iter_objects heap space (fun addr ->
      if Heap.obj_size heap addr < Header.header_words then
        invalid_arg "Parallel_copy.collect: malformed object walk";
      acc := addr :: !acc;
      incr count);
  let arr = Array.make !count 0 in
  List.iteri (fun i addr -> arr.(!count - 1 - i) <- addr) !acc;
  arr

let index_of bases addr =
  let lo = ref 0 and hi = ref (Array.length bases - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if bases.(mid) = addr then begin
      found := mid;
      lo := !hi + 1
    end
    else if bases.(mid) < addr then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then
    invalid_arg
      (Printf.sprintf "Parallel_copy.collect: %d is not an object base" addr)
  else !found

let collect ~domains heap =
  if domains < 1 then invalid_arg "Parallel_copy.collect: domains";
  let bases = object_bases heap in
  let n = Array.length bases in
  let fwd = Array.init n (fun _ -> Atomic.make unclaimed) in
  let to_sp = Heap.to_space heap in
  let free = Atomic.make to_sp.Semispace.base in
  let limit = to_sp.Semispace.limit in
  let worklist = Worklist.create () in
  let pending = Atomic.make 0 in
  let mem = heap.Heap.mem in
  let claims = Array.make domains 0 in
  let races = Array.make domains 0 in
  let scanned = Array.make domains 0 in
  (* Claim [addr], returning its tospace address. The winner of the CAS
     allocates the frame and publishes the gray object on the worklist;
     losers wait for the winner's [Atomic.set]. *)
  let claim dom addr =
    let slot = index_of bases addr in
    let state = Atomic.get fwd.(slot) in
    if state >= 0 then state
    else if state = unclaimed && Atomic.compare_and_set fwd.(slot) unclaimed claiming
    then begin
      let size = Header.size mem.{addr} in
      let naddr = Atomic.fetch_and_add free size in
      if naddr + size > limit then failwith "Parallel_copy.collect: heap overflow";
      claims.(dom) <- claims.(dom) + 1;
      Atomic.incr pending;
      Atomic.set fwd.(slot) naddr;
      Worklist.push worklist (addr, naddr);
      naddr
    end
    else begin
      (* Lost the race (or the winner is mid-allocation): wait it out. *)
      races.(dom) <- races.(dom) + 1;
      let rec wait () =
        let v = Atomic.get fwd.(slot) in
        if v >= 0 then v
        else begin
          Domain.cpu_relax ();
          wait ()
        end
      in
      wait ()
    end
  in
  (* Scan one gray object: copy the body, translating pointer-area words
     (claiming unevacuated children), then blacken the copy. *)
  let scan dom src dst =
    let w0 = mem.{src} in
    let pi = Header.pi w0 and delta = Header.delta w0 in
    for i = 0 to pi - 1 do
      let child = mem.{src + Header.header_words + i} in
      let v = if child = Heap.null then Heap.null else claim dom child in
      mem.{dst + Header.header_words + i} <- v
    done;
    for i = pi to pi + delta - 1 do
      mem.{dst + Header.header_words + i} <- mem.{src + Header.header_words + i}
    done;
    mem.{dst} <- Header.encode ~state:Black ~pi ~delta;
    mem.{dst + 1} <- 0;
    scanned.(dom) <- scanned.(dom) + 1
  in
  (* Roots are claimed sequentially before the workers start (core 1 does
     the same in the coprocessor). *)
  let roots = heap.Heap.roots in
  Array.iteri
    (fun i r -> if r <> Heap.null then roots.(i) <- claim 0 r)
    roots;
  let worker dom =
    let rec loop () =
      match Worklist.pop worklist with
      | Some (src, dst) ->
        scan dom src dst;
        Atomic.decr pending;
        loop ()
      | None ->
        if Atomic.get pending = 0 then ()
        else begin
          Domain.cpu_relax ();
          loop ()
        end
    in
    loop ()
  in
  let t0 = Monotonic_clock.now () in
  ignore (Par.run ~domains worker);
  let elapsed_s =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
  in
  to_sp.Semispace.free <- Atomic.get free;
  Heap.flip heap;
  {
    domains;
    live_objects = Array.fold_left ( + ) 0 claims;
    live_words = Semispace.used (Heap.from_space heap);
    elapsed_s;
    per_domain_objects = scanned;
    cas_claims = Array.fold_left ( + ) 0 claims;
    cas_races_lost = Array.fold_left ( + ) 0 races;
  }
