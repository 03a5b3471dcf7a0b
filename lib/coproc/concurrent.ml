module H = Hsgc_heap.Heap
module Hdr = Hsgc_heap.Header
module Rng = Hsgc_util.Rng

type config = {
  gc : Coprocessor.config;
  mutator_period : int;
  alloc_percent : int;
  registers : int;
  seed : int;
}

let default_config ?(n_cores = 8) () =
  {
    gc = Coprocessor.config ~n_cores ();
    mutator_period = 4;
    alloc_percent = 30;
    registers = 16;
    seed = 42;
  }

type stats = {
  gc : Coprocessor.gc_stats;
  pause_cycles : int;
  barrier_evacuations : int;
  mutator_reads : int;
  mutator_allocs : int;
  mutator_busy_cycles : int;
  mutator_wait_cycles : int;
  new_objects : (int * int array * int array) list;
}

(* One mutator operation; returns the main-processor cost, or None when a
   lock conflict forces a retry on a later cycle. *)
type mutator = {
  rng : Rng.t;
  regs : int array;
  heap : H.t;
  sim : Coprocessor.sim;
  mutable evacs : int;
  mutable reads : int;
  mutable allocs : int;
  mutable rev_new : (int * int array * int array) list;
}

let pick_register m =
  (* a non-null register, if any *)
  let n = Array.length m.regs in
  let start = Rng.int m.rng n in
  let rec go i =
    if i = n then None
    else
      let r = m.regs.((start + i) mod n) in
      if r <> H.null then Some r else go (i + 1)
  in
  go 0

let do_read m =
  match pick_register m with
  | None -> Some 1
  | Some obj ->
    let w0 = H.header0 m.heap obj in
    let pi = Hdr.pi w0 in
    if pi = 0 then Some 1
    else begin
      let slot = Rng.int m.rng pi in
      match Hdr.state w0 with
      | Black ->
        (* fully copied (or allocated black): the tospace body is valid
           and holds tospace references only *)
        let v = H.get_pointer m.heap obj slot in
        m.reads <- m.reads + 1;
        if v <> H.null then m.regs.(Rng.int m.rng (Array.length m.regs)) <- v;
        Some 2
      | Gray ->
        (* body not copied yet: read through the backlink; a fromspace
           value must be evacuated before the mutator may hold it *)
        let orig = H.header1 m.heap obj in
        let v = H.read m.heap (orig + Hdr.header_words + slot) in
        if v = H.null then begin
          m.reads <- m.reads + 1;
          Some 3
        end
        else begin
          match Coprocessor.mutator_evacuate m.sim v with
          | `Done (taddr, cost) ->
            m.reads <- m.reads + 1;
            m.evacs <- m.evacs + 1;
            m.regs.(Rng.int m.rng (Array.length m.regs)) <- taddr;
            Some (3 + cost)
          | `Wait -> None
        end
      | White ->
        failwith "Concurrent: mutator held a fromspace reference (bug)"
    end

let do_alloc m =
  let pi = Rng.int m.rng 4 in
  let delta = Rng.int m.rng 6 in
  match Coprocessor.mutator_alloc m.sim ~pi ~delta with
  | `Wait -> None
  | `Done (addr, cost) ->
    m.allocs <- m.allocs + 1;
    let children =
      Array.init pi (fun slot ->
          let v =
            if Rng.bool m.rng then
              match pick_register m with Some r -> r | None -> H.null
            else H.null
          in
          H.set_pointer m.heap addr slot v;
          v)
    in
    let data =
      Array.init delta (fun i ->
          let v = 0x2ACE0000 lor ((addr + i) land 0xFFFF) in
          H.set_data m.heap addr i v;
          v)
    in
    m.rev_new <- (addr, children, data) :: m.rev_new;
    m.regs.(Rng.int m.rng (Array.length m.regs)) <- addr;
    Some (cost + 2)

let collect cfg heap =
  if cfg.mutator_period < 1 then invalid_arg "Concurrent.collect: period";
  if cfg.registers < 1 then invalid_arg "Concurrent.collect: registers";
  let sim = Coprocessor.start cfg.gc heap in
  (* Stop-the-world prefix: the root phase. *)
  while (not (Coprocessor.roots_done sim)) && not (Coprocessor.halted sim) do
    Coprocessor.step sim
  done;
  let pause_cycles = Coprocessor.now sim in
  let m =
    {
      rng = Rng.create cfg.seed;
      regs =
        Array.init cfg.registers (fun i ->
            let roots = heap.H.roots in
            if Array.length roots = 0 then H.null
            else roots.(i mod Array.length roots));
      heap;
      sim;
      evacs = 0;
      reads = 0;
      allocs = 0;
      rev_new = [];
    }
  in
  let busy = ref 0 and wait = ref 0 in
  let next_op = ref pause_cycles in
  while not (Coprocessor.halted sim) do
    if Coprocessor.now sim >= !next_op then begin
      let op =
        if Rng.int m.rng 100 < cfg.alloc_percent then do_alloc m else do_read m
      in
      match op with
      | Some cost ->
        busy := !busy + cost;
        next_op := Coprocessor.now sim + max cfg.mutator_period cost
      | None ->
        (* lock conflict: the main processor retries next cycle *)
        incr wait;
        next_op := Coprocessor.now sim + 1
    end;
    (* The mutator is an event the coprocessor's idle-cycle skipping
       cannot see: cap any fast-forward at the next operation's cycle so
       mutator operations land on exactly the same cycle numbers as under
       naive stepping. *)
    Coprocessor.step ~horizon:!next_op sim
  done;
  let gc = Coprocessor.finalize sim in
  (* The register file keeps its objects alive into the next cycle. *)
  Array.iter (fun r -> if r <> H.null then H.add_root heap r) m.regs;
  {
    gc;
    pause_cycles;
    barrier_evacuations = m.evacs;
    mutator_reads = m.reads;
    mutator_allocs = m.allocs;
    mutator_busy_cycles = !busy;
    mutator_wait_cycles = !wait;
    new_objects = List.rev m.rev_new;
  }

let check_new_objects heap stats =
  let check_one (addr, children, data) =
    let w0 = H.header0 heap addr in
    if not (Hdr.equal_state (Hdr.state w0) Black) then
      Error (Printf.sprintf "new object %d is not black" addr)
    else if Hdr.pi w0 <> Array.length children then
      Error (Printf.sprintf "new object %d: pi mismatch" addr)
    else if Hdr.delta w0 <> Array.length data then
      Error (Printf.sprintf "new object %d: delta mismatch" addr)
    else begin
      let bad = ref None in
      Array.iteri
        (fun slot expected ->
          if H.get_pointer heap addr slot <> expected then
            bad := Some (Printf.sprintf "new object %d: pointer slot %d" addr slot))
        children;
      Array.iteri
        (fun i expected ->
          if H.get_data heap addr i <> expected then
            bad := Some (Printf.sprintf "new object %d: data word %d" addr i))
        data;
      match !bad with None -> Ok () | Some msg -> Error msg
    end
  in
  List.fold_left
    (fun acc obj -> match acc with Error _ -> acc | Ok () -> check_one obj)
    (Ok ()) stats.new_objects
