(* The banked variant machine: per-bank sync blocks and memory lanes,
   concurrent superstep stepping, FIFO arbitration at barriers, and the
   differential (banked-vs-dense) semantic-equivalence harness. See
   banked.mli and docs/PARALLEL.md for the machine definition and the
   equivalence contract. *)

module H = Hsgc_heap.Heap
module Hdr = Hsgc_heap.Header
module Semispace = Hsgc_heap.Semispace
module Verify = Hsgc_heap.Verify
module Pool = Hsgc_sim.Domain_pool.Pool
module C = Coprocessor

let default_quantum = 512

type stats = {
  banks : int;
  lanes : int;
  quantum : int;
  supersteps : int;
  arb_rounds : int;
  remote_requests : int;
  remote_hits : int;
  arb_evacuations : int;
  root_routes : int;
  requeues : int;
  arb_cycles : int;
  root_cycles : int;
  stitch_cycles : int;
  parked_steps : int;
  fixups_applied : int;
  bank_cycles : int array;
  max_bank_cycles : int;
  per_bank : C.gc_stats array;
}

(* One bank of the machine: a complete private coprocessor over a view
   of the real heap. The view's fromspace is the bank's home range
   (fully occupied), its tospace the bank's evacuation slice; both
   share the real heap's memory array, and the ranges of distinct banks
   are disjoint, so concurrent bank stepping touches disjoint words. *)
type bank = {
  id : int;
  f_lo : int;  (* home fromspace range [f_lo, f_hi) *)
  f_hi : int;
  t_lo : int;  (* tospace slice base (old, pre-stitch coordinates) *)
  view : H.t;
  remote : C.remote;
  sim : C.sim;
}

(* --- bank construction ---------------------------------------------- *)

(* Cut the occupied fromspace into [banks] contiguous chunks of
   near-equal word counts, on object boundaries: boundary [b] is the
   first object start at least [b/banks] of the way through the
   occupied region. Returns [banks + 1] fenceposts. *)
let cut_home_ranges heap ~banks =
  let frm = H.from_space heap in
  let base = frm.Semispace.base and free = frm.Semispace.free in
  let occ = free - base in
  let bounds = Array.make (banks + 1) free in
  bounds.(0) <- base;
  let next = ref 1 in
  let a = ref base in
  while !a < free do
    while !next < banks && (!a - base) * banks >= !next * occ do
      bounds.(!next) <- !a;
      incr next
    done;
    a := !a + Hdr.size heap.H.mem.{!a}
  done;
  (* Chunks past the last object collapse to the empty range. *)
  while !next < banks do
    bounds.(!next) <- free;
    incr next
  done;
  bounds

let make_banks cfg heap ~banks =
  let bounds = cut_home_ranges heap ~banks in
  let tos = H.to_space heap in
  let cores_per_bank = cfg.C.n_cores / banks in
  let t_lo = ref tos.Semispace.base in
  Array.init banks (fun b ->
      let f_lo = bounds.(b) and f_hi = bounds.(b + 1) in
      let words = f_hi - f_lo in
      let fs = Semispace.create ~base:f_lo ~words in
      fs.Semispace.free <- f_hi;
      let slice_base = !t_lo in
      t_lo := !t_lo + words;
      let view =
        {
          H.mem = heap.H.mem;
          space_a = fs;
          space_b = Semispace.create ~base:slice_base ~words;
          a_is_current = true;
          roots = [||];
        }
      in
      let remote = C.remote_create ~bank:b ~lo:f_lo ~hi:f_hi in
      let cfg_b = { cfg with C.n_cores = cores_per_bank } in
      { id = b; f_lo; f_hi; t_lo = slice_base; view; remote;
        sim = C.start ~remote cfg_b view })

(* Home-bank lookup: largest bank whose home range starts at or below
   the address. Addresses are object starts inside the occupied
   fromspace, so the result's range always contains them. *)
let home_of bks addr =
  let lo = ref 0 and hi = ref (Array.length bks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if bks.(mid).f_lo <= addr then lo := mid else hi := mid - 1
  done;
  bks.(!lo)

(* --- the superstep driver ------------------------------------------- *)

exception Arbitration_deadlock

type driver = {
  bks : bank array;
  heap : H.t;
  pool : Pool.t;
  quantum : int;
  (* requests awaiting a retry after a [`Wait] (home bank held a
     conflicting lock mid-evacuation): (slot, child) pairs, processed
     ahead of freshly drained outboxes, in arrival order *)
  mutable pending : (int * int) list;
  mutable supersteps : int;
  mutable arb_rounds : int;
  mutable remote_hits : int;
  mutable arb_evacuations : int;
  mutable root_routes : int;
  mutable requeues : int;
  mutable arb_cycles : int;
  mutable root_cycles : int;
  mutable parked_steps : int;
  mutable fixups_applied : int;
}

(* Route one evacuation request through the global FIFO arbitration
   step: ensure the child has a tospace copy in its home bank and
   return its (old-coordinate) address, or [None] when the home bank
   holds a conflicting lock and the request must retry next barrier.
   [mutator_evacuate] is the coprocessor's between-cycles evacuation
   contract: it claims the bank's free register, grays both headers and
   pushes the bank's header FIFO — exactly the work the arbitration
   hardware would do, charged to the serial interface. *)
let route d ~child =
  let was_gray = H.obj_state d.heap child = Hdr.Gray in
  match C.mutator_evacuate (home_of d.bks child).sim child with
  | `Done (naddr, cost) ->
    d.arb_cycles <- d.arb_cycles + cost;
    if was_gray then d.remote_hits <- d.remote_hits + 1
    else d.arb_evacuations <- d.arb_evacuations + 1;
    Some naddr
  | `Wait -> None

(* Evacuate the root set through each root's home bank (arbitration
   round 0). Runs right after every bank has passed its start barrier;
   no bank holds any lock, so no [`Wait] is possible. *)
let route_roots d =
  let cycles0 = d.arb_cycles in
  Array.iteri
    (fun i r ->
      if r <> H.null then begin
        match route d ~child:r with
        | Some naddr ->
          d.heap.H.roots.(i) <- naddr;
          d.root_routes <- d.root_routes + 1
        | None -> raise Arbitration_deadlock
      end)
    d.heap.H.roots;
  d.root_cycles <- d.arb_cycles - cycles0

(* Drain every bank's outbox and resolve the accumulated requests in
   deterministic order: retries first, then fresh requests in bank
   order (within a bank, in push order). Every resolved request patches
   the stale slot (one modeled cycle). *)
let arbitrate d =
  let fresh = ref [] in
  Array.iter
    (fun b ->
      let r = b.remote in
      for i = 0 to r.C.rm_n - 1 do
        fresh := (r.C.rm_slots.(i), r.C.rm_children.(i)) :: !fresh
      done;
      r.C.rm_n <- 0)
    d.bks;
  let requests = d.pending @ List.rev !fresh in
  d.pending <- [];
  if requests <> [] then begin
    d.arb_rounds <- d.arb_rounds + 1;
    let resolved = ref 0 in
    List.iter
      (fun (slot, child) ->
        match route d ~child with
        | Some naddr ->
          d.heap.H.mem.{slot} <- naddr;
          d.arb_cycles <- d.arb_cycles + 1;
          d.fixups_applied <- d.fixups_applied + 1;
          incr resolved
        | None ->
          d.pending <- (slot, child) :: d.pending;
          d.requeues <- d.requeues + 1;
          d.arb_cycles <- d.arb_cycles + 1)
      requests;
    d.pending <- List.rev d.pending;
    (* Every [`Wait] names a lock some core holds mid-evacuation, so a
       round in which nothing resolved while every bank is quiescent
       (lock-free) cannot happen; guard against it anyway rather than
       spinning forever on a driver bug. *)
    if
      !resolved = 0
      && Array.for_all (fun b -> C.quiescent b.sim) d.bks
    then raise Arbitration_deadlock
  end

(* One parallel quantum: every non-quiescent bank advances by up to
   [quantum] step calls (each call is one cycle, or a fast-forward over
   a skippable span) on its round-robin pool lane. Quiescent banks are
   parked — not stepped at all — until arbitration refills their
   worklist. Bank state is touched only by its own lane during the
   quantum and only by the leader between quanta; the pool's mutex
   hand-off orders both directions. *)
let quantum_step d =
  let lanes = Pool.lanes d.pool in
  let todo = Array.map (fun b -> not (C.quiescent b.sim)) d.bks in
  Array.iteri
    (fun _ t -> if not t then d.parked_steps <- d.parked_steps + 1)
    todo;
  if Array.exists (fun t -> t) todo then
    Pool.run d.pool (fun lane ->
        Array.iter
          (fun b ->
            if b.id mod lanes = lane && todo.(b.id) then begin
              let steps = ref 0 in
              while
                !steps < d.quantum
                && (not (C.halted b.sim))
                && not (C.quiescent b.sim)
              do
                C.step b.sim;
                incr steps
              done
            end)
          d.bks)

let all_quiescent d = Array.for_all (fun b -> C.quiescent b.sim) d.bks

(* --- the final stitch ----------------------------------------------- *)

(* Close the inter-bank tospace gaps: slide each bank's evacuated block
   down (ascending bank order, so a destination never overlaps a
   not-yet-moved source), then rewrite every pointer — they carry
   old-slice coordinates — by its home slice's offset. Returns the
   compacted region's end and the modeled serial cost. *)
let stitch d ~live =
  let heap = d.heap in
  let tos_base = (H.to_space heap).Semispace.base in
  let n = Array.length d.bks in
  let old_lo = Array.map (fun b -> b.t_lo) d.bks in
  let new_lo = Array.make n 0 in
  let cum = ref tos_base in
  Array.iteri
    (fun b bk ->
      ignore bk;
      new_lo.(b) <- !cum;
      cum := !cum + live.(b))
    d.bks;
  let cycles = ref 0 in
  let moved = ref false in
  for b = 0 to n - 1 do
    if new_lo.(b) < old_lo.(b) && live.(b) > 0 then begin
      H.blit heap.H.mem ~src_pos:old_lo.(b) heap.H.mem ~dst_pos:new_lo.(b)
        ~len:live.(b);
      cycles := !cycles + live.(b);
      moved := true
    end
  done;
  if not !moved then (!cum, 0)
  else begin
  (* Translate an old-slice tospace address to its post-stitch home. *)
  let translate p =
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if old_lo.(mid) <= p then lo := mid else hi := mid - 1
    done;
    p - old_lo.(!lo) + new_lo.(!lo)
  in
  let a = ref tos_base in
  while !a < !cum do
    let h0 = heap.H.mem.{!a} in
    let pi = Hdr.pi h0 in
    for i = 0 to pi - 1 do
      let slot = !a + Hdr.header_words + i in
      let p = heap.H.mem.{slot} in
      if p <> H.null then begin
        heap.H.mem.{slot} <- translate p;
        incr cycles
      end
    done;
    a := !a + Hdr.size h0
  done;
  Array.iteri
    (fun i r ->
      if r <> H.null then begin
        heap.H.roots.(i) <- translate r;
        incr cycles
      end)
    heap.H.roots;
  (!cum, !cycles)
  end

(* --- aggregation ----------------------------------------------------- *)

let aggregate d ~per_bank ~wall ~stitch_cycles ~live_words =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 per_bank in
  let bank_cycles = Array.map (fun (s : C.gc_stats) -> s.C.total_cycles) per_bank in
  let max_bank_cycles = Array.fold_left max 0 bank_cycles in
  let findings =
    Array.fold_left
      (fun acc (s : C.gc_stats) -> acc @ s.C.sanitizer_findings)
      [] per_bank
  in
  let keep n xs =
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    take n xs
  in
  let agg =
    {
      C.total_cycles = max_bank_cycles + d.arb_cycles + stitch_cycles;
      executed_cycles = sum (fun s -> s.C.executed_cycles);
      skipped_cycles = sum (fun s -> s.C.skipped_cycles);
      wall_seconds = wall;
      root_cycles = d.root_cycles;
      empty_worklist_cycles = sum (fun s -> s.C.empty_worklist_cycles);
      per_core =
        Array.concat
          (Array.to_list (Array.map (fun (s : C.gc_stats) -> s.C.per_core) per_bank));
      live_objects = sum (fun s -> s.C.live_objects) + d.arb_evacuations;
      live_words;
      fifo_hits = sum (fun s -> s.C.fifo_hits);
      fifo_misses = sum (fun s -> s.C.fifo_misses);
      fifo_overflows = sum (fun s -> s.C.fifo_overflows);
      mem_loads = sum (fun s -> s.C.mem_loads);
      mem_stores = sum (fun s -> s.C.mem_stores);
      mem_rejected_bandwidth = sum (fun s -> s.C.mem_rejected_bandwidth);
      mem_rejected_order = sum (fun s -> s.C.mem_rejected_order);
      header_cache_hits = sum (fun s -> s.C.header_cache_hits);
      header_cache_misses = sum (fun s -> s.C.header_cache_misses);
      faults_injected = sum (fun s -> s.C.faults_injected);
      corruptions_injected = sum (fun s -> s.C.corruptions_injected);
      sanitizer_findings = keep 64 findings;
      sanitizer_total = sum (fun s -> s.C.sanitizer_total);
    }
  in
  let remote_requests =
    Array.fold_left (fun acc b -> acc + b.remote.C.rm_requests) 0 d.bks
  in
  ( agg,
    {
      banks = Array.length d.bks;
      lanes = Pool.lanes d.pool;
      quantum = d.quantum;
      supersteps = d.supersteps;
      arb_rounds = d.arb_rounds;
      remote_requests;
      remote_hits = d.remote_hits;
      arb_evacuations = d.arb_evacuations;
      root_routes = d.root_routes;
      requeues = d.requeues;
      arb_cycles = d.arb_cycles;
      root_cycles = d.root_cycles;
      stitch_cycles;
      parked_steps = d.parked_steps;
      fixups_applied = d.fixups_applied;
      bank_cycles;
      max_bank_cycles;
      per_bank;
    } )

(* --- the run --------------------------------------------------------- *)

(* Largest divisor of [n] not above [p] ([p >= 1]). *)
let rec divisor_at_most n p = if n mod p = 0 then p else divisor_at_most n (p - 1)

let validate_banks ~n_cores ~banks =
  if n_cores < 1 then
    Error (Printf.sprintf "core count must be >= 1 (got %d)" n_cores)
  else if banks < 1 then
    Error (Printf.sprintf "bank count must be >= 1 (got %d)" banks)
  else if banks > n_cores then
    Error
      (Printf.sprintf "bank count (%d) exceeds the core count (%d)" banks
         n_cores)
  else if n_cores mod banks <> 0 then
    Error
      (Printf.sprintf
         "banked mode requires the bank count to divide the core count: %d \
          cores cannot be split into %d equal banks (try %d)"
         n_cores banks
         (divisor_at_most n_cores banks))
  else Ok ()

let default_banks ~n_cores =
  divisor_at_most n_cores
    (max 1 (min n_cores (Hsgc_sim.Domain_pool.recommended_jobs ())))

let validate_config cfg ~banks =
  (match validate_banks ~n_cores:cfg.C.n_cores ~banks with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Banked.collect: " ^ msg));
  if cfg.C.scan_unit <> None then
    invalid_arg "Banked.collect: sub-object scanning has no banked variant"

let collect ?(lanes = 0) ?(quantum = default_quantum) ~banks cfg heap =
  validate_config cfg ~banks;
  if quantum < 1 then invalid_arg "Banked.collect: quantum must be >= 1";
  let wall_start = Monotonic_clock.now () in
  let lanes =
    if lanes <= 0 then Hsgc_sim.Domain_pool.resolve_jobs ~limit:banks 0
    else min lanes banks
  in
  Pool.with_pool ~lanes (fun pool ->
      let bks = make_banks cfg heap ~banks in
      let d =
        {
          bks;
          heap;
          pool;
          quantum;
          pending = [];
          supersteps = 0;
          arb_rounds = 0;
          remote_hits = 0;
          arb_evacuations = 0;
          root_routes = 0;
          requeues = 0;
          arb_cycles = 0;
          root_cycles = 0;
          parked_steps = 0;
          fixups_applied = 0;
        }
      in
      (* Bootstrap: run each bank to its start barrier (empty root
         phase), so scan/free are initialized and evacuations can be
         accepted. *)
      Array.iter
        (fun b ->
          while not (C.roots_done b.sim) do
            C.step b.sim
          done)
        bks;
      route_roots d;
      (* Supersteps until global quiescence with no request in flight. *)
      while not (all_quiescent d && d.pending = []) do
        d.supersteps <- d.supersteps + 1;
        quantum_step d;
        arbitrate d
      done;
      (* Grant termination and run every bank down to its end barrier. *)
      Array.iter (fun b -> b.remote.C.rm_allow_finish <- true) bks;
      Pool.run pool (fun lane ->
          Array.iter
            (fun b ->
              if b.id mod lanes = lane then
                while not (C.halted b.sim) do
                  C.step b.sim
                done)
            bks);
      let per_bank = Array.map (fun b -> C.finalize b.sim) bks in
      let live = Array.map (fun (s : C.gc_stats) -> s.C.live_words) per_bank in
      let free, stitch_cycles = stitch d ~live in
      let tos = H.to_space heap in
      tos.Semispace.free <- free;
      H.flip heap;
      let live_words = Semispace.used (H.from_space heap) in
      let wall =
        Int64.to_float (Int64.sub (Monotonic_clock.now ()) wall_start)
        *. 1e-9
      in
      aggregate d ~per_bank ~wall ~stitch_cycles ~live_words)

(* --- the differential harness ---------------------------------------- *)

let sum_counters (g : C.gc_stats) f =
  Array.fold_left (fun acc c -> acc + f c) 0 g.C.per_core

let objects_scanned g = sum_counters g (fun c -> c.Counters.objects_scanned)
let words_copied g = sum_counters g (fun c -> c.Counters.words_copied)

type equivalence = {
  eq_verify : (unit, Verify.failure) result;
  eq_snapshot : bool;
  eq_live_objects : bool;
  eq_live_words : bool;
  eq_objects_scanned : bool;
  eq_words_copied : bool;
  eq_arbitration : bool;
}

let equivalent e =
  (match e.eq_verify with Ok () -> true | Error _ -> false)
  && e.eq_snapshot && e.eq_live_objects && e.eq_live_words
  && e.eq_objects_scanned && e.eq_words_copied && e.eq_arbitration

let pp_equivalence ppf e =
  let b name v = Format.fprintf ppf " %s=%s" name (if v then "ok" else "FAIL") in
  Format.fprintf ppf "equivalence:";
  (match e.eq_verify with
  | Ok () -> b "verify" true
  | Error f -> Format.fprintf ppf " verify=FAIL(%a)" Verify.pp_failure f);
  b "snapshot" e.eq_snapshot;
  b "live-objects" e.eq_live_objects;
  b "live-words" e.eq_live_words;
  b "objects-scanned" e.eq_objects_scanned;
  b "words-copied" e.eq_words_copied;
  b "arbitration" e.eq_arbitration

type comparison = {
  c_dense : C.gc_stats;
  c_banked : C.gc_stats;
  c_bstats : stats;
  c_equiv : equivalence;
}

let check_equivalence ~pre ~dense ~banked ~bstats ~dense_heap ~banked_heap =
  let verify = Verify.check_collection ~pre banked_heap in
  let snap_ok =
    match verify with
    | Error _ -> false
    | Ok () ->
      Verify.equal_snapshot (Verify.snapshot dense_heap)
        (Verify.snapshot banked_heap)
  in
  {
    eq_verify = verify;
    eq_snapshot = snap_ok;
    eq_live_objects = dense.C.live_objects = banked.C.live_objects;
    eq_live_words = dense.C.live_words = banked.C.live_words;
    eq_objects_scanned = objects_scanned dense = objects_scanned banked;
    eq_words_copied = words_copied dense = words_copied banked;
    eq_arbitration =
      bstats.remote_requests = bstats.fixups_applied
      && bstats.remote_hits + bstats.arb_evacuations
         = bstats.fixups_applied + bstats.root_routes;
  }

let differential ?lanes ?quantum ~banks cfg build =
  let dense_heap = build () in
  let banked_heap = build () in
  let pre = Verify.snapshot banked_heap in
  let c_dense = C.collect cfg dense_heap in
  let c_banked, c_bstats = collect ?lanes ?quantum ~banks cfg banked_heap in
  let c_equiv =
    check_equivalence ~pre ~dense:c_dense ~banked:c_banked ~bstats:c_bstats
      ~dense_heap ~banked_heap
  in
  { c_dense; c_banked; c_bstats; c_equiv }

let pp_stats ppf s =
  Format.fprintf ppf
    "banked machine: %d banks x %d cores, %d lanes, quantum %d@\n\
     supersteps %d (parked bank-slots %d), arbitration rounds %d@\n\
     remote requests %d (hits %d, evacuations %d, requeues %d), roots routed \
     %d@\n\
     serial cycles: arbitration %d (roots %d) + stitch %d; max bank cycles %d"
    s.banks
    (match Array.length s.per_bank with
    | 0 -> 0
    | _ -> Array.length s.per_bank.(0).C.per_core)
    s.lanes s.quantum s.supersteps s.parked_steps s.arb_rounds s.remote_requests
    s.remote_hits s.arb_evacuations s.requeues s.root_routes s.arb_cycles
    s.root_cycles s.stitch_cycles s.max_bank_cycles
