(* Tests for the shared simulation kernel (Hsgc_sim): clock accounting,
   the event wheel, the domain pool, and — the load-bearing property —
   that idle-cycle skipping and domain-parallel sweeps leave every
   simulation statistic, the post-collection heap and the trace digest
   bit-identical to naive stepping. *)

module Kernel = Hsgc_sim.Kernel
module Wheel = Hsgc_sim.Wheel
module Wake_queue = Hsgc_sim.Wake_queue
module Domain_pool = Hsgc_sim.Domain_pool
module Pool = Domain_pool.Pool
module Coprocessor = Hsgc_coproc.Coprocessor
module Counters = Hsgc_coproc.Counters
module Concurrent = Hsgc_coproc.Concurrent
module Memsys = Hsgc_memsim.Memsys
module Injector = Hsgc_fault.Injector
module Tracer = Hsgc_obs.Tracer
module Plan = Hsgc_objgraph.Plan
module Workloads = Hsgc_objgraph.Workloads
module Verify = Hsgc_heap.Verify
module Experiment = Hsgc_core.Experiment
module Report = Hsgc_core.Report

(* ------------------------------------------------------------------ *)
(* Kernel clock                                                        *)
(* ------------------------------------------------------------------ *)

let test_clock_accounting () =
  let k = Kernel.create () in
  Alcotest.(check int) "starts at 0" 0 (Kernel.now k);
  Kernel.tick k;
  Kernel.tick k;
  Alcotest.(check int) "two ticks" 2 (Kernel.now k);
  let span = Kernel.fast_forward k ~target:10 in
  Alcotest.(check int) "skipped span" 8 span;
  Alcotest.(check int) "now at target" 10 (Kernel.now k);
  Alcotest.(check int) "executed" 2 (Kernel.executed_cycles k);
  Alcotest.(check int) "skipped" 8 (Kernel.skipped_cycles k);
  Alcotest.(check int) "now = executed + skipped" (Kernel.now k)
    (Kernel.executed_cycles k + Kernel.skipped_cycles k);
  Alcotest.(check int) "backward target is a no-op" 0
    (Kernel.fast_forward k ~target:5);
  Alcotest.(check int) "now unchanged" 10 (Kernel.now k)

let test_clock_helpers () =
  Alcotest.(check (option int)) "min_wake both" (Some 3)
    (Wake_queue.min_wake (Some 7) (Some 3));
  Alcotest.(check (option int)) "min_wake left" (Some 7)
    (Wake_queue.min_wake (Some 7) None);
  Alcotest.(check (option int)) "min_wake none" None
    (Wake_queue.min_wake None None);
  Alcotest.(check int) "bound none" 9 (Wake_queue.bound ~horizon:None 9);
  Alcotest.(check int) "bound caps" 4 (Wake_queue.bound ~horizon:(Some 4) 9);
  Alcotest.(check int) "bound above" 9 (Wake_queue.bound ~horizon:(Some 12) 9)

(* ------------------------------------------------------------------ *)
(* Event wheel                                                         *)
(* ------------------------------------------------------------------ *)

let test_wheel_ordering () =
  let w = Wheel.create () in
  Alcotest.(check bool) "fresh wheel empty" true (Wheel.is_empty w);
  List.iter
    (fun (t, v) -> Wheel.push w ~time:t v)
    [ (5, "e"); (1, "a"); (9, "x"); (3, "c"); (1, "b") ];
  Alcotest.(check int) "size" 5 (Wheel.size w);
  Alcotest.(check (option int)) "min_time" (Some 1) (Wheel.min_time w);
  let times = ref [] in
  while not (Wheel.is_empty w) do
    let t, _ = Wheel.pop_exn w in
    times := t :: !times
  done;
  Alcotest.(check (list int)) "times nondecreasing" [ 1; 1; 3; 5; 9 ]
    (List.rev !times)

let qcheck_wheel_sorts =
  QCheck.Test.make ~name:"wheel pops in nondecreasing time order" ~count:100
    QCheck.(small_list small_nat)
    (fun times ->
      let w = Wheel.create () in
      List.iteri (fun i t -> Wheel.push w ~time:t i) times;
      let rec drain prev =
        if Wheel.is_empty w then true
        else
          let t, _ = Wheel.pop_exn w in
          t >= prev && drain t
      in
      Wheel.size w = List.length times && drain min_int)

let qcheck_wheel_interleaved =
  QCheck.Test.make
    ~name:"wheel matches a sorted model under random push/pop interleavings"
    ~count:200
    QCheck.(small_list (pair bool small_nat))
    (fun ops ->
      (* [true] = pop (when non-empty), [false] = push. The model is a
         sorted multiset of times; every pop must yield its head. *)
      let w = Wheel.create () in
      let model = ref [] in
      let ok = ref true in
      List.iteri
        (fun i (is_pop, time) ->
          if is_pop then begin
            if not (Wheel.is_empty w) then begin
              let t, _ = Wheel.pop_exn w in
              match !model with
              | [] -> ok := false
              | m :: rest ->
                if t <> m then ok := false;
                model := rest
            end
          end
          else begin
            Wheel.push w ~time i;
            model := List.sort compare (time :: !model)
          end)
        ops;
      !ok && Wheel.size w = List.length !model)

let test_wheel_growth () =
  (* The backing arrays start at capacity 64; pushing 1000 entries in
     reverse time order exercises the growth path and worst-case
     sift-ups, and the drain must still be perfectly sorted. *)
  let w = Wheel.create () in
  let n = 1000 in
  for i = n downto 1 do
    Wheel.push w ~time:i i
  done;
  Alcotest.(check int) "size after growth" n (Wheel.size w);
  for i = 1 to n do
    let t, v = Wheel.pop_exn w in
    if t <> i || v <> i then
      Alcotest.failf "pop %d returned (%d, %d)" i t v
  done;
  Alcotest.(check bool) "drained" true (Wheel.is_empty w)

(* ------------------------------------------------------------------ *)
(* Wake queue: both regimes, lazy invalidation                         *)
(* ------------------------------------------------------------------ *)

let test_wakeq_scan_regime () =
  let q = Wake_queue.create ~n:4 in
  Alcotest.(check int) "no heap below the threshold" 0
    (Wake_queue.heap_entries q);
  Alcotest.(check int) "fresh queue: nothing armed" max_int
    (Wake_queue.next_after q ~now:0);
  Wake_queue.arm q ~id:0 ~time:9;
  Wake_queue.arm q ~id:1 ~time:5;
  Wake_queue.arm q ~id:0 ~time:3;
  (* re-arm supersedes *)
  Alcotest.(check int) "still no heap" 0 (Wake_queue.heap_entries q);
  Alcotest.(check int) "min over armed wakes" 3
    (Wake_queue.next_after q ~now:0);
  Alcotest.(check int) "strictly-future filter" 5
    (Wake_queue.next_after q ~now:3);
  Alcotest.(check int) "wake_of sees the re-arm" 3 (Wake_queue.wake_of q ~id:0);
  Alcotest.(check int) "pending counts future wakes" 2
    (Wake_queue.pending q ~now:0);
  Wake_queue.disarm q ~id:1;
  Alcotest.(check int) "disarmed wakes are invisible" max_int
    (Wake_queue.next_after q ~now:3)

let test_wakeq_lazy_invalidation () =
  (* Heap regime: populations beyond [scan_threshold] keep a min-heap
     with lazy deletion — re-arms and disarms leave stale entries behind
     that [next_after] prunes when they surface. *)
  let n = Wake_queue.scan_threshold + 10 in
  let q = Wake_queue.create ~n in
  Wake_queue.arm q ~id:3 ~time:50;
  Wake_queue.arm q ~id:3 ~time:20;
  Wake_queue.arm q ~id:7 ~time:30;
  Alcotest.(check int) "superseded entry lingers in the heap" 3
    (Wake_queue.heap_entries q);
  Alcotest.(check int) "armed array wins over stale entries" 20
    (Wake_queue.next_after q ~now:0);
  Wake_queue.disarm q ~id:3;
  Alcotest.(check int) "disarm is lazy: next_after skips the ghost" 30
    (Wake_queue.next_after q ~now:0);
  Alcotest.(check bool) "pruning discarded the ghost" true
    (Wake_queue.heap_entries q <= 2);
  Alcotest.(check int) "past and stale wakes both invisible" max_int
    (Wake_queue.next_after q ~now:30);
  Alcotest.(check int) "fully pruned" 0 (Wake_queue.heap_entries q)

let qcheck_wakeq_matches_model =
  QCheck.Test.make
    ~name:"wake queue next_after matches a brute-force scan in both regimes"
    ~count:150
    QCheck.(
      pair (oneofl [ 8; 100 ])
        (small_list (pair (int_bound 7) (int_bound 40))))
    (fun (n, ops) ->
      (* ids 0..7 armed/disarmed arbitrarily; time 0 means disarm. With
         n=8 the queue scans, with n=100 it runs the lazy heap — both
         must agree with the obvious model at every step. *)
      let q = Wake_queue.create ~n in
      let model = Array.make n max_int in
      List.for_all
        (fun (id, time) ->
          if time = 0 then begin
            Wake_queue.disarm q ~id;
            model.(id) <- max_int
          end
          else begin
            Wake_queue.arm q ~id ~time;
            model.(id) <- time
          end;
          (* Query at now=0 only: the heap regime prunes entries at or
             before the queried [now] for good (legal because the
             kernel's clock is monotonic), so a model test must not
             rewind time. *)
          let expect =
            Array.fold_left
              (fun acc w -> if w < acc then w else acc)
              max_int model
          in
          Wake_queue.next_after q ~now:0 = expect)
        ops)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_matches_map () =
  let xs = List.init 23 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d equals List.map" jobs)
        (List.map f xs)
        (Domain_pool.map_list ~jobs f xs))
    [ 1; 2; 4; 8; 40 ]

let test_pool_run () =
  Pool.with_pool ~lanes:4 (fun pool ->
      Alcotest.(check int) "lanes" 4 (Pool.lanes pool);
      let hits = Array.make 4 0 in
      (* Reusable across rounds: same pool, fresh work each time. Each
         lane writes its own slot; the mutex hand-off makes the workers'
         writes visible here once [run] returns. *)
      for _round = 1 to 3 do
        Pool.run pool (fun lane -> hits.(lane) <- hits.(lane) + 1)
      done;
      Alcotest.(check (list int)) "every lane ran every round" [ 3; 3; 3; 3 ]
        (Array.to_list hits));
  (* One lane spawns no domain: run is a plain call on lane 0. *)
  Pool.with_pool ~lanes:1 (fun pool ->
      let seen = ref [] in
      Pool.run pool (fun lane -> seen := lane :: !seen);
      Alcotest.(check (list int)) "single lane runs inline" [ 0 ] !seen)

exception Lane_boom of int

let test_pool_run_exceptions () =
  Pool.with_pool ~lanes:4 (fun pool ->
      (* Lowest failing lane wins deterministically. *)
      (match
         Pool.run pool (fun lane ->
             if lane mod 2 = 1 then raise (Lane_boom lane))
       with
      | () -> Alcotest.fail "expected an exception"
      | exception Lane_boom l ->
        Alcotest.(check int) "lowest failing lane" 1 l);
      (* The pool survives a failed round. *)
      let ok = Array.make 4 0 in
      Pool.run pool (fun lane -> ok.(lane) <- 1);
      Alcotest.(check int) "pool usable after failure" 4
        (Array.fold_left ( + ) 0 ok));
  (* Shutdown is idempotent, and a shut-down pool refuses work. *)
  let pool = Pool.create ~lanes:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.run pool (fun _ -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "run after shutdown must raise"

let test_resolve_jobs () =
  Alcotest.(check int) "explicit within limit" 3
    (Domain_pool.resolve_jobs ~limit:10 3);
  Alcotest.(check int) "explicit clamped" 4 (Domain_pool.resolve_jobs ~limit:4 99);
  let auto = Domain_pool.resolve_jobs ~limit:4 0 in
  if auto < 1 || auto > 4 then Alcotest.failf "auto out of range: %d" auto;
  Alcotest.(check int) "limit floor" 1 (Domain_pool.resolve_jobs ~limit:0 0);
  if Domain_pool.recommended_jobs () < 1 then
    Alcotest.fail "recommended_jobs must be >= 1"

exception Boom of int

let test_pool_exception () =
  (* The earliest-index failure is the one re-raised, regardless of
     completion order. *)
  let xs = List.init 12 (fun i -> i) in
  let f x = if x mod 3 = 2 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Domain_pool.map_list ~jobs f xs with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d reports earliest failure" jobs)
          2 i)
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Idle-cycle skipping: exact equivalence with naive stepping          *)
(* ------------------------------------------------------------------ *)

(* Everything in gc_stats except the kernel-observability fields
   (executed/skipped split and wall time) must be bit-identical. *)
let check_stats_equal ?(ref_name = "naive") ?(other_name = "skip") ctx
    (a : Coprocessor.gc_stats) (b : Coprocessor.gc_stats) =
  let chk name x y =
    if x <> y then
      Alcotest.failf "%s: %s differs (%s %d, %s %d)" ctx name ref_name x
        other_name y
  in
  chk "total_cycles" a.Coprocessor.total_cycles b.Coprocessor.total_cycles;
  chk "root_cycles" a.Coprocessor.root_cycles b.Coprocessor.root_cycles;
  chk "empty_worklist_cycles" a.Coprocessor.empty_worklist_cycles
    b.Coprocessor.empty_worklist_cycles;
  chk "live_objects" a.Coprocessor.live_objects b.Coprocessor.live_objects;
  chk "live_words" a.Coprocessor.live_words b.Coprocessor.live_words;
  chk "fifo_hits" a.Coprocessor.fifo_hits b.Coprocessor.fifo_hits;
  chk "fifo_misses" a.Coprocessor.fifo_misses b.Coprocessor.fifo_misses;
  chk "fifo_overflows" a.Coprocessor.fifo_overflows
    b.Coprocessor.fifo_overflows;
  chk "mem_loads" a.Coprocessor.mem_loads b.Coprocessor.mem_loads;
  chk "mem_stores" a.Coprocessor.mem_stores b.Coprocessor.mem_stores;
  chk "mem_rejected_bandwidth" a.Coprocessor.mem_rejected_bandwidth
    b.Coprocessor.mem_rejected_bandwidth;
  chk "mem_rejected_order" a.Coprocessor.mem_rejected_order
    b.Coprocessor.mem_rejected_order;
  chk "header_cache_hits" a.Coprocessor.header_cache_hits
    b.Coprocessor.header_cache_hits;
  chk "header_cache_misses" a.Coprocessor.header_cache_misses
    b.Coprocessor.header_cache_misses;
  chk "faults_injected" a.Coprocessor.faults_injected
    b.Coprocessor.faults_injected;
  chk "corruptions_injected" a.Coprocessor.corruptions_injected
    b.Coprocessor.corruptions_injected;
  Array.iteri
    (fun i ca ->
      let cb = b.Coprocessor.per_core.(i) in
      List.iter
        (fun s ->
          if Counters.get ca s <> Counters.get cb s then
            Alcotest.failf "%s: core %d %s stalls differ (%s %d, %s %d)" ctx
              i (Counters.stall_name s) ref_name (Counters.get ca s)
              other_name (Counters.get cb s))
        Counters.all_stalls;
      if ca.Counters.busy_cycles <> cb.Counters.busy_cycles then
        Alcotest.failf "%s: core %d busy_cycles differ" ctx i;
      if ca.Counters.objects_scanned <> cb.Counters.objects_scanned then
        Alcotest.failf "%s: core %d objects_scanned differ" ctx i;
      if ca.Counters.objects_evacuated <> cb.Counters.objects_evacuated then
        Alcotest.failf "%s: core %d objects_evacuated differ" ctx i;
      if ca.Counters.words_copied <> cb.Counters.words_copied then
        Alcotest.failf "%s: core %d words_copied differ" ctx i)
    a.Coprocessor.per_core;
  (* The split itself must account for every cycle. *)
  if
    b.Coprocessor.executed_cycles + b.Coprocessor.skipped_cycles
    <> b.Coprocessor.total_cycles
  then Alcotest.failf "%s: executed + skipped <> total" ctx

(* A random object graph of [n] objects: up to 3 pointer slots and 4
   data words each, 70 % of slots linked, 1-3 roots. *)
let random_plan ~n ~seed =
  let rng = Hsgc_util.Rng.create (seed + 1) in
  let plan = Plan.create () in
  let ids =
    Array.init n (fun _ ->
        Plan.obj plan
          ~pi:(Hsgc_util.Rng.int rng 4)
          ~delta:(Hsgc_util.Rng.int rng 5))
  in
  Array.iter
    (fun id ->
      for slot = 0 to Plan.pi_of plan id - 1 do
        if Hsgc_util.Rng.int rng 100 < 70 then
          Plan.link plan ~parent:id ~slot ~child:ids.(Hsgc_util.Rng.int rng n)
      done)
    ids;
  for _ = 1 to 1 + Hsgc_util.Rng.int rng 3 do
    Plan.add_root plan ids.(Hsgc_util.Rng.int rng n)
  done;
  plan

let collect_both ~mem ?scan_unit ~n_cores plan =
  let run skip =
    let heap = Plan.materialize plan in
    let stats =
      Coprocessor.collect
        (Coprocessor.config ~mem ?scan_unit ~skip ~n_cores ())
        heap
    in
    (stats, Verify.snapshot heap)
  in
  let naive, snap_naive = run false in
  let skip, snap_skip = run true in
  (naive, skip, snap_naive, snap_skip)

let qcheck_skip_equivalent =
  QCheck.Test.make
    ~name:"idle-cycle skipping is cycle-exact on random graphs and configs"
    ~count:60
    (QCheck.make
       ~print:(fun ((n, s), (nc, su, ca, el, bw, ff)) ->
         Printf.sprintf
           "graph(n=%d seed=%d) cores=%d unit=%s cache=%d lat+%d bw=%d fifo=%d"
           n s nc
           (match su with None -> "-" | Some u -> string_of_int u)
           ca el bw ff)
       QCheck.Gen.(
         let gen_plan =
           let* n = int_range 1 60 in
           let* seed = small_nat in
           return (n, seed)
         in
         let gen_config =
           let* n_cores = int_range 1 16 in
           let* scan_unit = oneofl [ None; Some 1; Some 4; Some 32 ] in
           let* cache = oneofl [ 0; 8; 1024 ] in
           let* extra_latency = oneofl [ 0; 3; 20 ] in
           let* bandwidth = oneofl [ 1; 4; 8 ] in
           let* fifo = oneofl [ 2; 64; 32768 ] in
           return (n_cores, scan_unit, cache, extra_latency, bandwidth, fifo)
         in
         pair gen_plan gen_config))
    (fun ((n, seed), (n_cores, scan_unit, cache, extra_latency, bandwidth, fifo))
    ->
      let plan = random_plan ~n ~seed in
      let mem =
        Memsys.with_extra_latency
          {
            Memsys.default_config with
            Memsys.bandwidth;
            fifo_capacity = fifo;
            header_cache_entries = cache;
          }
          extra_latency
      in
      let naive, skip, snap_naive, snap_skip =
        collect_both ~mem ?scan_unit ~n_cores plan
      in
      check_stats_equal "random config" naive skip;
      Verify.equal_snapshot snap_naive snap_skip)

let test_skip_equivalent_on_workloads () =
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          let run skip =
            let heap = Workloads.build_heap ~scale:0.03 ~seed:7 w in
            Coprocessor.collect (Coprocessor.config ~skip ~n_cores ()) heap
          in
          check_stats_equal
            (Printf.sprintf "%s at %d cores" w.Workloads.name n_cores)
            (run false) (run true))
        [ 1; 4; 16 ])
    Workloads.all

let test_skip_equivalent_latency_bound () =
  let mem = Memsys.with_extra_latency Memsys.default_config 20 in
  List.iter
    (fun n_cores ->
      let run skip =
        let heap = Workloads.build_heap ~scale:0.03 ~seed:7 Workloads.db in
        Coprocessor.collect (Coprocessor.config ~mem ~skip ~n_cores ()) heap
      in
      check_stats_equal
        (Printf.sprintf "latency-bound db at %d cores" n_cores)
        (run false) (run true))
    [ 1; 8 ]

let test_skipping_actually_skips () =
  (* With +20-cycle latency and a single core, most cycles are spent
     waiting on one in-flight transfer: the kernel must fast-forward a
     large share of them. *)
  let mem = Memsys.with_extra_latency Memsys.default_config 20 in
  let heap = Workloads.build_heap ~scale:0.03 ~seed:7 Workloads.db in
  let stats =
    Coprocessor.collect (Coprocessor.config ~mem ~n_cores:1 ()) heap
  in
  Alcotest.(check bool) "skipped a majority of cycles" true
    (stats.Coprocessor.skipped_cycles * 2 > stats.Coprocessor.total_cycles);
  let heap = Workloads.build_heap ~scale:0.03 ~seed:7 Workloads.db in
  let off =
    Coprocessor.collect (Coprocessor.config ~mem ~skip:false ~n_cores:1 ()) heap
  in
  Alcotest.(check int) "skip off skips nothing" 0 off.Coprocessor.skipped_cycles;
  Alcotest.(check int) "skip off executes everything"
    off.Coprocessor.total_cycles off.Coprocessor.executed_cycles

(* The default engine's executed/skipped split, pinned. Statistics
   parity with naive stepping leaves the split free; these values fix
   it, so any change to when the machine fast-forwards (or which cycles
   it executes) shows up here even when every statistic still matches.
   Rows: workload, cores, extra memory latency, then total, executed
   and skipped cycles, at scale 0.05 and seed 42. *)
let pinned_splits =
  [
    ("compress", 1, 0, 13682, 8353, 5329);
    ("compress", 4, 0, 5795, 5043, 752);
    ("compress", 16, 0, 5565, 4829, 736);
    ("cup", 1, 0, 72883, 43070, 29813);
    ("cup", 4, 0, 18249, 17620, 629);
    ("cup", 16, 0, 5414, 5404, 10);
    ("db", 1, 0, 41321, 23125, 18196);
    ("db", 4, 0, 10368, 9964, 404);
    ("db", 16, 0, 3385, 3375, 10);
    ("javac", 1, 0, 40073, 21313, 18760);
    ("javac", 4, 0, 10308, 9889, 419);
    ("javac", 16, 0, 4311, 4299, 12);
    ("javacc", 1, 0, 21941, 12923, 9018);
    ("javacc", 4, 0, 5513, 5333, 180);
    ("javacc", 16, 0, 1644, 1634, 10);
    ("jflex", 1, 0, 43529, 26269, 17260);
    ("jflex", 4, 0, 10913, 10696, 217);
    ("jflex", 16, 0, 3502, 3491, 11);
    ("jlisp", 1, 0, 2269, 1387, 882);
    ("jlisp", 4, 0, 602, 582, 20);
    ("jlisp", 16, 0, 225, 214, 11);
    ("search", 1, 0, 16005, 10005, 6000);
    ("search", 4, 0, 11260, 8009, 3251);
    ("search", 16, 0, 11073, 8009, 3064);
    ("compress", 1, 20, 79750, 8353, 71397);
    ("compress", 4, 20, 27432, 7974, 19458);
    ("compress", 16, 20, 25723, 8099, 17624);
    ("cup", 1, 20, 470401, 43070, 427331);
    ("cup", 4, 20, 117762, 33324, 84438);
    ("cup", 16, 20, 29696, 22432, 7264);
    ("db", 1, 20, 305440, 23125, 282315);
    ("db", 4, 20, 76542, 20289, 56253);
    ("db", 16, 20, 19449, 13777, 5672);
    ("javac", 1, 20, 240452, 21313, 219139);
    ("javac", 4, 20, 60992, 18862, 42130);
    ("javac", 16, 20, 19247, 15442, 3805);
    ("javacc", 1, 20, 143820, 12923, 130897);
    ("javacc", 4, 20, 36086, 11201, 24885);
    ("javacc", 16, 20, 9328, 7057, 2271);
    ("jflex", 1, 20, 253707, 26269, 227438);
    ("jflex", 4, 20, 63565, 23785, 39780);
    ("jflex", 16, 20, 17279, 12477, 4802);
    ("jlisp", 1, 20, 13055, 1387, 11668);
    ("jlisp", 4, 20, 3413, 1173, 2240);
    ("jlisp", 16, 20, 1164, 611, 553);
    ("search", 1, 20, 95005, 10005, 85000);
    ("search", 4, 20, 51318, 13503, 37815);
    ("search", 16, 20, 51131, 13129, 38002);
  ]

let test_split_pinned () =
  List.iter
    (fun (name, n_cores, latency, total, executed, skipped) ->
      let w = Option.get (Workloads.find name) in
      let heap = Workloads.build_heap ~scale:0.05 ~seed:42 w in
      let mem = Memsys.with_extra_latency Memsys.default_config latency in
      let s = Coprocessor.collect (Coprocessor.config ~mem ~n_cores ()) heap in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%s/%d cores/+%d: (total, executed, skipped)" name
           n_cores latency)
        (total, executed, skipped)
        ( s.Coprocessor.total_cycles,
          s.Coprocessor.executed_cycles,
          s.Coprocessor.skipped_cycles ))
    pinned_splits

(* The single-due window (a step at which exactly one core is due and
   none is parked runs that core alone until another core's wake) keeps
   the executed/skipped split of the shared cycle at every core count.
   The reference is the inert-fault twin ([Injector.default_spec]: every
   probability zero), which neither parks nor takes the window; the
   split and every statistic must match, with no horizon and with
   horizons every 1 000 cycles on both runs. At +20 latency on two
   cores most executed cycles have one core due, so the window must
   also save [step] calls there. *)
let test_single_due_window_split () =
  let run ?every cfg heap =
    let sim = Coprocessor.start cfg heap in
    let calls = ref 0 in
    while not (Coprocessor.halted sim) do
      incr calls;
      match every with
      | None -> Coprocessor.step sim
      | Some e ->
        Coprocessor.step ~horizon:(((Coprocessor.now sim / e) + 1) * e) sim
    done;
    (Coprocessor.finalize sim, !calls)
  in
  let split (s : Coprocessor.gc_stats) =
    ( s.Coprocessor.total_cycles,
      s.Coprocessor.executed_cycles,
      s.Coprocessor.skipped_cycles )
  in
  List.iter
    (fun w ->
      List.iter
        (fun (n_cores, latency) ->
          let mem = Memsys.with_extra_latency Memsys.default_config latency in
          let cfg = Coprocessor.config ~mem ~n_cores () in
          let twin = { cfg with Coprocessor.faults = Some Injector.default_spec } in
          let build () = Workloads.build_heap ~scale:0.05 ~seed:42 w in
          List.iter
            (fun every ->
              let ctx =
                Printf.sprintf "%s/%d cores/+%d%s" w.Workloads.name n_cores
                  latency
                  (match every with
                  | None -> ""
                  | Some e -> Printf.sprintf ", horizon every %d" e)
              in
              let plain, calls = run ?every cfg (build ()) in
              let shared, twin_calls = run ?every twin (build ()) in
              check_stats_equal ctx ~ref_name:"twin" ~other_name:"plain" shared
                plain;
              Alcotest.(check (triple int int int))
                (ctx ^ ": (total, executed, skipped)")
                (split shared) (split plain);
              if n_cores = 2 && latency = 20 && every = None
                 && calls >= twin_calls
              then
                Alcotest.failf "%s: %d step calls, the twin %d" ctx calls
                  twin_calls)
            [ None; Some 1_000 ])
        [ (2, 0); (2, 20); (3, 0); (3, 20); (8, 0); (8, 20) ])
    Workloads.all

(* The cycle budget trips where naive stepping trips it: no jump of the
   clock passes the budget, and the whole machine dump matches naive's
   at every core count (a core that slept or parked through the trip
   cycle has its ports rendered as that cycle's tick would leave them).
   Budgets past the collection's end must not trip either. *)
let test_budget_trips_on_time () =
  let outcome ~skip ~mem ~budget ~n_cores w =
    let heap = Workloads.build_heap ~scale:0.05 ~seed:42 w in
    let cfg = Coprocessor.config ~mem ~skip ~cycle_budget:budget ~n_cores () in
    match Coprocessor.collect cfg heap with
    | s -> Printf.sprintf "finished at cycle %d" s.Coprocessor.total_cycles
    | exception Coprocessor.Stall_diagnosis d ->
      Format.asprintf "%a" Coprocessor.pp_diagnosis d
  in
  List.iter
    (fun w ->
      List.iter
        (fun (lat, budget, n_cores) ->
          let mem = Memsys.with_extra_latency Memsys.default_config lat in
          let run skip = outcome ~skip ~mem ~budget ~n_cores w in
          let naive = run false and default = run true in
          let ctx =
            Printf.sprintf "%s/%d cores/+%d, budget %d" w.Workloads.name
              n_cores lat budget
          in
          Alcotest.(check string) ctx naive default)
        (List.concat_map
           (fun lat ->
             List.concat_map
               (fun budget ->
                 List.map (fun n -> (lat, budget, n)) [ 1; 4; 16 ])
               [ 37; 1_000; 5_003; 12_345 ])
           [ 0; 20 ]))
    Workloads.all

let qcheck_skip_equivalent_with_faults =
  QCheck.Test.make
    ~name:
      "idle-cycle skipping stays cycle-exact under delay-class faults \
       (1..16 cores)"
    ~count:40
    (QCheck.make
       ~print:(fun ((n, s), (nc, intensity)) ->
         Printf.sprintf "graph(n=%d seed=%d) cores=%d intensity=%.2f" n s nc
           intensity)
       QCheck.Gen.(
         let gen_plan =
           let* n = int_range 1 50 in
           let* seed = small_nat in
           return (n, seed)
         in
         let gen_config =
           let* n_cores = int_range 1 16 in
           let* intensity = oneofl [ 0.1; 0.4; 0.8 ] in
           return (n_cores, intensity)
         in
         pair gen_plan gen_config))
    (fun ((n, seed), (n_cores, intensity)) ->
      (* Delay-class faults perturb timing only (spurious busy / extra
         latency), but they draw from a per-retry fault stream — so the
         event-driven scheduler must keep every retrying core awake, or
         the draws (and with them every statistic) diverge from naive
         stepping. This is the property that pins down [next_wake]'s
         no-overshoot contract under fault injection. *)
      let plan = random_plan ~n ~seed in
      let faults =
        Injector.delay_class ~seed:(seed + 3) ~intensity ()
      in
      let run skip =
        let heap = Plan.materialize plan in
        let stats =
          Coprocessor.collect
            (Coprocessor.config ~faults ~skip ~n_cores ())
            heap
        in
        (stats, Verify.snapshot heap)
      in
      let naive, snap_naive = run false in
      let skip, snap_skip = run true in
      check_stats_equal "delay faults" naive skip;
      Verify.equal_snapshot snap_naive snap_skip)

(* Naive against default stepping on a fresh identical heap each, with a
   tracer attached to both: statistics, the post-collection heap and the
   trace digest must all agree. *)
let check_naive_default ctx ?faults ~mem ~n_cores build =
  let run skip =
    let heap = build () in
    let obs = Tracer.create ~n_cores () in
    Tracer.enable obs;
    let stats =
      Coprocessor.collect ~obs
        (Coprocessor.config ~mem ?faults ~skip ~n_cores ())
        heap
    in
    (stats, Verify.snapshot heap, Tracer.digest obs)
  in
  let naive, snap_n, dig_n = run false in
  let default, snap_d, dig_d = run true in
  check_stats_equal ctx naive default;
  if not (Verify.equal_snapshot snap_n snap_d) then
    Alcotest.failf "%s: naive/default heap snapshots differ" ctx;
  if not (String.equal dig_n dig_d) then
    Alcotest.failf "%s: naive/default trace digests differ" ctx

let test_naive_default_parity_on_workloads () =
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          List.iter
            (fun faults ->
              let ctx =
                Printf.sprintf "%s at %d cores%s" w.Workloads.name n_cores
                  (match faults with None -> "" | Some _ -> " with delay faults")
              in
              check_naive_default ctx ?faults ~mem:Memsys.default_config
                ~n_cores (fun () ->
                  Workloads.build_heap ~scale:0.02 ~seed:11 w))
            [ None; Some (Injector.delay_class ~seed:5 ~intensity:0.4 ()) ])
        [ 1; 4; 16 ])
    Workloads.all

let qcheck_naive_default_parity =
  QCheck.Test.make
    ~name:"naive/default parity, random configs" ~count:40
    (QCheck.make
       ~print:(fun ((n, s), (nc, el, bw, intensity)) ->
         Printf.sprintf "graph(n=%d seed=%d) cores=%d lat+%d bw=%d fault=%g" n
           s nc el bw intensity)
       QCheck.Gen.(
         let gen_graph =
           let* n = int_range 1 60 in
           let* seed = small_nat in
           return (n, seed)
         in
         let gen_config =
           let* n_cores = int_range 1 16 in
           let* extra_latency = oneofl [ 0; 3; 20 ] in
           let* bandwidth = oneofl [ 1; 4; 8 ] in
           let* intensity = oneofl [ 0.0; 0.1; 0.8 ] in
           return (n_cores, extra_latency, bandwidth, intensity)
         in
         pair gen_graph gen_config))
    (fun ((n, seed), (n_cores, extra_latency, bandwidth, intensity)) ->
      let plan = random_plan ~n ~seed in
      let mem =
        Memsys.with_extra_latency
          { Memsys.default_config with Memsys.bandwidth }
          extra_latency
      in
      let faults =
        if intensity = 0.0 then None
        else Some (Injector.delay_class ~seed:(seed + 3) ~intensity ())
      in
      check_naive_default "random config" ?faults ~mem ~n_cores (fun () ->
          Plan.materialize plan);
      true)

let test_pieces_accounting_closes () =
  (* Sub-object mode: every split frame's outstanding-piece count lives
     in the flat [pieces] array. The balance must go back to zero by the
     time the machine halts — a piece leak would leave it positive, a
     double-retire would go negative (and trip the internal guard). *)
  let heap = Workloads.build_heap ~scale:0.04 ~seed:3 Workloads.db in
  let sim =
    Coprocessor.start (Coprocessor.config ~scan_unit:1 ~n_cores:4 ()) heap
  in
  let saw_outstanding = ref false in
  let steps = ref 0 in
  while not (Coprocessor.halted sim) do
    Coprocessor.step sim;
    incr steps;
    if !steps land 63 = 0 then begin
      let p = Coprocessor.pieces_outstanding sim in
      if p < 0 then Alcotest.failf "negative outstanding pieces (%d)" p;
      if p > 0 then saw_outstanding := true
    end
  done;
  Alcotest.(check int) "all pieces retired at halt" 0
    (Coprocessor.pieces_outstanding sim);
  Alcotest.(check bool) "sub-object mode actually split objects" true
    !saw_outstanding;
  ignore (Coprocessor.finalize sim)

let test_hot_loop_allocation_free () =
  (* The stepping loop allocates nothing in steady state, plain or with
     the tracer and profiler attached. The minor-heap counter is read
     around the [step] loop alone, so setup (core records, counters, the
     wake queue, the instruments' rings) is outside the measurement and
     any per-cycle box shows up against a budget three orders below one
     word per cycle. The budget holds in dev builds and in release
     builds, which inline across modules (lib/dune). *)
  let latencies =
    [
      ("base", Memsys.default_config);
      ("+20", Memsys.with_extra_latency Memsys.default_config 20);
    ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun n_cores ->
          List.iter
            (fun (lat, mem) ->
              List.iter
                (fun instrumented ->
                  let heap = Workloads.build_heap ~scale:0.2 ~seed:5 w in
                  let obs, prof =
                    if instrumented then begin
                      let obs = Hsgc_obs.Tracer.create ~n_cores () in
                      Hsgc_obs.Tracer.enable obs;
                      let prof = Hsgc_obs.Profiler.create ~n_cores () in
                      Hsgc_obs.Profiler.enable prof;
                      (obs, prof)
                    end
                    else (Hsgc_obs.Tracer.disabled, Hsgc_obs.Profiler.disabled)
                  in
                  let sim =
                    Coprocessor.start ~obs ~prof
                      (Coprocessor.config ~mem ~n_cores ())
                      heap
                  in
                  let w0 = Gc.minor_words () in
                  while not (Coprocessor.halted sim) do
                    Coprocessor.step sim
                  done;
                  let w1 = Gc.minor_words () in
                  let executed = Coprocessor.executed_cycles sim in
                  let per_cycle = (w1 -. w0) /. float_of_int executed in
                  if per_cycle > 0.001 then
                    Alcotest.failf
                      "%s, %d cores, %s latency%s: the step loop allocates \
                       %.4f minor words per executed cycle (budget 0.001, \
                       %.0f words over %d cycles)"
                      w.Workloads.name n_cores lat
                      (if instrumented then ", tracer + profiler" else "")
                      per_cycle (w1 -. w0) executed)
                [ false; true ])
            latencies)
        [ 1; 2; 4; 16 ])
    [ Workloads.javacc; Workloads.cup ]

let test_concurrent_skip_equivalent () =
  (* The concurrent engine caps every skip at the next mutator operation,
     so mutator interleavings — and with them every statistic — must be
     identical with skipping on and off. The linear heaps keep cores
     parked on an empty worklist while the main processor allocates and
     evacuates, the writes that must wake them. At one core the root
     phase's steps pass no horizon, so lone-core batching must wait for
     [roots_done]. *)
  List.iter
    (fun (w, n_cores) ->
      let run skip =
        let heap = Workloads.build_heap ~scale:0.05 ~seed:11 w in
        let cfg = Concurrent.default_config ~n_cores () in
        let cfg =
          { cfg with Concurrent.gc = { cfg.Concurrent.gc with Coprocessor.skip } }
        in
        Concurrent.collect cfg heap
      in
      let off = run false and on = run true in
      let ctx what =
        Printf.sprintf "%s/%d cores: %s" w.Workloads.name n_cores what
      in
      let gc_off = off.Concurrent.gc and gc_on = on.Concurrent.gc in
      Alcotest.(check int) (ctx "total cycles")
        gc_off.Coprocessor.total_cycles gc_on.Coprocessor.total_cycles;
      Alcotest.(check int) (ctx "empty-worklist cycles")
        gc_off.Coprocessor.empty_worklist_cycles
        gc_on.Coprocessor.empty_worklist_cycles;
      Alcotest.(check bool) (ctx "per-core counters") true
        (gc_off.Coprocessor.per_core = gc_on.Coprocessor.per_core);
      Alcotest.(check int) (ctx "pause cycles") off.Concurrent.pause_cycles
        on.Concurrent.pause_cycles;
      Alcotest.(check int) (ctx "barrier evacuations")
        off.Concurrent.barrier_evacuations on.Concurrent.barrier_evacuations;
      Alcotest.(check int) (ctx "mutator reads") off.Concurrent.mutator_reads
        on.Concurrent.mutator_reads;
      Alcotest.(check int) (ctx "mutator allocs") off.Concurrent.mutator_allocs
        on.Concurrent.mutator_allocs;
      Alcotest.(check int) (ctx "mutator waits")
        off.Concurrent.mutator_wait_cycles on.Concurrent.mutator_wait_cycles)
    [
      (Workloads.db, 1);
      (Workloads.jlisp, 1);
      (Workloads.jlisp, 4);
      (Workloads.compress, 4);
      (Workloads.search, 8);
      (Workloads.db, 8);
    ]

(* ------------------------------------------------------------------ *)
(* Domain-parallel sweeps: determinism across jobs levels              *)
(* ------------------------------------------------------------------ *)

let check_measurements_equal ctx (a : Experiment.measurement)
    (b : Experiment.measurement) =
  (* Every field except wall_s (host time, noisy by nature). *)
  let chkf name x y =
    if x <> y then Alcotest.failf "%s: %s differs" ctx name
  in
  if a.Experiment.workload <> b.Experiment.workload then
    Alcotest.failf "%s: workload differs" ctx;
  chkf "n_cores" (float_of_int a.Experiment.n_cores)
    (float_of_int b.Experiment.n_cores);
  chkf "cycles" a.Experiment.cycles b.Experiment.cycles;
  chkf "empty_frac" a.Experiment.empty_frac b.Experiment.empty_frac;
  chkf "root_cycles" a.Experiment.root_cycles b.Experiment.root_cycles;
  chkf "live_objects" a.Experiment.live_objects b.Experiment.live_objects;
  chkf "live_words" a.Experiment.live_words b.Experiment.live_words;
  chkf "fifo_overflows" a.Experiment.fifo_overflows
    b.Experiment.fifo_overflows;
  chkf "fifo_hits" a.Experiment.fifo_hits b.Experiment.fifo_hits;
  chkf "mem_rejected_bandwidth" a.Experiment.mem_rejected_bandwidth
    b.Experiment.mem_rejected_bandwidth;
  chkf "skipped_cycles" a.Experiment.skipped_cycles
    b.Experiment.skipped_cycles;
  List.iter
    (fun s ->
      chkf
        (Counters.stall_name s)
        (float_of_int (Counters.get a.Experiment.stalls_mean_core s))
        (float_of_int (Counters.get b.Experiment.stalls_mean_core s)))
    Counters.all_stalls

let test_sweep_jobs_deterministic () =
  let sweep jobs =
    Experiment.sweep ~scale:0.03 ~seeds:[| 42; 1042 |] ~jobs Workloads.javacc
  in
  let seq = sweep 1 and par = sweep 4 in
  Alcotest.(check int) "same length" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      check_measurements_equal
        (Printf.sprintf "javacc at %d cores" a.Experiment.n_cores)
        a b)
    seq par

let test_run_sweeps_jobs_byte_identical () =
  let render jobs =
    let d = Report.run_sweeps ~scale:0.02 ~seeds:[| 42 |] ~jobs () in
    Report.figure5 d ^ Report.table1 d ^ Report.table2 d
  in
  let seq = render 1 in
  Alcotest.(check string) "jobs=3 renders byte-identical artifacts" seq
    (render 3)

let suite =
  [
    Alcotest.test_case "clock accounting" `Quick test_clock_accounting;
    Alcotest.test_case "clock helpers" `Quick test_clock_helpers;
    Alcotest.test_case "wheel ordering" `Quick test_wheel_ordering;
    QCheck_alcotest.to_alcotest qcheck_wheel_sorts;
    QCheck_alcotest.to_alcotest qcheck_wheel_interleaved;
    Alcotest.test_case "wheel growth path" `Quick test_wheel_growth;
    Alcotest.test_case "wake queue scan regime" `Quick test_wakeq_scan_regime;
    Alcotest.test_case "wake queue lazy invalidation" `Quick
      test_wakeq_lazy_invalidation;
    QCheck_alcotest.to_alcotest qcheck_wakeq_matches_model;
    Alcotest.test_case "pool matches List.map" `Quick test_pool_matches_map;
    Alcotest.test_case "pool exception determinism" `Quick test_pool_exception;
    Alcotest.test_case "pool run / reuse" `Quick test_pool_run;
    Alcotest.test_case "pool run exception discipline" `Quick
      test_pool_run_exceptions;
    Alcotest.test_case "jobs resolution" `Quick test_resolve_jobs;
    QCheck_alcotest.to_alcotest qcheck_skip_equivalent;
    QCheck_alcotest.to_alcotest qcheck_skip_equivalent_with_faults;
    Alcotest.test_case "naive/default parity on workloads" `Quick
      test_naive_default_parity_on_workloads;
    QCheck_alcotest.to_alcotest qcheck_naive_default_parity;
    Alcotest.test_case "pieces accounting closes to zero" `Quick
      test_pieces_accounting_closes;
    Alcotest.test_case "hot loop is allocation-free" `Quick
      test_hot_loop_allocation_free;
    Alcotest.test_case "skip equivalent on workloads" `Slow
      test_skip_equivalent_on_workloads;
    Alcotest.test_case "skip equivalent latency-bound" `Quick
      test_skip_equivalent_latency_bound;
    Alcotest.test_case "executed/skipped split pinned" `Quick
      test_split_pinned;
    Alcotest.test_case "single-due window keeps the split" `Quick
      test_single_due_window_split;
    Alcotest.test_case "cycle budget trips on naive's cycle" `Quick
      test_budget_trips_on_time;
    Alcotest.test_case "skipping actually skips" `Quick
      test_skipping_actually_skips;
    Alcotest.test_case "concurrent skip equivalent" `Quick
      test_concurrent_skip_equivalent;
    Alcotest.test_case "sweep jobs deterministic" `Quick
      test_sweep_jobs_deterministic;
    Alcotest.test_case "run_sweeps jobs byte-identical" `Slow
      test_run_sweeps_jobs_byte_identical;
  ]
