(* Tests for the activity view behind `gcsim trace --format ascii|csv`
   (Hsgc_obs.Timeline). *)

module Tracer = Hsgc_obs.Tracer
module Timeline = Hsgc_obs.Timeline
module Coprocessor = Hsgc_coproc.Coprocessor
module Workloads = Hsgc_objgraph.Workloads

(* Two cores fed by hand, sampled every 4 cycles, and their view,
   drained after every call if [drain]. Phases: 0 init, 1 roots,
   2 barrier, 3 scan, 4 copy, 5 flush, 6 halt; stalls: 0 scan-lock,
   3 body-load, 5 header-load. Core 1's barrier phase ends on sample 8,
   which is its scan phase's. At cycle 10 core 0's copy phase [6, 10)
   and its body-load run [7, 10), which cover sample 8, close in the
   order [stall_first] picks. *)
let feed ?(drain = false) ~stall_first () =
  let o = Tracer.create ~interval:4 ~n_cores:2 () in
  let v = Timeline.create o in
  let tick () = if drain then Timeline.absorb v in
  let phase core phase cycle = Tracer.set_phase o ~core ~phase ~cycle; tick ()
  and stall core kind cycle span = Tracer.stall_run o ~core ~kind ~cycle ~span; tick ()
  and sample cycle backlog fifo_depth = Tracer.sample o ~cycle ~backlog ~fifo_depth; tick () in
  phase 0 0 0; phase 1 0 0; sample 0 0 0;
  phase 0 1 2; phase 1 2 2; sample 4 3 1;
  phase 0 4 6; stall 0 3 7 3; phase 1 3 8; sample 8 5 2;
  if stall_first then (stall 0 5 10 3; phase 0 5 10)
  else (phase 0 5 10; stall 0 5 10 3);
  stall 1 0 12 1; sample 12 2 0;
  phase 0 6 14; phase 1 6 15; sample 16 0 0;
  Tracer.finish o ~cycle:18;
  let codes = Array.sub o.ev_code 0 (Tracer.length o) in
  Timeline.absorb v;
  (codes, v)

(* The stall letter wins in both arrival orders: r at 8, h and S at 12. *)
let both_orders ~expected render =
  let first, v = feed ~stall_first:true () and last, v' = feed ~stall_first:false () in
  if first = last then Alcotest.fail "both feeds fill the ring in the same order";
  List.iter
    (fun v ->
      let s = render v in
      Alcotest.(check string) "exact" expected
        (String.sub s 0 (min (String.length s) (String.length expected))))
    [ v; v' ]

let test_csv () =
  both_orders Timeline.to_csv
    ~expected:
      "cycle,backlog_words,fifo_depth,core_activity\n\
       0,0,0,II\n4,3,1,RB\n8,5,2,r.\n12,2,0,hS\n16,0,0,  \n"

let test_timeline_renders () =
  both_orders (Timeline.timeline ?width:None)
    ~expected:
      "cycles 0..16, 5 samples every 4 cycles, 0 events dropped\n\
       backlog  +@-   (max 5 words)\ncore 0  IRrh \ncore 1  IB.S \nlegend: "

let test_timeline_empty () =
  Alcotest.(check string) "empty" "(no samples)\n"
    (Timeline.timeline (Timeline.create (Tracer.create ~n_cores:2 ())))

let test_interval_sampling () =
  let o = Tracer.create ~interval:10 ~n_cores:1 () in
  for cycle = 0 to 99 do
    if Tracer.sample_due o ~cycle then Tracer.sample o ~cycle ~backlog:cycle ~fifo_depth:1
  done;
  let v = Timeline.create o in
  Timeline.absorb v;
  Alcotest.(check (pair int int)) "rows, ring left" (10, 0) (Timeline.samples v, Tracer.length o);
  Alcotest.(check string) "last row, no span seen" "90,90,1,?"
    (List.nth (String.split_on_char '\n' (Timeline.to_csv v)) 10);
  Tracer.sample o ~cycle:105 ~backlog:0 ~fifo_depth:0;
  Alcotest.check_raises "off the grid"
    (Invalid_argument "Timeline.absorb: sample off the grid") (fun () -> Timeline.absorb v)

(* One collection driven as `gcsim trace` drives it: the ring drained
   into the view when half full (or after every step), and at the end. *)
let view_run ?(capacity = Tracer.default_capacity) ?(every_step = false)
    ?(interval = 16) ?(latency = 0) ~n_cores ~scale w =
  let mem = Hsgc_memsim.Memsys.(with_extra_latency default_config latency) in
  let o = Tracer.create ~capacity ~interval ~n_cores () in
  Tracer.enable o;
  let v = Timeline.create o and heap = Workloads.build_heap ~scale ~seed:42 w in
  let sim = Coprocessor.(start ~obs:o (config ~mem ~n_cores ()) heap) in
  while not (Coprocessor.halted sim) do
    Coprocessor.step sim;
    if every_step || Tracer.length o >= capacity / 2 then Timeline.absorb v
  done;
  let cycles = (Coprocessor.finalize sim).total_cycles in
  Timeline.absorb v;
  (cycles, v)

(* '.' and '?' occur in the CSV only as letters. *)
let count v ch =
  String.fold_left (fun n c -> if c = ch then n + 1 else n) 0 (Timeline.to_csv v)

let test_drain_changes_nothing () =
  List.iter
    (fun stall_first ->
      let _, v = feed ~drain:true ~stall_first () and _, once = feed ~stall_first () in
      Alcotest.(check string) "csv" (Timeline.to_csv once) (Timeline.to_csv v);
      Alcotest.(check string) "ascii" (Timeline.timeline once) (Timeline.timeline v))
    [ true; false ];
  let run ?capacity ?every_step () =
    Timeline.to_csv
      (snd (view_run ?capacity ?every_step ~latency:20 ~n_cores:4 ~scale:0.02 Workloads.javac))
  in
  Alcotest.(check string) "real run, 256-event ring" (run ()) (run ~capacity:256 ~every_step:true ())

let test_coprocessor_hook () =
  let cycles, v = view_run ~interval:8 ~n_cores:4 ~scale:0.05 Workloads.db in
  Alcotest.(check (pair int int)) "rows span the run, no letter unknown"
    (((cycles - 1) / 8) + 1, 0) (Timeline.samples v, count v '?')

let test_idle_cores_on_chain () =
  let _, v = view_run ~interval:4 ~n_cores:8 ~scale:0.1 Workloads.search in
  Alcotest.(check bool) "mostly seeking work on a chain" true
    (2 * count v '.' > 8 * Timeline.samples v)

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("interval sampling", test_interval_sampling);
      ("csv", test_csv);
      ("timeline renders", test_timeline_renders);
      ("timeline empty", test_timeline_empty);
      ("draining changes nothing", test_drain_changes_nothing);
      ("coprocessor hook", test_coprocessor_hook);
      ("idle cores visible on chain", test_idle_cores_on_chain);
    ]
