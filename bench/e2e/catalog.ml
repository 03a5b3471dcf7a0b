(* The benchmark's contract in one place: workloads, metric names,
   units, directions and bounds. [BENCHMARK.json] at the repository root
   is this table rendered by [hsgcbench --spec]; the runtest rule diffs
   the two, so the file and the program cannot drift apart. *)

type better = Lower | Higher

type kind =
  | End_to_end of float  (** bound: tolerated worsening, share of median *)
  | Per_layer
  | Detail
      (** printed in the detail record only: zero or undefined on some
          workloads, so not part of the result line *)

type metric = { name : string; unit_ : string; better : better; kind : kind }

let command = [ "sh"; "bench/e2e/run.sh" ]
let paths = [ "bench/e2e" ]
let run_seconds = 15

let workloads =
  [
    ( "fig5-base",
      "the paper's Figure 5/Tables I-II sweep: 8 heaps x {1,2,4,8,16} cores, \
       every collection verified; dense stepping, heap build and verify \
       dominate" );
    ( "fig6-latency",
      "the same grid and heaps at +20 cycles memory latency (Figure 6): most \
       cycles are fast-forwarded, so skip and wake-queue work dominates \
       stepping" );
    ( "banked-16c",
      "8 heaps x 16 cores x {2,4,8} banks on the banked machine, 2 lanes, \
       verified against a dense run: the only workload that runs supersteps \
       and arbitration" );
    ( "long-run-observed",
      "javac at scale 2, 16 cores, +20 latency, tracer and profiler on, a \
       checkpoint every 100000 cycles, resumed from the middle one: \
       checkpoint I/O and observability" );
  ]

let e2e name unit_ better bound =
  { name; unit_; better; kind = End_to_end bound }

let layer name unit_ better = { name; unit_; better; kind = Per_layer }
let detail name unit_ better = { name; unit_; better; kind = Detail }

let metrics =
  [
    e2e "cpu_s" "s" Lower 0.25;
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.25;
    e2e "sim_cycles" "cycles" Lower 0.02;
    detail "wall_s" "s" Lower;
    detail "raw_cpu_s" "s" Lower;
    detail "raw_setup_s" "s" Lower;
    detail "host_speed" "x" Higher;
    detail "failed_frac" "frac" Lower;
    detail "disk_mb" "MB" Lower;
    detail "paper_err_pp" "pp" Lower;
    layer "objgraph.build_s" "s" Lower;
    layer "objgraph.ns_per_object" "ns/object" Lower;
    layer "heap.materialize_s" "s" Lower;
    layer "heap.snapshot_s" "s" Lower;
    layer "heap.verify_s" "s" Lower;
    layer "heap.verify_ns_per_word" "ns/word" Lower;
    layer "coproc.start_s" "s" Lower;
    layer "coproc.step_s" "s" Lower;
    layer "coproc.finalize_s" "s" Lower;
    layer "coproc.step_calls" "count" Lower;
    layer "coproc.executed_cycles" "cycles" Lower;
    layer "coproc.skipped_frac" "frac" Higher;
    layer "coproc.mcycles_per_s" "Mcycle/s" Higher;
    layer "coproc.ns_per_exec_cycle" "ns/cycle" Lower;
    layer "coproc.exec_mcycles_per_s.c1" "Mcycle/s" Higher;
    layer "coproc.exec_mcycles_per_s.c16" "Mcycle/s" Higher;
    layer "coproc.ff_calls" "count" Lower;
    layer "coproc.ff_time_frac" "frac" Lower;
    layer "coproc.minor_words_per_exec_cycle" "words/cycle" Lower;
    layer "coproc.empty_worklist_frac" "frac" Lower;
    layer "memsim.loads" "count" Lower;
    layer "memsim.stores" "count" Lower;
    layer "memsim.rejected_bw_frac" "frac" Lower;
    layer "memsim.fifo_overflows" "count" Lower;
    layer "memsim.fifo_hit_frac" "frac" Higher;
    layer "hwsync.scan_lock_stall_frac" "frac" Lower;
    layer "hwsync.header_lock_stall_frac" "frac" Lower;
    layer "banked.wall_frac" "frac" Lower;
    layer "banked.mcycles_per_s" "Mcycle/s" Higher;
    layer "banked.supersteps" "count" Lower;
    layer "banked.parked_frac" "frac" Higher;
    layer "banked.arb_frac" "frac" Lower;
    layer "banked.remote_per_object" "ratio" Lower;
    layer "banked.requeues" "count" Lower;
    layer "banked.modeled_ratio" "x" Lower;
    layer "banked.lane_speedup" "x" Higher;
    layer "obs.overhead" "x" Lower;
    layer "obs.events_kept" "count" Higher;
    layer "obs.dropped_frac" "frac" Lower;
    layer "checkpoint.saves" "count" Lower;
    layer "checkpoint.wall_frac" "frac" Lower;
    layer "checkpoint.mb_per_save" "MB" Lower;
    layer "checkpoint.save_mb_per_s" "MB/s" Higher;
    layer "checkpoint.resume_mb_per_s" "MB/s" Higher;
    layer "report.render_s" "s" Lower;
    layer "bench.trace_overhead" "frac" Lower;
    layer "bench.unattributed_frac" "frac" Lower;
    detail "coproc.ns_per_exec_cycle.c1" "ns/cycle" Lower;
    detail "coproc.ns_per_exec_cycle.c16" "ns/cycle" Lower;
    detail "banked.collect_s" "s" Lower;
    detail "banked.ns_per_modeled_cycle" "ns/cycle" Lower;
    detail "checkpoint.save_s" "s" Lower;
    detail "checkpoint.resume_s" "s" Lower;
    detail "bench.traced_wall_s" "s" Lower;
  ]

let find name = List.find_opt (fun m -> m.name = name) metrics

let is_e2e m = match m.kind with End_to_end _ -> true | _ -> false
let is_layer m = m.kind = Per_layer

(* --- BENCHMARK.json ------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let better_name = function Lower -> "lower" | Higher -> "higher"

let spec () =
  let list items = String.concat ",\n" (List.map (fun s -> "    " ^ s) items) in
  let strings l = String.concat ", " (List.map json_string l) in
  let metric m =
    Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s%s}"
      (json_string m.name) (json_string m.unit_)
      (json_string (better_name m.better))
      (match m.kind with
      | End_to_end bound -> Printf.sprintf ", \"bound\": %g" bound
      | Per_layer | Detail -> "")
  in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"command\": [%s]," (strings command);
      Printf.sprintf "  \"paths\": [%s]," (strings paths);
      Printf.sprintf "  \"run_seconds\": %d," run_seconds;
      "  \"workloads\": [";
      list
        (List.map
           (fun (name, why) ->
             Printf.sprintf "{\"name\": %s, \"why\": %s}" (json_string name)
               (json_string why))
           workloads);
      "  ],";
      "  \"end_to_end\": [";
      list (List.map metric (List.filter is_e2e metrics));
      "  ],";
      "  \"per_layer\": [";
      list (List.map metric (List.filter is_layer metrics));
      "  ]";
      "}";
      "";
    ]
