(* Golden-trace corpus: every workload at 1/4/16 cores, seed 42, with
   the event tracer attached. Each run is fingerprinted by the values
   that are properties of the simulated machine — total cycles, live
   set, the per-core stall-counter vector, the event count and the
   event-stream digest — and compared byte-for-byte against a committed
   golden file. The fingerprint deliberately excludes anything that
   depends on the stepping strategy (executed/skipped split, wall
   clock), and the digest excludes kernel skip spans for the same
   reason, so a scheduling change does not invalidate the corpus but
   any drift in machine behavior does.

   To refresh after an intentional behavior change:
     tools/promote_goldens.sh
   (runs this suite with HSGC_PROMOTE_GOLDENS pointing at
   test/goldens/, which rewrites the files instead of comparing). *)

module Tracer = Hsgc_obs.Tracer
module Coprocessor = Hsgc_coproc.Coprocessor
module Counters = Hsgc_coproc.Counters
module Workloads = Hsgc_objgraph.Workloads

let scale = 0.05
let seed = 42
let core_counts = [ 1; 4; 16 ]

let fingerprint workload n_cores =
  let heap = Workloads.build_heap ~scale ~seed workload in
  let obs = Tracer.create ~n_cores () in
  Tracer.enable obs;
  let stats = Coprocessor.collect ~obs (Coprocessor.config ~n_cores ()) heap in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "workload %s cores %d seed %d scale %g\n"
       workload.Workloads.name n_cores seed scale);
  Buffer.add_string buf
    (Printf.sprintf "cycles %d\n" stats.Coprocessor.total_cycles);
  Buffer.add_string buf
    (Printf.sprintf "live %d objects %d words\n" stats.Coprocessor.live_objects
       stats.Coprocessor.live_words);
  Buffer.add_string buf
    (Printf.sprintf "fifo %d hits %d misses %d overflows\n"
       stats.Coprocessor.fifo_hits stats.Coprocessor.fifo_misses
       stats.Coprocessor.fifo_overflows);
  Array.iteri
    (fun c pc ->
      Buffer.add_string buf (Printf.sprintf "stalls core %d" c);
      List.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf " %d" (Counters.get pc s)))
        Counters.all_stalls;
      Buffer.add_char buf '\n')
    stats.Coprocessor.per_core;
  Buffer.add_string buf
    (Printf.sprintf "events %d dropped %d\n" (Tracer.length obs)
       (Tracer.dropped obs));
  Buffer.add_string buf (Printf.sprintf "digest %s\n" (Tracer.digest obs));
  Buffer.contents buf

let golden_basename workload n_cores =
  Printf.sprintf "%s_c%d.txt" workload.Workloads.name n_cores

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let check workload n_cores () =
  let got = fingerprint workload n_cores in
  let base = golden_basename workload n_cores in
  match Sys.getenv_opt "HSGC_PROMOTE_GOLDENS" with
  | Some dir -> write_file (Filename.concat dir base) got
  | None ->
    (* dune runtest runs with cwd = the sandboxed test directory (the
       goldens are declared deps there); the promote script's re-check
       runs from the repo root. *)
    let dir =
      if Sys.file_exists "goldens" then "goldens"
      else Filename.concat "test" "goldens"
    in
    let path = Filename.concat dir base in
    if not (Sys.file_exists path) then
      Alcotest.failf "golden %s missing — run tools/promote_goldens.sh" base;
    let want = read_file path in
    if got <> want then
      Alcotest.failf
        "golden mismatch for %s.\n\
         --- committed ---\n\
         %s--- this run ---\n\
         %sIf the behavior change is intentional, refresh with \
         tools/promote_goldens.sh."
        base want got

let suite =
  List.concat_map
    (fun w ->
      List.map
        (fun n ->
          Alcotest.test_case
            (Printf.sprintf "%s @ %d cores" w.Workloads.name n)
            `Quick (check w n))
        core_counts)
    Workloads.all
