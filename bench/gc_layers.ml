(* Host GC time by layer over Figure 5 sweep passes, read from the
   runtime's own event ring (runtime_events, OCaml >= 5.1).

     dune exec --profile release bench/gc_layers.exe -- [passes] [seed]

   One pass is the Figure 5 grid: 8 workloads x {1,2,4,8,16} cores at
   scale 1, each point built, materialized, snapshotted, collected and
   verified, as bench/e2e's fig5-base repeat does. After each layer's call
   the ring is drained, and every top-level GC phase read (minor
   collections, major slices, whatever nests inside them) is charged to
   that layer. Prints, per layer, its CPU time, the GC time inside it and
   the minor words it allocated, then the passes' totals. A lost-events
   line means the ring overflowed (OCAMLRUNPARAM=e=20 enlarges it). *)

module Workloads = Hsgc_objgraph.Workloads
module Plan = Hsgc_objgraph.Plan
module Coprocessor = Hsgc_coproc.Coprocessor
module Verify = Hsgc_heap.Verify
module Experiment = Hsgc_core.Experiment

let layers =
  [|
    "objgraph.build"; "heap.materialize"; "heap.snapshot"; "coproc.collect";
    "heap.verify";
  |]

let cpu = Array.make (Array.length layers) 0.0
let minor = Array.make (Array.length layers) 0.0
let gc_ns = Array.make (Array.length layers) 0L
let lost = ref 0

(* Top-level phase nesting and the open phase's start. *)
let depth = ref 0
let since = ref 0L
let charge = ref 0

let cursor =
  Runtime_events.start ();
  Runtime_events.create_cursor None

let callbacks =
  let runtime_begin _domain ts _phase =
    if !depth = 0 then since := Runtime_events.Timestamp.to_int64 ts;
    incr depth
  in
  let runtime_end _domain ts _phase =
    if !depth > 0 then begin
      decr depth;
      if !depth = 0 then
        gc_ns.(!charge) <-
          Int64.add gc_ns.(!charge)
            (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !since)
    end
  in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let drain layer =
  charge := layer;
  ignore (Runtime_events.read_poll cursor callbacks None)

let layer i f =
  drain i;
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  let r = f () in
  cpu.(i) <- cpu.(i) +. (Sys.time () -. t0);
  minor.(i) <- minor.(i) +. (Gc.minor_words () -. w0);
  drain i;
  r

let point ~seed w n_cores =
  let plan = layer 0 (fun () -> w.Workloads.build ~scale:1.0 ~seed) in
  let heap = layer 1 (fun () -> Plan.materialize plan) in
  let pre = layer 2 (fun () -> Verify.snapshot heap) in
  ignore
    (layer 3 (fun () ->
         Coprocessor.collect (Coprocessor.config ~n_cores ()) heap));
  match layer 4 (fun () -> Verify.check_collection ~pre heap) with
  | Ok () -> ()
  | Error f ->
    Format.kasprintf failwith "%s/%d: %a" w.Workloads.name n_cores
      Verify.pp_failure f

let () =
  let arg i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  let passes = arg 1 1 and seed = arg 2 42 in
  drain 0;
  Array.fill gc_ns 0 (Array.length gc_ns) 0L;
  let t0 = Sys.time () in
  for _ = 1 to passes do
    List.iter
      (fun w -> List.iter (point ~seed w) Experiment.default_cores)
      Workloads.all
  done;
  let total = Sys.time () -. t0 in
  let s ns = Int64.to_float ns /. 1e9 in
  Printf.printf "%-18s %8s %8s %6s %9s\n" "layer" "cpu_s" "gc_s" "gc%" "minor_Mw";
  Array.iteri
    (fun i name ->
      Printf.printf "%-18s %8.3f %8.3f %5.1f%% %9.2f\n" name cpu.(i) (s gc_ns.(i))
        (100.0 *. s gc_ns.(i) /. Float.max 1e-9 cpu.(i))
        (minor.(i) /. 1e6))
    layers;
  let gc = Array.fold_left (fun acc ns -> acc +. s ns) 0.0 gc_ns in
  Printf.printf "%-18s %8.3f %8.3f %5.1f%% %9.2f\n" "total" total gc
    (100.0 *. gc /. total)
    (Array.fold_left ( +. ) 0.0 minor /. 1e6);
  if !lost > 0 then Printf.printf "lost events: %d\n" !lost
