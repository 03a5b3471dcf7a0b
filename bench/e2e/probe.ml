(* Host-time attribution for the traced run. Every call the pipelines
   make into a library layer goes through [span]; while tracing is on it
   reads the monotonic clock around the call and credits the layer with
   the call's self time (its duration minus the spans nested inside it),
   so layer totals plus the unattributed rest add up to the traced wall.
   While tracing is off [span] is a plain call after a calibration poll
   ([Calib]). *)

type layer =
  | Objgraph  (** workload graph generation ([Workloads.t.build]) *)
  | Materialize  (** [Plan.materialize] *)
  | Snapshot  (** pre-collection [Verify.snapshot] *)
  | Verify  (** [Verify.check_collection] *)
  | Start  (** [Coprocessor.start] *)
  | Step  (** the [Coprocessor.step] loop *)
  | Finalize  (** [Coprocessor.finalize] *)
  | Banked  (** [Banked.collect] *)
  | Obs  (** tracer and profiler set-up *)
  | Save  (** [Resume.save] *)
  | Resume  (** [Resume.resume] *)
  | Report  (** artifact rendering *)

let all =
  [
    Objgraph; Materialize; Snapshot; Verify; Start; Step; Finalize; Banked;
    Obs; Save; Resume; Report;
  ]

let index = function
  | Objgraph -> 0
  | Materialize -> 1
  | Snapshot -> 2
  | Verify -> 3
  | Start -> 4
  | Step -> 5
  | Finalize -> 6
  | Banked -> 7
  | Obs -> 8
  | Save -> 9
  | Resume -> 10
  | Report -> 11

let name = function
  | Objgraph -> "objgraph.build"
  | Materialize -> "heap.materialize"
  | Snapshot -> "heap.snapshot"
  | Verify -> "heap.verify"
  | Start -> "coproc.start"
  | Step -> "coproc.step"
  | Finalize -> "coproc.finalize"
  | Banked -> "banked.collect"
  | Obs -> "obs.setup"
  | Save -> "checkpoint.save"
  | Resume -> "checkpoint.resume"
  | Report -> "report.render"

let now_ns = Calib.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let on = ref false
let self_ns = Array.make (List.length all) 0
let calls = Array.make (List.length all) 0

(* Duration of the spans closed inside the innermost open span. *)
let inner_ns = ref 0

let reset () =
  Array.fill self_ns 0 (Array.length self_ns) 0;
  Array.fill calls 0 (Array.length calls) 0;
  inner_ns := 0

let span layer f =
  if not !on then begin
    Calib.poll ();
    f ()
  end
  else begin
    let outer_inner = !inner_ns in
    inner_ns := 0;
    let t0 = now_ns () in
    let r = f () in
    let d = now_ns () - t0 in
    let i = index layer in
    self_ns.(i) <- self_ns.(i) + d - !inner_ns;
    calls.(i) <- calls.(i) + 1;
    inner_ns := outer_inner + d;
    r
  end

let seconds layer = float_of_int self_ns.(index layer) *. 1e-9
let count layer = calls.(index layer)
let total_seconds () = float_of_int (Array.fold_left ( + ) 0 self_ns) *. 1e-9

(* --- stepping ------------------------------------------------------

   The step loop is one [Step] span per collection, which gives exact
   host time per executed cycle. Inside it one [Coprocessor.step] call
   in [sample_every] is timed on its own and classed by whether the
   clock jumped by more than one cycle (a fast-forward): reading the
   clock around every call would cost about as much as a step. *)

module C = Hsgc_coproc.Coprocessor

let sample_every = 16

type steps = {
  mutable step_calls : int;
  mutable ff_calls : int;
  mutable sampled_ns : int;
  mutable sampled_ff_ns : int;
  mutable minor_words : float;
}

let steps =
  {
    step_calls = 0;
    ff_calls = 0;
    sampled_ns = 0;
    sampled_ff_ns = 0;
    minor_words = 0.0;
  }

let reset_steps () =
  steps.step_calls <- 0;
  steps.ff_calls <- 0;
  steps.sampled_ns <- 0;
  steps.sampled_ff_ns <- 0;
  steps.minor_words <- 0.0

let step ?horizon sim =
  if not !on then begin
    C.step ?horizon sim;
    Calib.tick ()
  end
  else begin
    let before = C.now sim in
    if steps.step_calls land (sample_every - 1) = 0 then begin
      let t0 = now_ns () in
      C.step ?horizon sim;
      let d = now_ns () - t0 in
      steps.sampled_ns <- steps.sampled_ns + d;
      if C.now sim - before > 1 then
        steps.sampled_ff_ns <- steps.sampled_ff_ns + d
    end
    else C.step ?horizon sim;
    if C.now sim - before > 1 then steps.ff_calls <- steps.ff_calls + 1;
    steps.step_calls <- steps.step_calls + 1
  end

(* Step [sim] until it halts or reaches [until]. *)
let run_steps ?until ?horizon sim =
  let mw0 = Gc.minor_words () in
  (match until with
  | None ->
    while not (C.halted sim) do
      step ?horizon sim
    done
  | Some until ->
    while (not (C.halted sim)) && C.now sim < until do
      step ?horizon sim
    done);
  if !on then steps.minor_words <- steps.minor_words +. Gc.minor_words () -. mw0
