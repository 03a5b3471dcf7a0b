(* Deterministic seeded fault injection. See the .mli for the model.

   Implementation notes:

   - [t] is [Off | On of state] so the disabled injector is a single
     immutable value and every hook starts with one constructor match;
     with faults off no RNG exists and no draw ever happens, which is
     what guarantees bit-identical behavior to a hook-free build.

   - Each mechanism only consumes randomness when its probability is
     positive. This keeps the substreams of a single-class plan stable:
     a delay-class campaign draws nothing for corruption decisions, so
     changing corruption parameters cannot perturb delay outcomes. *)

module Rng = Hsgc_util.Rng

type spec = {
  seed : int;
  delay_prob : float;
  delay_max : int;
  fifo_drop_prob : float;
  cache_invalidate_prob : float;
  busy_prob : float;
  corrupt_body_prob : float;
  corrupt_header_prob : float;
}

let default_spec =
  {
    seed = 0;
    delay_prob = 0.0;
    delay_max = 32;
    fifo_drop_prob = 0.0;
    cache_invalidate_prob = 0.0;
    busy_prob = 0.0;
    corrupt_body_prob = 0.0;
    corrupt_header_prob = 0.0;
  }

(* Probabilities near 1.0 would make spurious-busy reject essentially
   every acceptance attempt and livelock the machine by construction;
   0.95 keeps even hostile intensities terminating. *)
let clamp_prob p = Float.min 0.95 (Float.max 0.0 p)

let delay_class ?(seed = 1) ~intensity () =
  let p = clamp_prob intensity in
  {
    default_spec with
    seed;
    delay_prob = p;
    delay_max = 32;
    fifo_drop_prob = p;
    cache_invalidate_prob = p;
    busy_prob = p;
  }

let corruption_class ?(seed = 1) ~intensity () =
  let p = clamp_prob intensity in
  { default_spec with seed; corrupt_body_prob = p; corrupt_header_prob = p }

let pp_class ppf = function
  | `Delay -> Format.pp_print_string ppf "delay"
  | `Corruption -> Format.pp_print_string ppf "corruption"

let of_class = function
  | `Delay -> delay_class
  | `Corruption -> corruption_class

type counts = {
  delays : int;
  delay_cycles : int;
  fifo_drops : int;
  cache_invalidations : int;
  busies : int;
  body_corruptions : int;
  header_corruptions : int;
}

let zero_counts =
  {
    delays = 0;
    delay_cycles = 0;
    fifo_drops = 0;
    cache_invalidations = 0;
    busies = 0;
    body_corruptions = 0;
    header_corruptions = 0;
  }

type state = { spec : spec; rng : Rng.t; mutable c : counts }
type t = Off | On of state

let disabled = Off

let create spec =
  let spec = { spec with delay_max = max 1 spec.delay_max } in
  On { spec; rng = Rng.create spec.seed; c = zero_counts }

let enabled = function Off -> false | On _ -> true

(* A Bernoulli trial that draws only when it can fire. *)
let fires rng p = p > 0.0 && Rng.float rng 1.0 < p

(* Every hook below is split in two: an inlinable [Off] test, which is
   all a plain run executes, and the [On] path kept out of line, so a
   hook inlined into the per-cycle code costs one load and one branch. *)

let[@inline never] extra_delay_on s =
  if fires s.rng s.spec.delay_prob then begin
    let d = 1 + Rng.int s.rng s.spec.delay_max in
    s.c <- { s.c with delays = s.c.delays + 1;
             delay_cycles = s.c.delay_cycles + d };
    d
  end
  else 0

let[@inline] extra_delay = function Off -> 0 | On s -> extra_delay_on s

let[@inline never] drop_push_on s =
  let hit = fires s.rng s.spec.fifo_drop_prob in
  if hit then s.c <- { s.c with fifo_drops = s.c.fifo_drops + 1 };
  hit

let[@inline] drop_push = function Off -> false | On s -> drop_push_on s

let[@inline never] invalidate_cache_on s =
  let hit = fires s.rng s.spec.cache_invalidate_prob in
  if hit then
    s.c <- { s.c with cache_invalidations = s.c.cache_invalidations + 1 };
  hit

let[@inline] invalidate_cache = function
  | Off -> false
  | On s -> invalidate_cache_on s

(* Spurious-busy draws happen on *every* acceptance attempt, including
   the retry a Waiting port makes each cycle. When busy_prob is positive
   those retry cycles therefore consume randomness, and skipping them
   (sleeping the core, fast-forwarding the clock) would shift the fault
   stream and diverge from naive stepping. The event-driven scheduler
   asks this predicate before treating a waiting port as replayable. *)
let[@inline] retry_draws = function
  | Off -> false
  | On s -> s.spec.busy_prob > 0.0

let[@inline never] spurious_busy_on s =
  let hit = fires s.rng s.spec.busy_prob in
  if hit then s.c <- { s.c with busies = s.c.busies + 1 };
  hit

let[@inline] spurious_busy = function Off -> false | On s -> spurious_busy_on s

(* Body words may be pointers or payload; any of the 62 usable bits of a
   heap word is fair game. Headers are only corrupted in the decoded
   state/π/δ fields (bits 0..41) — flips above bit 41 land in padding
   the machine never reads, i.e. undetectable-by-construction, and would
   poison the detection-coverage denominator. *)
let body_bits = 62
let header_bits = 42

let corrupt_word s w bits =
  let bit = Rng.int s.rng bits in
  w lxor (1 lsl bit)

let[@inline never] corrupt_body_on s w =
  if fires s.rng s.spec.corrupt_body_prob then begin
    s.c <- { s.c with body_corruptions = s.c.body_corruptions + 1 };
    corrupt_word s w body_bits
  end
  else w

let[@inline] corrupt_body t w =
  match t with Off -> w | On s -> corrupt_body_on s w

let[@inline never] corrupt_header_on s w =
  if fires s.rng s.spec.corrupt_header_prob then begin
    s.c <- { s.c with header_corruptions = s.c.header_corruptions + 1 };
    corrupt_word s w header_bits
  end
  else w

let[@inline] corrupt_header t w =
  match t with Off -> w | On s -> corrupt_header_on s w

let counts = function Off -> zero_counts | On s -> s.c

let total t =
  let c = counts t in
  c.delays + c.fifo_drops + c.cache_invalidations + c.busies
  + c.body_corruptions + c.header_corruptions

let corruptions t =
  let c = counts t in
  c.body_corruptions + c.header_corruptions

let pp_counts ppf c =
  Format.fprintf ppf
    "delays=%d (+%d cyc) fifo-drops=%d cache-inv=%d busy=%d corrupt-body=%d \
     corrupt-hdr=%d"
    c.delays c.delay_cycles c.fifo_drops c.cache_invalidations c.busies
    c.body_corruptions c.header_corruptions

(* Checkpoint codec: the RNG stream position and the fault counts are
   the injector's entire mutable state (the spec is immutable and comes
   back through the run configuration). Restoring the stream position
   replays the exact fault sequence of the interrupted run. *)
module Codec = Hsgc_util.Codec

let encode t w =
  match t with
  | Off -> Codec.W.bool w false
  | On s ->
      Codec.W.bool w true;
      Codec.W.i64 w (Rng.state s.rng);
      let c = s.c in
      Codec.W.int w c.delays;
      Codec.W.int w c.delay_cycles;
      Codec.W.int w c.fifo_drops;
      Codec.W.int w c.cache_invalidations;
      Codec.W.int w c.busies;
      Codec.W.int w c.body_corruptions;
      Codec.W.int w c.header_corruptions

let restore t r =
  let enabled = Codec.R.bool r in
  match (t, enabled) with
  | Off, false -> ()
  | On s, true ->
      Rng.set_state s.rng (Codec.R.i64 r);
      let delays = Codec.R.int r in
      let delay_cycles = Codec.R.int r in
      let fifo_drops = Codec.R.int r in
      let cache_invalidations = Codec.R.int r in
      let busies = Codec.R.int r in
      let body_corruptions = Codec.R.int r in
      let header_corruptions = Codec.R.int r in
      s.c <-
        {
          delays;
          delay_cycles;
          fifo_drops;
          cache_invalidations;
          busies;
          body_corruptions;
          header_corruptions;
        }
  | Off, true | On _, false ->
      raise
        (Codec.Error
           "fault-injector enablement differs between snapshot and machine")
