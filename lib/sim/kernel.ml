type t = {
  skip : bool;
  mutable now : int;
  mutable executed : int;
  mutable skipped : int;
  (* CLOCK_MONOTONIC nanoseconds. gettimeofday can step backwards under
     NTP adjustment and produced negative Mcycles/s in long sweeps. *)
  wall_start : int64;
  obs : Hsgc_obs.Tracer.t;
}

let create ?(skip = true) ?(obs = Hsgc_obs.Tracer.disabled) () =
  {
    skip;
    now = 0;
    executed = 0;
    skipped = 0;
    wall_start = Monotonic_clock.now ();
    obs;
  }

let now t = t.now
let skip_enabled t = t.skip

let[@inline] tick t =
  t.now <- t.now + 1;
  t.executed <- t.executed + 1

let[@inline] fast_forward t ~target =
  if target <= t.now then 0
  else begin
    let span = target - t.now in
    if t.obs.Hsgc_obs.Tracer.on then
      Hsgc_obs.Tracer.skip_span t.obs ~cycle:t.now ~span;
    t.now <- target;
    t.skipped <- t.skipped + span;
    span
  end

(* Bulk retirement for batching engines: a span whose per-cycle effects
   were computed in closed form advances the clock in one call, keeping
   [now = executed + skipped] without a tick per cycle. No skip-span
   trace event is emitted — batching engines run with observability
   detached (they fall back to per-cycle stepping when a tracer is
   attached), so there is no subscriber to keep stepping-invariant. *)
let retire t ~executed ~skipped =
  if executed < 0 || skipped < 0 then invalid_arg "Kernel.retire";
  t.now <- t.now + executed + skipped;
  t.executed <- t.executed + executed;
  t.skipped <- t.skipped + skipped

let executed_cycles t = t.executed
let skipped_cycles t = t.skipped

let wall_seconds t =
  let ns = Int64.sub (Monotonic_clock.now ()) t.wall_start in
  Float.max 0.0 (Int64.to_float ns *. 1e-9)

let cycles_per_second t =
  let w = wall_seconds t in
  if w <= 0.0 then 0.0 else float_of_int t.now /. w

module Watchdog = struct
  type trip =
    | Budget_exceeded of { budget : int }
    | No_progress of { window : int; since : int }

  (* The budget is stored as a plain int ([max_int] = none), so an
     observation is one compare against it plus the progress update. *)
  type nonrec t = {
    budget : int;
    window : int;
    mutable quiet : int;
    mutable last_progress : int;
  }

  let create ?budget ~window () =
    if window < 1 then invalid_arg "Kernel.Watchdog.create: window must be >= 1";
    let budget =
      match budget with
      | Some b when b < 1 ->
        invalid_arg "Kernel.Watchdog.create: budget must be >= 1"
      | Some b -> b
      | None -> max_int
    in
    { budget; window; quiet = 0; last_progress = 0 }

  let[@inline never] quiet_cycle w =
    w.quiet <- w.quiet + 1;
    if w.quiet >= w.window then
      Some (No_progress { window = w.window; since = w.last_progress })
    else None

  (* A cycle never reaches [max_int], so no budget never trips. *)
  let[@inline] observe w ~now ~progressed =
    if now >= w.budget then Some (Budget_exceeded { budget = w.budget })
    else if progressed then begin
      w.quiet <- 0;
      w.last_progress <- now;
      None
    end
    else quiet_cycle w

  let pp_trip ppf = function
    | Budget_exceeded { budget } ->
      Format.fprintf ppf "cycle budget of %d exhausted" budget
    | No_progress { window; since } ->
      Format.fprintf ppf
        "no progress for %d executed cycles (last progress at cycle %d)"
        window since
end

(* Checkpoint codec: clock position and executed/skipped split.
   [wall_start] is host time and intentionally not restored — a resumed
   run's wall-clock figures describe the resumed process only. *)
module Codec = Hsgc_util.Codec

let encode t w =
  Codec.W.bool w t.skip;
  Codec.W.int w t.now;
  Codec.W.int w t.executed;
  Codec.W.int w t.skipped

let restore t r =
  let skip = Codec.R.bool r in
  if skip <> t.skip then
    raise (Codec.Error "stepping mode (skip) differs between snapshot and machine");
  t.now <- Codec.R.int r;
  t.executed <- Codec.R.int r;
  t.skipped <- Codec.R.int r

let watchdog_encode (d : Watchdog.t) w =
  Codec.W.int w d.Watchdog.quiet;
  Codec.W.int w d.Watchdog.last_progress

let watchdog_restore (d : Watchdog.t) r =
  d.Watchdog.quiet <- Codec.R.int r;
  d.Watchdog.last_progress <- Codec.R.int r
