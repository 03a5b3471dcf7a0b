(* Keyed wake queue for event-driven component scheduling.

   Components (GC cores, in practice) arm a wake time when they go to
   sleep on a memory response. The [armed] array holds each component's
   *current* wake time and is the source of truth; how the earliest
   future wake is found depends on the population size:

   - small populations (up to [scan_threshold] ids — every realistic
     coprocessor) scan [armed] directly: a handful of loads, no heap
     maintenance at all on the arm path, which runs once per sleep;

   - large populations keep a Wheel min-heap of (time, id) entries on
     the side. Re-arming just pushes a fresh entry and overwrites
     [armed]; stale heap entries are discarded lazily when they surface
     at the top ([armed.(id) <> time] means the entry was superseded).
     Arm/disarm stay O(log n) with no deletion support needed in the
     heap, and — because the Wheel stores ints in parallel arrays —
     allocation-free in steady state. *)

let scan_threshold = 64

type t = {
  heap : int Wheel.t option; (* None = linear-scan regime *)
  armed : int array; (* per-id current wake time; max_int = disarmed *)
}

let create ~n =
  {
    heap = (if n <= scan_threshold then None else Some (Wheel.create ()));
    armed = Array.make n max_int;
  }

let arm t ~id ~time =
  t.armed.(id) <- time;
  match t.heap with None -> () | Some h -> Wheel.push h ~time id

let disarm t ~id = t.armed.(id) <- max_int

let wake_of t ~id = t.armed.(id)

let next_after t ~now =
  match t.heap with
  | None ->
    (* An armed time at or before [now] is stale by construction (the
       component was woken and stepped at that cycle), so the strictly-
       future filter doubles as staleness pruning. Branch-free, as the
       per-cycle due scan is: a mask maps a wake at or before [now] to
       [max_int], and the minimum is taken with the sign of the
       difference. Every value lies in [0, max_int], so no difference
       overflows. *)
    let armed = t.armed in
    let best = ref max_int in
    for i = 0 to Array.length armed - 1 do
      let w = Array.unsafe_get armed i in
      (* [(now - w) asr 62] is -1 when [w > now], else 0. *)
      let v = w lor (lnot ((now - w) asr 62) land max_int) in
      let d = v - !best in
      best := !best + (d land (d asr 62))
    done;
    !best
  | Some h ->
    (* Discard entries that are stale (superseded by a re-arm or disarm)
       or already due; return the earliest strictly-future armed wake,
       or max_int when none. *)
    let result = ref (-1) in
    while !result < 0 do
      let time = Wheel.top_time h in
      if time = max_int then result := max_int
      else
        let id = Wheel.top_exn h in
        if t.armed.(id) = time && time > now then result := time
        else Wheel.drop_exn h
    done;
    !result

let pending t ~now =
  let n = ref 0 in
  Array.iter (fun w -> if w > now && w < max_int then incr n) t.armed;
  !n

let heap_entries t = match t.heap with None -> 0 | Some h -> Wheel.size h

(* Wake-time combinators shared by the kernel's fast-forward logic.
   A wake of [None] means "no self-scheduled event": the component only
   reacts to external stimuli, so it never bounds a jump. *)

let min_wake a b =
  match (a, b) with
  | None, w | w, None -> w
  | Some x, Some y -> Some (min x y)

(* Int-typed: the polymorphic [min] would be a generic-compare call on
   every fast-forward. *)
let bound ~horizon (target : int) =
  match horizon with None -> target | Some h -> if h <= target then h else target
