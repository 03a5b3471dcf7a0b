type kind = Header_load | Header_store | Body_load | Body_store

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Header_load -> "header-load"
    | Header_store -> "header-store"
    | Body_load -> "body-load"
    | Body_store -> "body-store")

let is_load = function
  | Header_load | Body_load -> true
  | Header_store | Body_store -> false

let is_header = function
  | Header_load | Header_store -> true
  | Body_load | Body_store -> false

(* Status lives in three unboxed fields rather than a variant: the
   machine accepts a transaction roughly every other cycle per busy
   core, and an [In_flight {addr; done_at}] block per acceptance was a
   measurable share of the hot loop's minor allocation. [st] encodes
   the constructor; [addr]/[done_at] are only meaningful in the states
   noted. *)
let st_idle = 0
let st_waiting = 1 (* addr: deposited, not yet accepted *)
let st_in_flight = 2 (* addr, done_at *)
let st_ready = 3 (* loads only: data arrived, awaiting consumption *)

(* [events] is a transition counter shared with the owning simulator (and
   typically with every other buffer of the machine): any status change
   bumps it. The simulation kernel zeroes it at the start of each cycle;
   a cycle that ends with it still at zero had no buffer activity — one
   of the requirements for idle-cycle skipping. *)
type t = {
  kind : kind;
  mutable st : int;
  mutable addr : int;
  mutable done_at : int;
  mutable issued_at : int; (* deposit cycle of the transfer in [addr] *)
  events : int ref;
  faults : Hsgc_fault.Injector.t;
  hooks : Hsgc_sanitizer.Hooks.t;
  obs : Hsgc_obs.Tracer.t;
  owner : int; (* owning core index, -1 when anonymous *)
}

(* Latency-histogram kind ids, resolved once at creation. *)
let obs_kind = function
  | Header_load -> Hsgc_obs.Tracer.mem_header_load
  | Header_store -> Hsgc_obs.Tracer.mem_header_store
  | Body_load -> Hsgc_obs.Tracer.mem_body_load
  | Body_store -> Hsgc_obs.Tracer.mem_body_store

let create ?events ?(faults = Hsgc_fault.Injector.disabled) ?hooks
    ?(obs = Hsgc_obs.Tracer.disabled) ?(owner = -1) kind =
  let hooks =
    match hooks with Some h -> h | None -> Hsgc_sanitizer.Hooks.create ()
  in
  {
    kind;
    st = st_idle;
    addr = 0;
    done_at = 0;
    issued_at = 0;
    events = (match events with Some e -> e | None -> ref 0);
    faults;
    hooks;
    obs;
    owner;
  }

let misuse t detail =
  Hsgc_sanitizer.Diag.fail
    ~cycle:t.hooks.Hsgc_sanitizer.Hooks.cycle
    ~core:t.owner ~addr:t.addr Hsgc_sanitizer.Diag.Port_protocol
    (Format.asprintf "%a buffer %s" pp_kind t.kind detail)

let kind t = t.kind
let is_idle t = t.st = st_idle

(* Acceptance by transaction class: a port's kind is fixed at creation,
   so the match picks the class once; the body arms inline down to the
   bandwidth check ({!Memsys.accept_body_load}), the header arms are
   calls. *)
let[@inline] accept t mem ~now ~addr =
  match t.kind with
  | Body_load -> Memsys.accept_body_load mem ~now
  | Body_store -> Memsys.accept_body_store mem ~now
  | Header_load -> Memsys.accept_header_load mem ~now ~addr
  | Header_store -> Memsys.accept_header_store mem ~now ~addr

let[@inline] try_accept t mem ~now ~addr =
  (* A spurious-busy fault rejects the attempt before it reaches the
     memory interface — the buffer stays in its normal retry loop, so
     the perturbation is pure timing. *)
  let done_at =
    if Hsgc_fault.Injector.spurious_busy t.faults then -1
    else accept t mem ~now ~addr
  in
  if done_at >= 0 then begin
    t.st <- st_in_flight;
    t.addr <- addr;
    t.done_at <- done_at;
    incr t.events
  end
  else begin
    t.st <- st_waiting;
    t.addr <- addr
  end

let[@inline] issue t mem ~now ~addr =
  if t.st = st_idle then begin
    (* Idle -> Waiting is a transition too, even when memory rejects. *)
    incr t.events;
    t.issued_at <- now;
    try_accept t mem ~now ~addr;
    true
  end
  else false

let issue_immediate t =
  if not (is_load t.kind) then
    misuse t "issue_immediate on a store buffer";
  if t.st = st_idle then begin
    t.st <- st_ready;
    incr t.events
  end
  else misuse t "issue_immediate while busy"

(* A completed transfer: a load's data is ready, a store's buffer is
   free again. *)
let[@inline] complete t =
  t.st <- (if is_load t.kind then st_ready else st_idle);
  (* Memory-wait observation: deposit-to-completion, measured against
     [done_at] rather than [now] so the value is identical whether the
     owning core observed the completion promptly (naive stepping) or
     after waking from an event-driven sleep. *)
  if t.obs.Hsgc_obs.Tracer.on then
    Hsgc_obs.Tracer.mem_done t.obs ~kind:(obs_kind t.kind)
      ~latency:(t.done_at - t.issued_at);
  incr t.events

(* A retry follows a rejected acceptance (bandwidth, comparator hold or
   a spurious-busy fault), which is rare; it stays out of line so that
   an inlined [tick] is the status test and the completion. *)
let[@inline never] retry t mem ~now = try_accept t mem ~now ~addr:t.addr

let[@inline] tick t mem ~now =
  let st = t.st in
  if st = st_waiting then retry t mem ~now
  else if st = st_in_flight && t.done_at <= now then complete t

let load_ready t = t.st = st_ready

let consume t =
  if t.st = st_ready then begin
    t.st <- st_idle;
    incr t.events
  end
  else misuse t "consumed with no data ready"

let[@inline] wake_after t mem ~now =
  let st = t.st in
  if st = st_idle || st = st_ready then max_int
  else if st = st_in_flight then
    if t.done_at > now + 1 then t.done_at else now + 1
  else if
    t.kind = Header_load && not (Hsgc_fault.Injector.retry_draws t.faults)
  then begin
    (* An order-held header load sleeps until the blocking store
       commits; anything else might be accepted as soon as next cycle's
       bandwidth budget opens. When spurious-busy faults are armed,
       every retry cycle draws from the fault stream, so even the
       order-held wait must replay cycle by cycle. *)
    let commit = Memsys.commit_after mem ~addr:t.addr in
    if commit = max_int then now + 1 else commit
  end
  else now + 1

let retry_wake t ~now = if t.st = st_waiting then now + 1 else max_int

let polls t = t.st = st_waiting || t.st = st_ready

let in_flight_done t = if t.st = st_in_flight then t.done_at else min_int

let[@inline] order_held t mem =
  t.st = st_waiting && t.kind = Header_load
  && Memsys.commit_after mem ~addr:t.addr <> max_int

let next_wake t mem ~now =
  let w = wake_after t mem ~now in
  if w = max_int then None else Some w

let busy_addr t = if t.st = st_idle || t.st = st_ready then None else Some t.addr

(* A transfer done by [now] reads as completed, as [tick] at [now]
   would leave it. *)
let describe t ~now =
  let st =
    if t.st = st_in_flight && t.done_at <= now then
      if is_load t.kind then st_ready else st_idle
    else t.st
  in
  if st = st_idle then "idle"
  else if st = st_ready then "ready"
  else if st = st_waiting then Printf.sprintf "waiting addr=%d" t.addr
  else Printf.sprintf "in-flight addr=%d done@%d" t.addr t.done_at

(* Checkpoint codec: the four status fields are the port's entire
   mutable state; [events]/[faults]/[hooks]/[obs] are wiring owned by
   the simulator and restored at its level. *)
module Codec = Hsgc_util.Codec

let encode t w =
  Codec.W.int w t.st;
  Codec.W.int w t.addr;
  Codec.W.int w t.done_at;
  Codec.W.int w t.issued_at

let restore t r =
  let st = Codec.R.int r in
  if st < st_idle || st > st_ready then
    raise (Codec.Error (Printf.sprintf "port status %d out of range" st));
  t.st <- st;
  t.addr <- Codec.R.int r;
  t.done_at <- Codec.R.int r;
  t.issued_at <- Codec.R.int r
