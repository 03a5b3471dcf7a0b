module Injector = Hsgc_fault.Injector
module Diag = Hsgc_sanitizer.Diag
module Hooks = Hsgc_sanitizer.Hooks

type t = {
  capacity : int;
  buf : int array; (* ring buffer of frame addresses *)
  faults : Injector.t;
  hooks : Hooks.t;
  obs : Hsgc_obs.Tracer.t;
  mutable head : int; (* index of front entry *)
  mutable len : int;
  mutable overflows : int;
  mutable hits : int;
  mutable misses : int;
  mutable drops : int;
}

let create ?(faults = Injector.disabled) ?hooks
    ?(obs = Hsgc_obs.Tracer.disabled) ~capacity () =
  if capacity <= 0 then invalid_arg "Header_fifo.create";
  let hooks = match hooks with Some h -> h | None -> Hooks.create () in
  {
    capacity;
    buf = Array.make capacity 0;
    faults;
    hooks;
    obs;
    head = 0;
    len = 0;
    overflows = 0;
    hits = 0;
    misses = 0;
    drops = 0;
  }

let capacity t = t.capacity
let length t = t.len

let push t addr =
  (* Sanitizer protocol lint: the machine never pushes the null header
     (address 0); standalone uses of the FIFO may buffer any key. *)
  if t.hooks.Hooks.on && addr <= 0 then
    Diag.fail ~cycle:t.hooks.Hooks.cycle ~addr Diag.Fifo_order
      "null/negative frame address pushed to the header FIFO";
  let buffered =
    if Injector.drop_push t.faults then begin
      (* Transient fault: the entry is simply not buffered, exactly like a
         capacity overflow — the later read falls through to memory. *)
      t.drops <- t.drops + 1;
      false
    end
    else if t.len >= t.capacity then begin
      t.overflows <- t.overflows + 1;
      false
    end
    else begin
      (* [head + len < 2 * capacity]: one conditional subtraction wraps
         the ring index without a division. *)
      let i = t.head + t.len in
      t.buf.(if i >= t.capacity then i - t.capacity else i) <- addr;
      t.len <- t.len + 1;
      true
    end
  in
  if t.hooks.Hooks.on then t.hooks.Hooks.fifo_pushed ~addr ~buffered;
  (* Overflow-episode tracking: a streak of unbuffered pushes (capacity
     overflow or fault drop) opens an episode; the next buffered push
     closes it as one span event. *)
  if t.obs.Hsgc_obs.Tracer.on then
    Hsgc_obs.Tracer.fifo_push t.obs ~buffered;
  buffered

let[@inline] try_pop t addr =
  if t.len > 0 && t.buf.(t.head) = addr then begin
    let h = t.head + 1 in
    t.head <- (if h = t.capacity then 0 else h);
    t.len <- t.len - 1;
    t.hits <- t.hits + 1;
    if t.hooks.Hooks.on then t.hooks.Hooks.fifo_popped ~addr;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

(* Purely reactive: entries appear on gray-header stores and leave on
   scan-loop reads, both core actions within the acting core's cycle.
   The FIFO never schedules its own future event. *)
let next_wake (_ : t) : int option = None

let overflows t = t.overflows
let hits t = t.hits
let misses t = t.misses
let fault_drops t = t.drops

let clear t =
  t.head <- 0;
  t.len <- 0

(* Checkpoint codec: ring contents plus cursors and counters. *)
module Codec = Hsgc_util.Codec

let encode t w =
  Codec.W.int_array w t.buf;
  Codec.W.int w t.head;
  Codec.W.int w t.len;
  Codec.W.int w t.overflows;
  Codec.W.int w t.hits;
  Codec.W.int w t.misses;
  Codec.W.int w t.drops

let restore t r =
  Codec.R.int_array_into r t.buf ~what:"header FIFO ring";
  t.head <- Codec.R.int r;
  t.len <- Codec.R.int r;
  if t.head < 0 || t.head >= t.capacity || t.len < 0 || t.len > t.capacity
  then raise (Codec.Error "header FIFO cursors out of range");
  t.overflows <- Codec.R.int r;
  t.hits <- Codec.R.int r;
  t.misses <- Codec.R.int r;
  t.drops <- Codec.R.int r
