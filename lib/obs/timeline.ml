(* The activity view: tracer events folded onto the counter-sampling
   grid. Point k is cycle k * interval. The tracer takes a counter
   sample at every grid point, fast-forwarded ones included, so a span
   covers the points whose cycle it contains under any stepping
   strategy. *)

(* Indexed by phase id and by stall id (Table II column order). *)
let phase_letters = "IRB.cf "
let stall_letters = "SFHrwhu"

type t = {
  tr : Tracer.t;
  n_cores : int;
  interval : int;
  (* log2 of the interval if it is a power of two (the CLI's default
     16), else -1: every absorbed event needs its point, and a shift is
     cheaper than a division. *)
  shift : int;
  mutable backlog : int array;  (* per point *)
  mutable fifo : int array;
  (* Core [i] at point [k] is cell [k * n_cores + i], '?' until a span
     covers it. A core's phase spans never overlap, nor do its stall
     runs: a phase letter fills only a '?' cell and a stall letter
     overwrites, so the stall wins in either arrival order. *)
  mutable cells : Bytes.t;
  mutable n : int;  (* points up to the latest sample *)
}

let create tr =
  let iv = tr.Tracer.interval in
  let s = Float.(to_int (log2 (of_int iv))) in
  {
    tr;
    n_cores = Tracer.n_cores tr;
    interval = iv;
    shift = (if 1 lsl s = iv then s else -1);
    backlog = [||];
    fifo = [||];
    cells = Bytes.empty;
    n = 0;
  }

let samples t = t.n

(* The point at or before cycle [x >= 0]. *)
let point t x = if t.shift >= 0 then x asr t.shift else x / t.interval

(* Room for point [k]: a span can arrive before a sample it covers. *)
let reserve t k =
  let have = Array.length t.backlog in
  if k >= have then begin
    let more = max (k + 1) ((2 * have) + 1024) - have in
    t.backlog <- Array.append t.backlog (Array.make more 0);
    t.fifo <- Array.append t.fifo (Array.make more 0);
    t.cells <- Bytes.cat t.cells (Bytes.make (more * t.n_cores) '?')
  end

let absorb t =
  let tr = t.tr and iv = t.interval in
  for i = 0 to Tracer.length tr - 1 do
    let code = tr.ev_code.(i) and cycle = tr.ev_cycle.(i) in
    if code = Tracer.ev_sample then begin
      let k = point t cycle in
      if k * iv <> cycle then invalid_arg "Timeline.absorb: sample off the grid";
      reserve t k;
      t.backlog.(k) <- tr.ev_a.(i);
      t.fifo.(k) <- tr.ev_b.(i);
      if k >= t.n then t.n <- k + 1
    end
    else if code = Tracer.ev_phase || code = Tracer.ev_stall then begin
      (* The points in [cycle, cycle + span), last first. Most spans are
         shorter than the interval and cover none. *)
      let stall = code = Tracer.ev_stall and span = tr.ev_b.(i) in
      let k = ref (point t (cycle + span - 1)) in
      if span > 0 && !k * iv >= cycle then begin
        reserve t !k;
        let letter =
          (if stall then stall_letters else phase_letters).[tr.ev_a.(i)]
        in
        while !k * iv >= cycle do
          let c = (!k * t.n_cores) + tr.ev_core.(i) in
          if stall || Bytes.get t.cells c = '?' then Bytes.set t.cells c letter;
          decr k
        done
      end
    end
  done;
  Tracer.clear tr

let timeline ?(width = 100) t =
  if t.n = 0 then "(no samples)\n"
  else begin
    let width = min width t.n and top = Array.fold_left max 1 t.backlog in
    let row f =
      String.init width (fun col -> f (col * (t.n - 1) / max 1 (width - 1)))
    in
    let b = Buffer.create ((t.n_cores + 5) * (width + 16)) in
    Printf.bprintf b
      "cycles 0..%d, %d samples every %d cycles, %d events dropped\n\
       backlog %s  (max %d words)\n"
      ((t.n - 1) * t.interval) t.n t.interval (Tracer.dropped t.tr)
      (row (fun k -> " .:-=+*#%@".[t.backlog.(k) * 9 / top])) top;
    for core = 0 to t.n_cores - 1 do
      Printf.bprintf b "core %-2d %s\n" core
        (row (fun k -> Bytes.get t.cells ((k * t.n_cores) + core)))
    done;
    Buffer.add_string b
      "legend: I=init  R=roots  B=barrier  .=seeking work  c=copying  f=flush\n\
      \        stalls: S=scan-lock  F=free-lock  H=header-lock  r=body-load\n\
      \        w=body-store  h=header-load  u=header-store\n";
    Buffer.contents b
  end

let to_csv t =
  let b = Buffer.create (64 + (t.n * (t.n_cores + 24))) in
  Buffer.add_string b "cycle,backlog_words,fifo_depth,core_activity\n";
  for k = 0 to t.n - 1 do
    Buffer.add_string b (string_of_int (k * t.interval));
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int t.backlog.(k));
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int t.fifo.(k));
    Buffer.add_char b ',';
    Buffer.add_subbytes b t.cells (k * t.n_cores) t.n_cores;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b
