type mode = Off | Check | Strict

(* Per-word shadow state, one byte per heap word:
   bit 7: accessed at least once this collection
   bit 6: shared (touched by more than one core)
   bits 0-2: candidate protection set (intersection over accesses) *)
let st_accessed = 0x80
let st_shared = 0x40

(* Protection classes a single access can hold. *)
let p_scan = 1   (* scan lock held and word is a header word of the
                    object the scan register points at *)
let p_header = 2 (* header lock of the word's object frame held *)
let p_owner = 4  (* word inside a range the core has claimed *)
let p_mask = p_scan lor p_header lor p_owner

let no_core = 0xff

type t = {
  sm : mode;
  hooks : Hooks.t;
  n_cores : int;
  header_words : int;
  (* word shadows *)
  state : Bytes.t;
  last_core : Bytes.t;
  owner : Bytes.t;
  fwd : Bytes.t;
  (* sync-block mirror *)
  mutable scan_holder : int;  (* -1 = free *)
  mutable free_holder : int;
  header_addr : int array;    (* per core; 0 = none *)
  mutable scan_reg : int;
  mutable free_reg : int;
  (* barrier mirror *)
  passes : int array;
  mutable any_barrier : bool;
  (* header-FIFO mirror *)
  fifo_shadow : int Queue.t;
  (* findings *)
  seen : (string, unit) Hashtbl.t;
  mutable kept : Diag.t list;  (* newest first *)
  mutable n_kept : int;
  mutable n_total : int;
}

let max_kept = 64

let mode t = t.sm
let findings t = List.rev t.kept
let total t = t.n_total
let is_silent t = t.n_total = 0

let mode_to_string = function
  | Off -> "off"
  | Check -> "check"
  | Strict -> "strict"

let mode_of_string = function
  | "off" -> Some Off
  | "check" | "on" -> Some Check
  | "strict" -> Some Strict
  | _ -> None

let locks_of t core =
  let b = Buffer.create 16 in
  Buffer.add_char b '{';
  let sep () = if Buffer.length b > 1 then Buffer.add_char b ',' in
  if t.scan_holder = core then (sep (); Buffer.add_string b "scan");
  if core >= 0 && core < t.n_cores && t.header_addr.(core) <> 0 then begin
    sep ();
    Buffer.add_string b (Printf.sprintf "hdr:%d" t.header_addr.(core))
  end;
  if t.free_holder = core then (sep (); Buffer.add_string b "free");
  Buffer.add_char b '}';
  Buffer.contents b

let report t ~core ~addr check detail =
  t.n_total <- t.n_total + 1;
  let key = Printf.sprintf "%s/%d/%d" (Diag.check_name check) core addr in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    let d =
      Diag.make ~cycle:t.hooks.Hooks.cycle ~core ~addr ~locks:(locks_of t core)
        check detail
    in
    if t.n_kept < max_kept then begin
      t.kept <- d :: t.kept;
      t.n_kept <- t.n_kept + 1
    end;
    if t.sm = Strict then raise (Diag.Violation d)
  end

let in_range t addr = addr >= 0 && addr < Bytes.length t.state

(* Protection the accessing core holds over [addr] (inside object
   frame [base]) right now. *)
let protection t ~core ~base ~addr =
  let p = ref 0 in
  if in_range t addr && Char.code (Bytes.unsafe_get t.owner addr) = core then
    p := !p lor p_owner;
  (* base = 0 is the null frame: an empty header-lock register (0) must
     not read as "holding the lock on frame 0". *)
  if base <> 0 && core >= 0 && core < t.n_cores && t.header_addr.(core) = base
  then p := !p lor p_header;
  let is_header_word = addr - base < t.header_words in
  if is_header_word && t.scan_holder = core && base = t.scan_reg then
    p := !p lor p_scan;
  !p

let access t ~core ~base ~addr ~write =
  if not (in_range t addr) then
    report t ~core ~addr Diag.Mem_protocol
      (Printf.sprintf "%s outside simulated memory"
         (if write then "store" else "load"))
  else begin
    let held = protection t ~core ~base ~addr in
    let is_header_word = addr - base < t.header_words in
    if held = 0 then
      report t ~core ~addr
        (if is_header_word then Diag.Unprotected_header
         else Diag.Unprotected_payload)
        (Printf.sprintf "%s of %s word (frame %d) with no lock or claim"
           (if write then "store" else "load")
           (if is_header_word then "header" else "payload")
           base)
    else begin
      let st = Char.code (Bytes.unsafe_get t.state addr) in
      let lc = Char.code (Bytes.unsafe_get t.last_core addr) in
      let st' =
        if st land st_accessed = 0 then st_accessed lor (held land p_mask)
        else begin
          let shared =
            st land st_shared <> 0 || (lc <> no_core && lc <> core)
          in
          let cand = st land p_mask land held in
          st_accessed lor (if shared then st_shared else 0) lor cand
        end
      in
      Bytes.unsafe_set t.state addr (Char.unsafe_chr st');
      Bytes.unsafe_set t.last_core addr (Char.unsafe_chr (core land 0xff));
      if st' land st_shared <> 0 && st' land p_mask = 0 then
        report t ~core ~addr Diag.Lockset_race
          (Printf.sprintf
             "candidate lockset of shared %s word (frame %d) emptied on %s"
             (if is_header_word then "header" else "payload")
             base
             (if write then "store" else "load"))
    end
  end

let claim t ~core ~lo ~hi =
  let lo = max lo 0 and hi = min hi (Bytes.length t.state) in
  if lo < hi then begin
    (* Ownership transfer: the new owner starts a fresh epoch on these
       words, so accesses by the previous owner (e.g. the evacuator
       that wrote the gray header we are about to scan) cannot falsely
       intersect with ours.  This is how the same-cycle release→acquire
       handoff stays silent. *)
    Bytes.fill t.state lo (hi - lo) '\000';
    Bytes.fill t.last_core lo (hi - lo) (Char.chr no_core);
    Bytes.fill t.owner lo (hi - lo) (Char.unsafe_chr (core land 0xff))
  end

let release t ~core ~lo ~hi =
  let lo = max lo 0 and hi = min hi (Bytes.length t.owner) in
  for a = lo to hi - 1 do
    if Char.code (Bytes.unsafe_get t.owner a) = core then
      Bytes.unsafe_set t.owner a (Char.chr no_core)
  done

let on_lock_acquired t ~lock ~core ~addr =
  if lock = Hooks.scan_lock then begin
    if t.scan_holder = core then
      report t ~core ~addr:(-1) Diag.Lock_state "scan lock re-entry"
    else if t.scan_holder >= 0 then
      report t ~core ~addr:(-1) Diag.Lock_state
        (Printf.sprintf "scan lock granted while core %d holds it"
           t.scan_holder);
    if t.header_addr.(core) <> 0 then
      report t ~core ~addr:t.header_addr.(core) Diag.Lock_order
        "scan lock acquired while holding a header lock";
    if t.free_holder = core then
      report t ~core ~addr:(-1) Diag.Lock_order
        "scan lock acquired while holding the free lock";
    t.scan_holder <- core
  end
  else if lock = Hooks.header_lock then begin
    if addr = 0 then
      report t ~core ~addr Diag.Null_header "header lock on the null address";
    if t.header_addr.(core) <> 0 then
      report t ~core ~addr Diag.Lock_state
        (Printf.sprintf "header lock re-entry (already holds %d)"
           t.header_addr.(core));
    if t.free_holder = core then
      report t ~core ~addr Diag.Lock_order
        "header lock acquired while holding the free lock";
    t.header_addr.(core) <- addr
  end
  else begin
    if t.free_holder = core then
      report t ~core ~addr:(-1) Diag.Lock_state "free lock re-entry"
    else if t.free_holder >= 0 then
      report t ~core ~addr:(-1) Diag.Lock_state
        (Printf.sprintf "free lock granted while core %d holds it"
           t.free_holder);
    t.free_holder <- core
  end

let on_lock_released t ~lock ~core ~addr =
  if lock = Hooks.scan_lock then begin
    if t.scan_holder <> core then
      report t ~core ~addr:(-1) Diag.Lock_state "scan unlock by non-holder"
    else t.scan_holder <- -1
  end
  else if lock = Hooks.header_lock then begin
    if t.header_addr.(core) <> addr || addr = 0 then
      report t ~core ~addr Diag.Lock_state "header unlock without the lock"
    else t.header_addr.(core) <- 0
  end
  else begin
    if t.free_holder <> core then
      report t ~core ~addr:(-1) Diag.Lock_state "free unlock by non-holder"
    else t.free_holder <- -1
  end

let on_scan_advanced t ~core ~scan_was ~scan_now ~free =
  if t.scan_holder <> core then
    report t ~core ~addr:scan_was Diag.Scan_protocol
      "scan advanced without holding the scan lock";
  if scan_now < scan_was then
    report t ~core ~addr:scan_now Diag.Scan_protocol
      (Printf.sprintf "scan moved backwards (%d -> %d)" scan_was scan_now);
  if scan_now > free then
    report t ~core ~addr:scan_now Diag.Scan_protocol
      (Printf.sprintf "scan advanced past free (%d > %d)" scan_now free);
  t.scan_reg <- scan_now

let on_free_claimed t ~core ~addr ~size =
  if t.free_holder <> core then
    report t ~core ~addr Diag.Free_protocol
      "free claimed without holding the free lock";
  if addr < t.free_reg then
    report t ~core ~addr Diag.Free_protocol
      (Printf.sprintf "free moved backwards (%d < %d)" addr t.free_reg);
  if size <= 0 then
    report t ~core ~addr Diag.Free_protocol
      (Printf.sprintf "free claim of %d words" size);
  t.free_reg <- max t.free_reg (addr + size);
  (* The claimer owns the fresh frame's header words: it writes the
     gray header there before any other core can see the object. *)
  claim t ~core ~lo:addr ~hi:(addr + t.header_words)

let on_reg_set t ~scan ~value =
  if t.any_barrier then
    report t ~core:(-1) ~addr:value Diag.Register_poke
      (Printf.sprintf "%s register rewritten mid-collection"
         (if scan then "scan" else "free"));
  if scan then t.scan_reg <- value else t.free_reg <- value

let on_barrier_passed t ~core =
  if t.scan_holder = core || t.free_holder = core || t.header_addr.(core) <> 0
  then
    report t ~core ~addr:(-1) Diag.Locks_at_barrier
      "core passed a barrier while holding locks";
  t.passes.(core) <- t.passes.(core) + 1;
  t.any_barrier <- true;
  let min_pass = Array.fold_left min max_int t.passes in
  if t.passes.(core) > min_pass + 1 then
    report t ~core ~addr:(-1) Diag.Barrier_skew
      (Printf.sprintf "core passed barrier round %d while another is at %d"
         t.passes.(core) min_pass)

let on_fifo_pushed t ~addr ~buffered =
  if addr <= 0 then
    report t ~core:(-1) ~addr Diag.Fifo_order
      "null/negative header address pushed to the FIFO";
  (* A dropped push (overflow or injected fault) never becomes visible
     to poppers, so it does not enter the shadow queue. *)
  if buffered && addr > 0 then Queue.push addr t.fifo_shadow

let on_fifo_popped t ~addr =
  match Queue.peek_opt t.fifo_shadow with
  | None ->
      report t ~core:(-1) ~addr Diag.Fifo_order
        "FIFO pop with no outstanding push"
  | Some expect ->
      if expect <> addr then
        report t ~core:(-1) ~addr Diag.Fifo_order
          (Printf.sprintf "FIFO popped %d but %d was pushed first" addr expect)
      else ignore (Queue.pop t.fifo_shadow)

let on_forward_installed t ~core ~from_ ~to_ =
  if t.header_addr.(core) <> from_ then
    report t ~core ~addr:from_ Diag.Forward_unlocked
      "forwarding installed without holding the object's header lock";
  if in_range t from_ then begin
    if Bytes.get t.fwd from_ <> '\000' then
      report t ~core ~addr:from_ Diag.Forward_once
        (Printf.sprintf "second forwarding install (object %d -> %d)" from_
           to_);
    Bytes.set t.fwd from_ '\001'
  end

let create ~mode:sm ~mem_words ~n_cores ~header_words hooks =
  if n_cores > 250 then invalid_arg "Sanitizer.create: too many cores";
  if mem_words < 0 then invalid_arg "Sanitizer.create: negative memory size";
  (* The word shadows are read only through the hooks, which an [Off]
     sanitizer never installs: size them to nothing then, instead of
     four bytes per heap word on every machine start. *)
  let shadow_words = if sm = Off then 0 else mem_words in
  let t =
    {
      sm;
      hooks;
      n_cores;
      header_words;
      state = Bytes.make shadow_words '\000';
      last_core = Bytes.make shadow_words (Char.chr no_core);
      owner = Bytes.make shadow_words (Char.chr no_core);
      fwd = Bytes.make shadow_words '\000';
      scan_holder = -1;
      free_holder = -1;
      header_addr = Array.make (max n_cores 1) 0;
      scan_reg = 0;
      free_reg = 0;
      passes = Array.make (max n_cores 1) 0;
      any_barrier = false;
      fifo_shadow = Queue.create ();
      seen = Hashtbl.create 31;
      kept = [];
      n_kept = 0;
      n_total = 0;
    }
  in
  if sm <> Off then begin
    hooks.Hooks.lock_acquired <- (fun ~lock ~core ~addr ->
        on_lock_acquired t ~lock ~core ~addr);
    hooks.Hooks.lock_released <- (fun ~lock ~core ~addr ->
        on_lock_released t ~lock ~core ~addr);
    hooks.Hooks.scan_advanced <- (fun ~core ~scan_was ~scan_now ~free ->
        on_scan_advanced t ~core ~scan_was ~scan_now ~free);
    hooks.Hooks.free_claimed <- (fun ~core ~addr ~size ->
        on_free_claimed t ~core ~addr ~size);
    hooks.Hooks.reg_set <- (fun ~scan ~value -> on_reg_set t ~scan ~value);
    hooks.Hooks.barrier_passed <- (fun ~core -> on_barrier_passed t ~core);
    hooks.Hooks.fifo_pushed <- (fun ~addr ~buffered ->
        on_fifo_pushed t ~addr ~buffered);
    hooks.Hooks.fifo_popped <- (fun ~addr -> on_fifo_popped t ~addr);
    hooks.Hooks.word_read <- (fun ~core ~base ~addr ->
        access t ~core ~base ~addr ~write:false);
    hooks.Hooks.word_written <- (fun ~core ~base ~addr ->
        access t ~core ~base ~addr ~write:true);
    hooks.Hooks.range_claimed <- (fun ~core ~lo ~hi -> claim t ~core ~lo ~hi);
    hooks.Hooks.range_released <- (fun ~core ~lo ~hi ->
        release t ~core ~lo ~hi);
    hooks.Hooks.forward_installed <- (fun ~core ~from_ ~to_ ->
        on_forward_installed t ~core ~from_ ~to_);
    hooks.Hooks.on <- true
  end;
  t

let detach t = t.hooks.Hooks.on <- false
