module Injector = Hsgc_fault.Injector

type config = {
  header_load_latency : int;
  body_load_latency : int;
  store_latency : int;
  bandwidth : int;
  fifo_capacity : int;
  header_cache_entries : int;
}

let default_config =
  {
    header_load_latency = 6;
    body_load_latency = 2;
    store_latency = 1;
    bandwidth = 8;
    fifo_capacity = 32768;
    header_cache_entries = 0;
  }

let with_header_cache c entries =
  if entries < 0 then invalid_arg "Memsys.with_header_cache";
  { c with header_cache_entries = entries }

let with_extra_latency c n =
  {
    c with
    header_load_latency = c.header_load_latency + n;
    body_load_latency = c.body_load_latency + n;
    store_latency = c.store_latency + n;
  }

let validate_config c =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if c.header_load_latency < 1 then
    err "header_load_latency must be >= 1 (got %d)" c.header_load_latency
  else if c.body_load_latency < 1 then
    err "body_load_latency must be >= 1 (got %d)" c.body_load_latency
  else if c.store_latency < 1 then
    err "store_latency must be >= 1 (got %d)" c.store_latency
  else if c.bandwidth < 1 then err "bandwidth must be >= 1 (got %d)" c.bandwidth
  else if c.fifo_capacity < 1 then
    err "fifo_capacity must be >= 1 (got %d)" c.fifo_capacity
  else if c.header_cache_entries < 0 then
    err "header_cache_entries must be >= 0 (got %d)" c.header_cache_entries
  else Ok ()

type t = {
  config : config;
  fifo : Header_fifo.t;
  faults : Injector.t;
  hooks : Hsgc_sanitizer.Hooks.t;
  lane : int; (* -1 = the dense machine's single shared bus *)
  (* Direct-mapped header cache: slot i holds the address cached there
     (0 = empty). Contents live in the heap; only presence is modeled. *)
  header_cache : int array;
  (* Comparator array: header-store addresses still in flight, paired
     with their commit cycles, in two flat parallel arrays. The live
     prefix is [0, ps_n); committed entries are compacted away on the
     next insertion, so the arrays stay at the store high-water mark
     and the hot path never touches a hash table. *)
  mutable ps_addr : int array;
  mutable ps_commit : int array;
  mutable ps_n : int;
  (* Address-hash presence mask over the comparator array: bit
     [addr land 31] is set for every live entry (conservatively — bits
     of committed entries linger until the next compaction). A clear
     bit proves no pending store to [addr], so the order probes that
     run on every header-load acceptance and every order-held wake
     computation skip the array scan entirely. *)
  mutable ps_mask : int;
  mutable accepted_this_cycle : int;
  mutable cycle : int;
  mutable loads : int;
  mutable stores : int;
  mutable rejected_bandwidth : int;
  mutable rejected_order : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let create ?(faults = Injector.disabled) ?hooks
    ?(obs = Hsgc_obs.Tracer.disabled) ?(lane = -1) config =
  (match validate_config config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Memsys.create: " ^ msg));
  let hooks =
    match hooks with Some h -> h | None -> Hsgc_sanitizer.Hooks.create ()
  in
  {
    config;
    fifo =
      Header_fifo.create ~faults ~hooks ~obs ~capacity:config.fifo_capacity ();
    faults;
    hooks;
    lane;
    header_cache = Array.make (max 1 config.header_cache_entries) 0;
    ps_addr = Array.make 64 0;
    ps_commit = Array.make 64 0;
    ps_n = 0;
    ps_mask = 0;
    accepted_this_cycle = 0;
    cycle = 0;
    loads = 0;
    stores = 0;
    rejected_bandwidth = 0;
    rejected_order = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let fifo t = t.fifo
let lane t = t.lane

let begin_cycle t ~now =
  t.cycle <- now;
  t.accepted_this_cycle <- 0

(* Commit cycle of a still-pending header store to [addr], or max_int.
   Committed entries may linger in the array until the next insertion
   compacts them out; the [commit > cycle] guard makes them invisible. *)
let[@inline never] commit_scan t ~addr =
  (* A [let rec go] scan here would heap-allocate its closure on every
     call — and this runs once per cycle per port waiting on an
     order-held header load — so the loop is written with unboxed
     refs instead. *)
  let n = t.ps_n in
  let i = ref 0 and commit = ref max_int in
  while !commit = max_int && !i < n do
    if t.ps_addr.(!i) = addr && t.ps_commit.(!i) > t.cycle then
      commit := t.ps_commit.(!i);
    incr i
  done;
  !commit

(* The mask probe inlines into every caller and skips the scan whenever
   no pending store can hash to [addr]'s bucket. *)
let[@inline] commit_after t ~addr =
  if t.ps_mask land (1 lsl (addr land 31)) = 0 then max_int
  else commit_scan t ~addr

let store_commit_time t ~addr =
  let c = commit_after t ~addr in
  if c = max_int then None else Some c

let pending_store_count t =
  let n = ref 0 in
  for i = 0 to t.ps_n - 1 do
    if t.ps_commit.(i) > t.cycle then incr n
  done;
  !n

(* Record a header store in the comparator array. One pass compacts out
   committed entries and finds an existing live entry for [addr] (kept
   with the later commit); the append slot is whatever the compaction
   freed, so the arrays only grow to the high-water mark of
   simultaneously in-flight header stores. Returns the commit that now
   orders loads of [addr] ([commit_after]'s answer): the appended one
   when [addr] had no live entry. *)
let[@inline never] record_header_store t ~addr ~commit =
  let j = ref 0 and found = ref (-1) in
  let mask = ref (1 lsl (addr land 31)) in
  for i = 0 to t.ps_n - 1 do
    let c = t.ps_commit.(i) in
    if c > t.cycle then begin
      t.ps_addr.(!j) <- t.ps_addr.(i);
      t.ps_commit.(!j) <- c;
      if t.ps_addr.(!j) = addr then found := !j;
      mask := !mask lor (1 lsl (t.ps_addr.(!j) land 31));
      incr j
    end
  done;
  t.ps_n <- !j;
  (* Compaction visited every live entry, so this is the exact mask. *)
  t.ps_mask <- !mask;
  if !found >= 0 then begin
    (* Keep the later commit if a store to this address is already
       pending (cannot happen under the locking protocol, but the model
       stays safe without it). *)
    if commit > t.ps_commit.(!found) then t.ps_commit.(!found) <- commit;
    commit_after t ~addr
  end
  else begin
    if t.ps_n = Array.length t.ps_addr then begin
      let cap = 2 * t.ps_n in
      let addrs = Array.make cap 0 and commits = Array.make cap 0 in
      Array.blit t.ps_addr 0 addrs 0 t.ps_n;
      Array.blit t.ps_commit 0 commits 0 t.ps_n;
      t.ps_addr <- addrs;
      t.ps_commit <- commits
    end;
    t.ps_addr.(t.ps_n) <- addr;
    t.ps_commit.(t.ps_n) <- commit;
    t.ps_n <- t.ps_n + 1;
    commit
  end

let next_wake t ~now =
  let best = ref max_int in
  for i = 0 to t.ps_n - 1 do
    let c = t.ps_commit.(i) in
    if c > now && c < !best then best := c
  done;
  if !best = max_int then None else Some !best

let[@inline] bandwidth_ok t =
  if t.accepted_this_cycle < t.config.bandwidth then true
  else begin
    t.rejected_bandwidth <- t.rejected_bandwidth + 1;
    false
  end

let cache_slot t addr = addr mod Array.length t.header_cache

let cache_lookup t addr =
  t.config.header_cache_entries > 0 && t.header_cache.(cache_slot t addr) = addr

let cache_fill t addr =
  if t.config.header_cache_entries > 0 then
    t.header_cache.(cache_slot t addr) <- addr

(* Sentinel-returning acceptance fast paths: [-1] = rejected this cycle.
   The option-returning [try_accept_*] wrappers below exist for callers
   that prefer the typed interface; the per-cycle port retry loop uses
   these to stay allocation-free. *)

let[@inline never] clock_fail t ~now ~what =
  Hsgc_sanitizer.Diag.fail ~cycle:t.cycle
    Hsgc_sanitizer.Diag.Mem_protocol
    (Printf.sprintf
       "%s offered at cycle %d but begin_cycle was last called at %d" what
       now t.cycle)

let[@inline] clock_check t ~now ~what =
  if now <> t.cycle then clock_fail t ~now ~what

(* Body-class acceptance: a body word never enters the header cache, the
   comparator array or the FIFO, so accepting one is the clock check and
   the bandwidth budget alone. *)
let[@inline] accept_body_load t ~now =
  clock_check t ~now ~what:"load";
  if not (bandwidth_ok t) then -1
  else begin
    t.accepted_this_cycle <- t.accepted_this_cycle + 1;
    t.loads <- t.loads + 1;
    now + t.config.body_load_latency + Injector.extra_delay t.faults
  end

let[@inline] accept_body_store t ~now =
  clock_check t ~now ~what:"store";
  if not (bandwidth_ok t) then -1
  else begin
    t.accepted_this_cycle <- t.accepted_this_cycle + 1;
    t.stores <- t.stores + 1;
    now + t.config.store_latency + Injector.extra_delay t.faults
  end

let[@inline never] accept_header_load t ~now ~addr =
  clock_check t ~now ~what:"load";
  let cache_hit =
    cache_lookup t addr
    && begin
         if Injector.invalidate_cache t.faults then begin
           (* Transient fault: the line is lost and the access replays
              as an ordinary miss (comparator hold, bandwidth, refill). *)
           t.header_cache.(cache_slot t addr) <- 0;
           false
         end
         else true
       end
  in
  if cache_hit then begin
    (* Cache hit: on-chip, no bandwidth, no comparator hold (stores
       update the cache at initiation, so the cached value is current). *)
    t.cache_hits <- t.cache_hits + 1;
    now + 1
  end
  else if commit_after t ~addr <> max_int then begin
    t.rejected_order <- t.rejected_order + 1;
    -1
  end
  else if not (bandwidth_ok t) then -1
  else begin
    t.accepted_this_cycle <- t.accepted_this_cycle + 1;
    t.loads <- t.loads + 1;
    if t.config.header_cache_entries > 0 then begin
      t.cache_misses <- t.cache_misses + 1;
      cache_fill t addr
    end;
    now + t.config.header_load_latency + Injector.extra_delay t.faults
  end

let[@inline never] accept_header_store t ~now ~addr =
  clock_check t ~now ~what:"store";
  if not (bandwidth_ok t) then -1
  else begin
    t.accepted_this_cycle <- t.accepted_this_cycle + 1;
    t.stores <- t.stores + 1;
    let commit = now + t.config.store_latency + Injector.extra_delay t.faults in
    cache_fill t addr;
    (* The comparator may already have held a later commit for this
       address; report the one that actually orders future loads. *)
    record_header_store t ~addr ~commit
  end

let try_accept_load t ~now ~header ~addr =
  let c =
    if header then accept_header_load t ~now ~addr else accept_body_load t ~now
  in
  if c < 0 then None else Some c

let try_accept_store t ~now ~header ~addr =
  let c =
    if header then accept_header_store t ~now ~addr
    else accept_body_store t ~now
  in
  if c < 0 then None else Some c

let add_rejected_order t n = t.rejected_order <- t.rejected_order + n

let loads t = t.loads
let stores t = t.stores
let rejected_bandwidth t = t.rejected_bandwidth
let rejected_order t = t.rejected_order

let header_cache_hits t = t.cache_hits
let header_cache_misses t = t.cache_misses

let reset_stats t =
  t.loads <- 0;
  t.stores <- 0;
  t.rejected_bandwidth <- 0;
  t.rejected_order <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0

let reset t =
  reset_stats t;
  t.ps_n <- 0;
  t.ps_mask <- 0;
  Array.fill t.header_cache 0 (Array.length t.header_cache) 0;
  Header_fifo.clear t.fifo;
  t.accepted_this_cycle <- 0;
  t.cycle <- 0

(* Checkpoint codec: comparator array (live prefix only — committed
   entries past [ps_n] are garbage by construction), per-cycle
   acceptance state, the header cache, and the access counters. The
   FIFO is a separately-owned component and is checkpointed as its own
   section by the simulator. *)
module Codec = Hsgc_util.Codec

let encode t w =
  Codec.W.int w t.ps_n;
  for i = 0 to t.ps_n - 1 do
    Codec.W.int w t.ps_addr.(i);
    Codec.W.int w t.ps_commit.(i)
  done;
  Codec.W.int w t.accepted_this_cycle;
  Codec.W.int w t.cycle;
  Codec.W.int_array w t.header_cache;
  Codec.W.int w t.loads;
  Codec.W.int w t.stores;
  Codec.W.int w t.rejected_bandwidth;
  Codec.W.int w t.rejected_order;
  Codec.W.int w t.cache_hits;
  Codec.W.int w t.cache_misses

let restore t r =
  let n = Codec.R.int r in
  if n < 0 then raise (Codec.Error "negative comparator-array occupancy");
  if n > Array.length t.ps_addr then begin
    t.ps_addr <- Array.make n 0;
    t.ps_commit <- Array.make n 0
  end;
  t.ps_mask <- 0;
  for i = 0 to n - 1 do
    t.ps_addr.(i) <- Codec.R.int r;
    t.ps_commit.(i) <- Codec.R.int r;
    t.ps_mask <- t.ps_mask lor (1 lsl (t.ps_addr.(i) land 31))
  done;
  t.ps_n <- n;
  t.accepted_this_cycle <- Codec.R.int r;
  t.cycle <- Codec.R.int r;
  Codec.R.int_array_into r t.header_cache ~what:"header cache";
  t.loads <- Codec.R.int r;
  t.stores <- Codec.R.int r;
  t.rejected_bandwidth <- Codec.R.int r;
  t.rejected_order <- Codec.R.int r;
  t.cache_hits <- Codec.R.int r;
  t.cache_misses <- Codec.R.int r
