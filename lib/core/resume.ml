(* Deterministic checkpoint/restore driver.

   One driver behind both the CLI's crash-safe runs and the chaos
   campaign's interrupt legs: it steps a machine with every step
   horizon-capped at the next checkpoint boundary, writes a snapshot
   exactly at each boundary, and can reconstruct the machine from any
   such snapshot.

   The invariants this module is built on (argued in
   docs/ROBUSTNESS.md):

   - a checkpoint is taken only between [step]s, i.e. at a cycle
     boundary, where the machine's mutable state is closed
     under the Snapshot codec;
   - the horizon cap can only split the kernel's fast-forwards, so the
     executed/skipped split is the sole statistic that checkpointing
     perturbs — total cycles, every counter, verify results and trace
     digests are invariant (the interrupt campaign gates on exactly
     these);
   - a resumed run rebuilds the workload heap from (name, scale, seed),
     so the pre-collection verification snapshot of the uninterrupted
     run is reproducible after a crash. *)

module Workloads = Hsgc_objgraph.Workloads
module Coprocessor = Hsgc_coproc.Coprocessor
module Verify = Hsgc_heap.Verify
module Tracer = Hsgc_obs.Tracer
module Profiler = Hsgc_obs.Profiler
module Checkpoint = Hsgc_checkpoint.Checkpoint
module Codec = Hsgc_util.Codec

(* --- binary fingerprint ------------------------------------------- *)

(* The journal/checkpoint compatibility key: a digest of the running
   executable. Two builds that disagree anywhere cannot exchange
   snapshots or resume each other's artifact journals — versioned
   state formats age badly; refusing is the robust default. *)
let fingerprint =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some f -> f
    | None ->
      let f =
        match Digest.file Sys.executable_name with
        | d -> Digest.to_hex d
        | exception _ ->
          (* No readable executable (e.g. utop): fall back to a stable
             tag so library users can still round-trip in-process. *)
          "no-executable"
      in
      memo := Some f;
      f

(* --- run metadata ------------------------------------------------- *)

type meta = {
  workload : string;
  scale : float;
  seed : int;
  partitions : int;
      (* Written as 1 by every run and ignored on resume; kept because the
         meta codec puts it on disk and bench/e2e/pipelines.ml builds a
         meta with [partitions = 1]. *)
  obs_on : bool;
  obs_capacity : int;
  obs_interval : int;
  prof_on : bool;
}

(* A delta's link to its parent: the parent's file name (in the same
   directory) and its Checkpoint.digest. It sits after the run metadata
   in the CRC-covered "meta" section; a full image has none. *)
type link = { parent_file : string; parent_digest : int }

let encode_meta m link w =
  Codec.W.string w m.workload;
  Codec.W.float w m.scale;
  Codec.W.int w m.seed;
  Codec.W.int w m.partitions;
  Codec.W.bool w m.obs_on;
  Codec.W.int w m.obs_capacity;
  Codec.W.int w m.obs_interval;
  Codec.W.bool w m.prof_on;
  match link with
  | None -> Codec.W.bool w false
  | Some l ->
    Codec.W.bool w true;
    Codec.W.string w l.parent_file;
    Codec.W.int w l.parent_digest

let decode_meta r =
  try
    let workload = Codec.R.string r in
    let scale = Codec.R.float r in
    let seed = Codec.R.int r in
    let partitions = Codec.R.int r in
    let obs_on = Codec.R.bool r in
    let obs_capacity = Codec.R.int r in
    let obs_interval = Codec.R.int r in
    let prof_on = Codec.R.bool r in
    let link =
      if Codec.R.bool r then
        let parent_file = Codec.R.string r in
        let parent_digest = Codec.R.int r in
        Some { parent_file; parent_digest }
      else None
    in
    if not (Codec.R.eof r) then
      raise (Checkpoint.Corrupt "section \"meta\": trailing bytes");
    ( {
        workload;
        scale;
        seed;
        partitions;
        obs_on;
        obs_capacity;
        obs_interval;
        prof_on;
      },
      link )
  with Codec.Error m ->
    raise (Checkpoint.Corrupt (Printf.sprintf "section \"meta\": %s" m))

(* --- checkpoint chains ---------------------------------------------- *)

(* A machine's chain: its last durable image, which its next save may be
   a delta of, and the bytes of the deltas written since the chain's
   full image. It rides on the machine (Coprocessor.chain), never in a
   global, and advances only after Checkpoint.write returns, so a delta
   always names a parent that is on disk. *)
type chain = {
  last_path : string;
  last_digest : int;
  base : Coprocessor.Snapshot.parent;
  delta_bytes : int;
}

type Coprocessor.chain += Chain of chain

(* The chain rule: a save is a delta of the machine's last durable image
   unless it is the machine's first, goes to another directory, goes
   onto that image's own path (the rename would replace the parent),
   finds the heap's layout changed, or would bring the chain's delta
   bytes past a full image of the machine now. The post-mortem snapshot
   is always full and outside the chain ([write_full]). *)
let full_image ~fp sim meta =
  Coprocessor.Snapshot.save sim ~fingerprint:fp
    ~extra:[ ("meta", encode_meta meta None) ]

let save ?fingerprint:fp sim meta ~path =
  let fp = match fp with Some f -> f | None -> fingerprint () in
  let full () = full_image ~fp sim meta in
  let chain =
    match Coprocessor.chain sim with Chain c -> Some c | _ -> None
  in
  let image, delta_bytes =
    match chain with
    | Some c
      when Filename.dirname c.last_path = Filename.dirname path
           && c.last_path <> path
           && Coprocessor.Snapshot.extends c.base sim ->
      let link =
        {
          parent_file = Filename.basename c.last_path;
          parent_digest = c.last_digest;
        }
      in
      let delta =
        Coprocessor.Snapshot.save ~parent:c.base sim ~fingerprint:fp
          ~extra:[ ("meta", encode_meta meta (Some link)) ]
      in
      let bytes =
        c.delta_bytes + String.length (Checkpoint.to_string delta)
      in
      if
        Coprocessor.Snapshot.exceeds_full ~parent:c.base sim ~fingerprint:fp
          ~extra:[ ("meta", encode_meta meta None) ]
          bytes
      then (full (), 0)
      else (delta, bytes)
    | _ -> (full (), 0)
  in
  Checkpoint.write image ~path;
  let base =
    Coprocessor.Snapshot.parent ?last:(Option.map (fun c -> c.base) chain) sim
  in
  Coprocessor.set_chain sim
    (Chain
       {
         last_path = path;
         last_digest = Checkpoint.image_digest image;
         base;
         delta_bytes;
       })

(* A full image that leaves the machine's chain as it was. *)
let write_full sim meta ~path =
  Checkpoint.write ~path (full_image ~fp:(fingerprint ()) sim meta)

let checkpoint_name cycle = Printf.sprintf "ckpt-%012d.ckpt" cycle

let checkpoint_path ~dir ~cycle = Filename.concat dir (checkpoint_name cycle)

let latest ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | entries ->
    (* The zero-padded cycle number makes lexicographic order the cycle
       order; the post-mortem snapshot is never auto-resumed. *)
    Array.sort compare entries;
    let best = ref None in
    Array.iter
      (fun e ->
        if
          String.length e > 5
          && String.sub e 0 5 = "ckpt-"
          && Filename.check_suffix e ".ckpt"
        then best := Some (Filename.concat dir e))
      entries;
    !best

type resumed = {
  sim : Coprocessor.sim;
  meta : meta;
  cfg : Coprocessor.config;
  heap : Hsgc_heap.Heap.t;
  pre : Verify.snapshot;
  obs : Tracer.t option;
  prof : Profiler.t option;
}

(* Refusals while loading a chain name the file they concern. *)
let in_file path f =
  try f ()
  with Checkpoint.Corrupt msg ->
    raise (Checkpoint.Corrupt (Printf.sprintf "%s: %s" path msg))

(* Load [path] and, through the parent links, every file it depends on;
   the result runs from the chain's full image to [path]. Each file's
   own CRCs are checked before its parent is looked up, and each parent
   must carry the digest its child recorded, so a chain never mixes runs
   or files rewritten since. *)
let load_chain ~fp path =
  let load path =
    in_file path (fun () ->
        let snap = Checkpoint.load path in
        let sfp = Checkpoint.fingerprint snap in
        if sfp <> fp then
          raise
            (Checkpoint.Corrupt
               (Printf.sprintf
                  "snapshot was written by a different build (fingerprint %s, \
                   this binary is %s)"
                  sfp fp));
        let meta, link = decode_meta (Checkpoint.reader snap "meta") in
        (snap, meta, link))
  in
  let corrupt path fmt =
    Printf.ksprintf
      (fun m -> raise (Checkpoint.Corrupt (Printf.sprintf "%s: %s" path m)))
      fmt
  in
  (* [expect]: the child that named this file and the digest it
     recorded. *)
  let rec walk path expect seen later =
    let snap, meta, link = load path in
    (match expect with
    | Some (child, digest) when Checkpoint.digest snap <> digest ->
      corrupt child
        "parent %s is not the snapshot this one was written against \
         (digest %08x, recorded %08x)"
        path (Checkpoint.digest snap) digest
    | _ -> ());
    let later = (path, snap, meta) :: later in
    match link with
    | None -> later
    | Some l ->
      let parent = Filename.concat (Filename.dirname path) l.parent_file in
      if List.mem parent seen then
        corrupt path "parent %s closes a loop in the chain" parent;
      if not (Sys.file_exists parent) then
        corrupt path "parent %s is missing" parent;
      walk parent (Some (path, l.parent_digest)) (parent :: seen) later
  in
  walk path None [ path ] []

let resume ?fingerprint:fp ~path () =
  let fp = match fp with Some f -> f | None -> fingerprint () in
  let chain = load_chain ~fp path in
  let _, snap, meta = List.nth chain (List.length chain - 1) in
  let cfg = in_file path (fun () -> Coprocessor.Snapshot.config snap) in
  let w =
    match Workloads.find meta.workload with
    | Some w -> w
    | None ->
      raise
        (Checkpoint.Corrupt
           (Printf.sprintf "%s: snapshot is for unknown workload %S" path
              meta.workload))
  in
  (* Same (workload, scale, seed) => bit-identical pre-collection heap,
     so the verification baseline survives the crash. The restore then
     overwrites the heap's contents with the mid-collection image. *)
  let heap = Workloads.build_heap ~scale:meta.scale ~seed:meta.seed w in
  let pre = Verify.snapshot heap in
  let obs =
    if meta.obs_on then begin
      let o =
        Tracer.create ~capacity:meta.obs_capacity ~interval:meta.obs_interval
          ~n_cores:cfg.Coprocessor.n_cores ()
      in
      Tracer.enable o;
      Some o
    end
    else None
  in
  let prof =
    if meta.prof_on then begin
      let p = Profiler.create ~n_cores:cfg.Coprocessor.n_cores () in
      Profiler.enable p;
      Some p
    end
    else None
  in
  let sim = Coprocessor.start ?obs ?prof cfg heap in
  (* The full image, then each delta on top of its parent. *)
  List.iter
    (fun (p, snap, _) ->
      in_file p (fun () -> Coprocessor.Snapshot.restore sim snap))
    chain;
  { sim; meta; cfg; heap; pre; obs; prof }

(* --- the checkpointing driver ------------------------------------- *)

(* [Finished]'s [unit] is a placeholder: bench/e2e/pipelines.ml matches
   [Finished (s, _)]. *)
type outcome =
  | Finished of Coprocessor.gc_stats * unit
  | Stopped of { at_cycle : int; checkpoint : string option }

let postmortem_name = "postmortem.ckpt"

(* Step the machine to completion, horizon-capping every step at the
   next checkpoint boundary (a multiple of [every]) and at [stop_at].
   The cap can only split fast-forwards — with checkpointing off both
   caps are [max_int] and the loop is byte-for-byte the plain run. *)
let drive ?every ?dir ?stop_at ?(should_stop = fun () -> false)
    ?partitions:_ ~meta sim =
  (match every with
  | Some e when e <= 0 -> invalid_arg "Resume.drive: every must be > 0"
  | _ -> ());
  if every <> None && dir = None then
    invalid_arg "Resume.drive: checkpointing needs a directory";
  let save_to name =
    match dir with
    | None -> None
    | Some d ->
      let path = Filename.concat d name in
      save sim meta ~path;
      Some path
  in
  let next_due now =
    match every with None -> max_int | Some e -> ((now / e) + 1) * e
  in
  let stop_bound = match stop_at with None -> max_int | Some s -> s in
  (* The cap moves only when a checkpoint moves [due], so a finite one is
     boxed once per checkpoint interval rather than at every step. *)
  let horizon_for due =
    let h = if due <= stop_bound then due else stop_bound in
    if h = max_int then None else Some h
  in
  let rec go due horizon =
    if Coprocessor.halted sim then Finished (Coprocessor.finalize sim, ())
    else if should_stop () || Coprocessor.now sim >= stop_bound then begin
      let cycle = Coprocessor.now sim in
      let checkpoint =
        if every = None then None else save_to (checkpoint_name cycle)
      in
      Stopped { at_cycle = cycle; checkpoint }
    end
    else begin
      Coprocessor.step ?horizon sim;
      if Coprocessor.now sim >= due then begin
        ignore (save_to (checkpoint_name (Coprocessor.now sim)));
        let due = next_due (Coprocessor.now sim) in
        go due (horizon_for due)
      end
      else go due horizon
    end
  in
  let due = next_due (Coprocessor.now sim) in
  try go due (horizon_for due)
  with Coprocessor.Stall_diagnosis _ as e ->
    (* The watchdog tripped at a cycle boundary: preserve the machine
       for offline inspection next to the structured diagnosis. *)
    (match dir with
    | Some d -> (
      try write_full sim meta ~path:(Filename.concat d postmortem_name)
      with _ -> ())
    | None -> ());
    raise e
