(* Deterministic checkpoint/restore driver.

   One driver behind both the CLI's crash-safe runs and the chaos
   campaign's interrupt legs: it steps a machine — sequentially or
   under the BSP scheduler — with every step horizon-capped at the next
   checkpoint boundary, writes a snapshot exactly at each boundary, and
   can reconstruct the machine from any such snapshot.

   The invariants this module is built on (argued in
   docs/ROBUSTNESS.md):

   - a checkpoint is taken only between [step]s / [superstep]s, i.e. at
     a cycle boundary, where the machine's mutable state is closed
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
module Bsp = Hsgc_coproc.Bsp
module Partition = Hsgc_sim.Partition
module Pool = Hsgc_sim.Domain_pool.Pool
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
  partitions : int;  (* informational: the writer's BSP partition count *)
  obs_on : bool;
  obs_capacity : int;
  obs_interval : int;
  prof_on : bool;
}

let encode_meta m w =
  Codec.W.string w m.workload;
  Codec.W.float w m.scale;
  Codec.W.int w m.seed;
  Codec.W.int w m.partitions;
  Codec.W.bool w m.obs_on;
  Codec.W.int w m.obs_capacity;
  Codec.W.int w m.obs_interval;
  Codec.W.bool w m.prof_on

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
    if not (Codec.R.eof r) then
      raise (Checkpoint.Corrupt "section \"meta\": trailing bytes");
    {
      workload;
      scale;
      seed;
      partitions;
      obs_on;
      obs_capacity;
      obs_interval;
      prof_on;
    }
  with Codec.Error m ->
    raise (Checkpoint.Corrupt (Printf.sprintf "section \"meta\": %s" m))

(* --- snapshot files ----------------------------------------------- *)

let save ?fingerprint:fp sim meta ~path =
  let fp = match fp with Some f -> f | None -> fingerprint () in
  Checkpoint.write ~path
    (Coprocessor.Snapshot.save sim ~fingerprint:fp
       ~extra:[ ("meta", encode_meta meta) ])

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

let resume ?fingerprint:fp ~path () =
  let fp = match fp with Some f -> f | None -> fingerprint () in
  let snap = Checkpoint.load path in
  let sfp = Checkpoint.fingerprint snap in
  if sfp <> fp then
    raise
      (Checkpoint.Corrupt
         (Printf.sprintf
            "snapshot was written by a different build (fingerprint %s, this \
             binary is %s)"
            sfp fp));
  let meta = decode_meta (Checkpoint.reader snap "meta") in
  let cfg = Coprocessor.Snapshot.config snap in
  let w =
    match Workloads.find meta.workload with
    | Some w -> w
    | None ->
      raise
        (Checkpoint.Corrupt
           (Printf.sprintf "snapshot is for unknown workload %S" meta.workload))
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
  Coprocessor.Snapshot.restore sim snap;
  { sim; meta; cfg; heap; pre; obs; prof }

(* --- the checkpointing driver ------------------------------------- *)

type outcome =
  | Finished of Coprocessor.gc_stats * Bsp.stats option
  | Stopped of { at_cycle : int; checkpoint : string option }

let postmortem_name = "postmortem.ckpt"

(* Step the machine to completion, horizon-capping every step at the
   next checkpoint boundary (a multiple of [every]) and at [stop_at].
   The cap can only split fast-forwards — with checkpointing off both
   caps are [max_int] and the loop is byte-for-byte the plain run. *)
let drive ?every ?dir ?stop_at ?(should_stop = fun () -> false) ?span_timeout_s
    ?fail_hook ~partitions ~meta sim =
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
  let loop step_once finish =
    let rec go due =
      if Coprocessor.halted sim then finish ()
      else if should_stop () || Coprocessor.now sim >= stop_bound then begin
        let cycle = Coprocessor.now sim in
        let checkpoint =
          if every = None then None else save_to (checkpoint_name cycle)
        in
        Stopped { at_cycle = cycle; checkpoint }
      end
      else begin
        let h = min due stop_bound in
        (if h = max_int then step_once ?horizon:None ()
         else step_once ?horizon:(Some h) ());
        if Coprocessor.now sim >= due then begin
          ignore (save_to (checkpoint_name (Coprocessor.now sim)));
          go (next_due (Coprocessor.now sim))
        end
        else go due
      end
    in
    try go (next_due (Coprocessor.now sim))
    with Coprocessor.Stall_diagnosis _ as e ->
      (* The watchdog tripped at a cycle boundary: preserve the machine
         for offline inspection next to the structured diagnosis. *)
      ignore (try save_to postmortem_name with _ -> None);
      raise e
  in
  if partitions <= 1 then
    loop
      (fun ?horizon () -> Coprocessor.step ?horizon sim)
      (fun () -> Finished (Coprocessor.finalize sim, None))
  else begin
    let plan =
      Partition.plan ~n_cores:(Coprocessor.n_cores sim) ~n_partitions:partitions
    in
    Pool.with_pool ~lanes:partitions (fun pool ->
        let b = Bsp.of_sim ~pool ?span_timeout_s ?fail_hook ~plan sim in
        loop
          (fun ?horizon () -> Bsp.superstep ?horizon b)
          (fun () ->
            let gc = Bsp.finalize b in
            Finished (gc, Some (Bsp.stats b))))
  end
