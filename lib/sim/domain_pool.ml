(* Shared parallel runtime: one persistent domain pool implementation
   behind every parallel surface of the simulator — experiment sweeps,
   chaos campaigns, and the banked machine's superstep lanes.

   A [Pool.t] owns [lanes - 1] worker domains parked on a per-lane
   mutex/condvar cell; lane 0 is always the calling domain. [run] hands
   work to every lane at once and blocks until all of it completes, and
   the mutex hand-off provides the happens-before edges in both
   directions (everything the caller wrote before [run] is visible to
   the workers, everything a worker wrote is visible to the caller after
   it returns). Exceptions raised by a lane are captured and re-raised
   on the caller — the lowest-numbered failing lane wins,
   deterministically. *)

module Pool = struct
  (* One cell per worker lane. [job]/[done_]/[failed] are only touched
     under [mutex]; the single condvar serves both directions because a
     worker waits only while [job = None] and the caller waits only
     while a job is outstanding — the two never wait at once. *)
  type cell = {
    mutex : Mutex.t;
    cond : Condition.t;
    mutable job : (unit -> unit) option;
    mutable done_ : bool;  (* job finished, result not yet reaped *)
    mutable failed : exn option;
    mutable stop : bool;
  }

  type t = {
    lanes : int;
    cells : cell array;  (* length [lanes - 1]; lane l lives in cell l-1 *)
    workers : unit Domain.t array;
    mutable closed : bool;
  }

  let lanes t = t.lanes

  let worker_loop cell =
    let rec loop () =
      Mutex.lock cell.mutex;
      while cell.job = None && not cell.stop do
        Condition.wait cell.cond cell.mutex
      done;
      match cell.job with
      | None ->
        (* stop requested with no pending job *)
        Mutex.unlock cell.mutex
      | Some f ->
        cell.job <- None;
        Mutex.unlock cell.mutex;
        let failed = match f () with () -> None | exception e -> Some e in
        Mutex.lock cell.mutex;
        cell.failed <- failed;
        cell.done_ <- true;
        Condition.broadcast cell.cond;
        Mutex.unlock cell.mutex;
        loop ()
    in
    loop ()

  let create ~lanes =
    if lanes < 1 then invalid_arg "Domain_pool.Pool.create: lanes must be >= 1";
    let cells =
      Array.init (lanes - 1) (fun _ ->
          {
            mutex = Mutex.create ();
            cond = Condition.create ();
            job = None;
            done_ = false;
            failed = None;
            stop = false;
          })
    in
    let workers = Array.map (fun c -> Domain.spawn (fun () -> worker_loop c)) cells in
    { lanes; cells; workers; closed = false }

  (* Hand a job to a worker cell without blocking. [wait] left the
     cell's result fields cleared. *)
  let post c f =
    Mutex.lock c.mutex;
    c.job <- Some f;
    Condition.broadcast c.cond;
    Mutex.unlock c.mutex

  (* Block until the cell's job finishes; its exception, if any. *)
  let wait c =
    Mutex.lock c.mutex;
    while not c.done_ do
      Condition.wait c.cond c.mutex
    done;
    let failed = c.failed in
    c.done_ <- false;
    c.failed <- None;
    Mutex.unlock c.mutex;
    failed

  let run t f =
    if t.closed then invalid_arg "Domain_pool.Pool.run: pool is shut down";
    Array.iteri (fun i c -> post c (fun () -> f (i + 1))) t.cells;
    let leader_failed = match f 0 with () -> None | exception e -> Some e in
    (* Reap every lane before raising anything, so no worker is left
       running against state the caller is about to unwind. Lowest
       failing lane wins, leader (lane 0) first — deterministic
       regardless of wall-clock completion order. *)
    let first_failure =
      Array.fold_left
        (fun first c ->
          let failed = wait c in
          match first with None -> failed | Some _ -> first)
        leader_failed t.cells
    in
    Option.iter raise first_failure

  let shutdown t =
    if not t.closed then begin
      t.closed <- true;
      Array.iter
        (fun c ->
          Mutex.lock c.mutex;
          c.stop <- true;
          Condition.broadcast c.cond;
          Mutex.unlock c.mutex)
        t.cells;
      Array.iter Domain.join t.workers
    end

  let with_pool ~lanes f =
    let t = create ~lanes in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

let recommended_jobs () = Domain.recommended_domain_count ()

let resolve_jobs ~limit jobs =
  let limit = max 1 limit in
  let j = if jobs <= 0 then recommended_jobs () else jobs in
  max 1 (min j limit)

type error_policy = Fail | Skip | Retry of int

type 'b outcome = Done of 'b | Failed of { attempts : int; error : exn }

let map_list ~jobs f xs =
  let n = List.length xs in
  let jobs = min jobs n in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Every lane (the calling domain included) drains the shared index
       counter; per-point failures are confined to their slot so the
       lane closure itself never raises. *)
    let lane_body _lane =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             Some (match f input.(i) with v -> Ok v | exception e -> Error e));
          go ()
        end
      in
      go ()
    in
    Pool.with_pool ~lanes:jobs (fun pool -> Pool.run pool lane_body);
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end

(* One sweep point under the error policy. Exceptions never escape: the
   retry loop hands [f] a fresh attempt index each time so the point can
   reseed deterministically, and exhaustion becomes a [Failed] outcome
   the caller can report without losing the rest of the sweep. *)
let run_point ~on_error f x =
  let max_attempts =
    match on_error with Retry n -> 1 + max 0 n | Fail | Skip -> 1
  in
  let rec go attempt =
    match f ~attempt x with
    | v -> Done v
    | exception e ->
      if attempt + 1 < max_attempts then go (attempt + 1)
      else Failed { attempts = attempt + 1; error = e }
  in
  go 0

let map_list_policy ~on_error ~jobs f xs =
  (* [run_point] never raises, so the plain pool machinery applies. *)
  let outcomes = map_list ~jobs (run_point ~on_error f) xs in
  (match on_error with
  | Fail ->
    (* Same contract as [map_list]: the earliest failed *input* wins,
       deterministically, after every domain has joined. *)
    List.iter
      (function Failed { error; _ } -> raise error | Done _ -> ())
      outcomes
  | Skip | Retry _ -> ());
  outcomes

let partition_outcomes outs =
  let rec go done_ failed i = function
    | [] -> (List.rev done_, List.rev failed)
    | Done v :: rest -> go ((i, v) :: done_) failed (i + 1) rest
    | Failed { attempts; error } :: rest ->
      go done_ ((i, attempts, error) :: failed) (i + 1) rest
  in
  go [] [] 0 outs
