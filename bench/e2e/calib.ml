(* Host-independent timing for the untraced repeats.

   The host is shared, and two kinds of interference move wall times by
   up to 2x in phases that can outlast a whole run, so no statistic over
   one run's repeats removes them:
   - time-sharing: other work runs on our vCPU, or the hypervisor runs
     another guest on it. Process CPU time excludes both (the kernel
     subtracts steal time from task run time), so repeats are timed in
     CPU seconds, all threads included.
   - slower execution: a busy hyperthread sibling or other tenants'
     cache traffic makes each instruction slower, which CPU time shows.
     To take this out, a fixed kernel that is part of the benchmark (and
     so never changes with the code under test) runs about every
     [interval_ns] of the repeat, at call boundaries and inside step
     loops, timed in CPU time too. The repeat's CPU times are then
     rescaled by [reference_ns] over the kernel's mean CPU time in that
     repeat: they become the times the repeat would have taken on a host
     on which the kernel takes [reference_ns].
   The samples' own time is taken out of every time measured. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* User plus system time of the process, all threads, in ns (getrusage:
   microsecond resolution). *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

let interval_ns = 20_000_000

(* Mean kernel CPU time on an idle 2-vCPU Xeon host (the reference). *)
let reference_ns = 236_000.0

(* The kernel: two fixed pseudo-random walks with reads, writes and
   data-dependent branches, the mix of the simulator's own loops, over a
   16 KiB table (L1) and a 1 MiB one (L2). The walk never depends on
   what was written, so every call does the same work. *)
let table bits =
  let s = ref 0x2545F491 in
  Array.init (1 lsl bits) (fun _ ->
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      !s lsr 5)

let small = table 11
let large = table 17
let scratch = Array.make 1024 0
let sink = ref 0

let walk table iterations =
  let mask = Array.length table - 1 in
  let j = ref 0 and acc = ref 0 in
  for i = 1 to iterations do
    let v = Array.unsafe_get table !j in
    if v land 3 = 0 then acc := !acc + i else acc := !acc lxor v;
    Array.unsafe_set scratch (i land 1023) !acc;
    j := (v + i) land mask
  done;
  sink := !sink + !acc

(* Untimed: the pipeline evicts the large table between samples, and a
   timed walk over a cold table measures how busy the shared last-level
   cache is, which moves it far more than it moves the pipeline. *)
let warm () =
  let s = ref 0 in
  for i = 0 to Array.length large - 1 do
    s := !s + Array.unsafe_get large i
  done;
  sink := !sink + !s

let kernel () =
  walk small 60_000;
  walk large 4_500

let on = ref false
let due = ref 0

(* Since [start]: wall and CPU time of whole samples (excluded from the
   times measured), CPU time of the timed kernels, and their number. *)
let spent_wall_ns = ref 0
let spent_cpu_ns = ref 0
let kernel_ns = ref 0
let samples = ref 0

let start () =
  spent_wall_ns := 0;
  spent_cpu_ns := 0;
  kernel_ns := 0;
  samples := 0;
  due := now_ns () + interval_ns;
  on := true

let stop () = on := false

(* Take a sample if [interval_ns] has passed since the last one. Cheap
   enough to call between any two library calls. *)
let poll () =
  if !on then begin
    let t0 = now_ns () in
    if t0 >= !due then begin
      let c0 = cpu_ns () in
      warm ();
      let k0 = cpu_ns () in
      kernel ();
      let c1 = cpu_ns () in
      let t1 = now_ns () in
      spent_wall_ns := !spent_wall_ns + (t1 - t0);
      spent_cpu_ns := !spent_cpu_ns + (c1 - c0);
      kernel_ns := !kernel_ns + (c1 - k0);
      incr samples;
      due := t1 + interval_ns
    end
  end

(* [poll] every 1024th call: for loops over single simulation steps,
   where a clock read per call would cost a sizeable share of a step. *)
let ticks = ref 0

let tick () =
  incr ticks;
  if !ticks land 1023 = 0 then poll ()

(* [f ()] with the wall and the CPU nanoseconds it took, samples taken
   meanwhile excluded. *)
let timed f =
  let t0 = now_ns () and c0 = cpu_ns () in
  let w0 = !spent_wall_ns and s0 = !spent_cpu_ns in
  let r = f () in
  let wall = now_ns () - t0 - (!spent_wall_ns - w0) in
  let cpu = cpu_ns () - c0 - (!spent_cpu_ns - s0) in
  (r, wall, cpu)

(* Reference kernel time over the mean kernel CPU time since [start]:
   the factor that rescales a CPU time measured meanwhile to the
   reference host. *)
let factor () =
  if !samples = 0 || !kernel_ns = 0 then 1.0
  else reference_ns *. float_of_int !samples /. float_of_int !kernel_ns
