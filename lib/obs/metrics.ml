(* Metrics registry: named counters and log2-bucketed cycle histograms.

   Everything is integer arithmetic over simulated cycles, so a metric's
   final state is a pure function of the simulated machine — no host
   clocks, no floats on the observation path. Observation is O(1) and
   allocation-free; hot call sites hold the [hist]/[counter] record
   directly rather than looking it up by name. *)

let hist_buckets = 32

type hist = {
  h_name : string;
  buckets : int array;  (* buckets.(b) counts values v with bits(v) = b *)
  mutable count : int;
  mutable sum : int;
  mutable max_value : int;
}

type counter = { c_name : string; mutable value : int }

type t = {
  mutable hists : hist list;  (* newest first; [all_hists] reverses *)
  mutable counters : counter list;
}

let create () = { hists = []; counters = [] }

let hist t name =
  let h =
    {
      h_name = name;
      buckets = Array.make hist_buckets 0;
      count = 0;
      sum = 0;
      max_value = 0;
    }
  in
  t.hists <- h :: t.hists;
  h

let counter t name =
  let c = { c_name = name; value = 0 } in
  t.counters <- c :: t.counters;
  c

let bump c n = c.value <- c.value + n

(* Bucket index = number of significant bits: 0 -> 0, 1 -> 1, 2..3 -> 2,
   4..7 -> 3, ... so bucket [b > 0] spans [2^(b-1), 2^b - 1]. *)
let bucket_of_value v =
  let v = if v < 0 then 0 else v in
  let b = ref 0 in
  let x = ref v in
  while !x <> 0 do
    incr b;
    x := !x lsr 1
  done;
  if !b > hist_buckets - 1 then hist_buckets - 1 else !b

let observe h v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of_value v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v > h.max_value then h.max_value <- v

(* [n] observations of the same value in one step: the bulk credit for
   a span of identical replayed cycles. *)
let observe_n h v n =
  if n > 0 then begin
    let v = if v < 0 then 0 else v in
    let b = bucket_of_value v in
    h.buckets.(b) <- h.buckets.(b) + n;
    h.count <- h.count + n;
    h.sum <- h.sum + (v * n);
    if v > h.max_value then h.max_value <- v
  end

let hist_name h = h.h_name
let hist_count h = h.count
let hist_sum h = h.sum
let hist_max h = h.max_value
let hist_bucket h b = h.buckets.(b)

let hist_mean h =
  if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count

(* Upper bound of the bucket holding the p-th percentile observation
   (0 < p <= 100): conservative, but monotone and deterministic. *)
let hist_percentile h p =
  if h.count = 0 then 0
  else begin
    let rank = ((h.count * p) + 99) / 100 in
    let seen = ref 0 and result = ref h.max_value and found = ref false in
    for b = 0 to hist_buckets - 1 do
      if not !found then begin
        seen := !seen + h.buckets.(b);
        if !seen >= rank then begin
          found := true;
          result := (if b = 0 then 0 else (1 lsl b) - 1)
        end
      end
    done;
    if !result > h.max_value then h.max_value else !result
  end

let counter_name c = c.c_name
let counter_value c = c.value
let all_hists t = List.rev t.hists
let all_counters t = List.rev t.counters

(* Checkpoint codec: every histogram and counter in registration order.
   Restore targets a registry built by the same component constructors,
   so names are validated as a cheap shape check. *)
module Codec = Hsgc_util.Codec

let encode t w =
  let hists = all_hists t and counters = all_counters t in
  Codec.W.int w (List.length hists);
  List.iter
    (fun h ->
      Codec.W.string w h.h_name;
      Codec.W.int_array w h.buckets;
      Codec.W.int w h.count;
      Codec.W.int w h.sum;
      Codec.W.int w h.max_value)
    hists;
  Codec.W.int w (List.length counters);
  List.iter
    (fun c ->
      Codec.W.string w c.c_name;
      Codec.W.int w c.value)
    counters

let restore t r =
  let hists = all_hists t and counters = all_counters t in
  let nh = Codec.R.int r in
  if nh <> List.length hists then
    raise (Codec.Error "metrics registry: histogram count mismatch");
  List.iter
    (fun h ->
      let name = Codec.R.string r in
      if name <> h.h_name then
        raise
          (Codec.Error
             (Printf.sprintf "metrics registry: histogram %S, expected %S"
                name h.h_name));
      Codec.R.int_array_into r h.buckets ~what:"histogram buckets";
      h.count <- Codec.R.int r;
      h.sum <- Codec.R.int r;
      h.max_value <- Codec.R.int r)
    hists;
  let nc = Codec.R.int r in
  if nc <> List.length counters then
    raise (Codec.Error "metrics registry: counter count mismatch");
  List.iter
    (fun c ->
      let name = Codec.R.string r in
      if name <> c.c_name then
        raise
          (Codec.Error
             (Printf.sprintf "metrics registry: counter %S, expected %S" name
                c.c_name));
      c.value <- Codec.R.int r)
    counters
