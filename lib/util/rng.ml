(* The 64-bit SplitMix64 counter lives in an 8-byte buffer rather than
   a [mutable int64] field: a field store boxes its int64 on every
   draw, while [Bytes.get_int64_ne]/[set_int64_ne] move it unboxed, so
   with [mix64] and [int64] inlined a draw that returns an int or a bool
   allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* Raw state accessors for checkpoint/restore: the generator is pure
   state, so capturing and reinstating the 64-bit word replays the
   stream exactly. *)
let state t = Bytes.get_int64_ne t 0
let set_state t s = Bytes.set_int64_ne t 0 s

(* SplitMix64 finalizer: xor-shift / multiply mix of the advancing
   counter. Constants from the reference implementation. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (int64 t)

let int t bound =
  assert (bound > 0);
  (* Take the low 62 bits to get a non-negative OCaml int, then reduce.
     Modulo bias is negligible for the bounds used here (≤ 2^40). *)
  let raw = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  raw mod bound

(* Inlined so that [zipf_draw] keeps its draw unboxed even in builds
   that inline nothing across modules: a float passed to or returned
   from a call is boxed, four minor words per draw. *)
let[@inline] float t bound =
  (* 53 uniform bits, scaled. *)
  let raw = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int raw /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let geometric t ~p =
  assert (p > 0.0 && p <= 1.0);
  if p >= 1.0 then 0
  else begin
    let u = float t 1.0 in
    (* Inverse CDF: floor (ln u / ln (1-p)); clamp u away from 0. *)
    let u = if u <= 0.0 then min_float else u in
    int_of_float (Float.of_int 0 +. floor (log u /. log (1.0 -. p)))
  end

(* Cumulative Zipf weights: [cum.(k-1)] is the sum of 1/j^s over
   j = 1..k. The sums must be formed left to right with exactly these
   float operations: the rounding they produce decides every generated
   workload graph (pinned by plan digests in the test suite). *)
type zipf = float array

let zipf_table ~n ~s =
  assert (n > 0);
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int k) s);
    cum.(k - 1) <- !acc
  done;
  cum

let zipf_draw t cum =
  let n = Array.length cum in
  if n = 1 then 0
  else begin
    (* Draw u in [0, H_{n,s}) and return the first rank whose cumulative
       weight exceeds it (n - 1 if none does). The weights are positive,
       so [cum] never decreases and "u < cum.(i)" flips from false to
       true at most once: bisection finds the rank a linear scan would. *)
    let u = float t cum.(n - 1) in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if u < cum.(mid) then hi := mid else lo := mid + 1
    done;
    if !lo = n then n - 1 else !lo
  end

let zipf t ~n ~s = zipf_draw t (zipf_table ~n ~s)
