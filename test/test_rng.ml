(* Tests for the deterministic SplitMix64 generator. *)

module Rng = Hsgc_util.Rng

let test_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  let xa = Rng.int64 a in
  let xb = Rng.int64 b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  (* The two share no state: drawing from one leaves the other put. *)
  let sb = Rng.state b in
  ignore (Rng.int64 a);
  Alcotest.(check int64) "copy unmoved by the original" sb (Rng.state b);
  let sa = Rng.state a in
  ignore (Rng.int64 b);
  Alcotest.(check int64) "original unmoved by the copy" sa (Rng.state a)

let test_split_diverges () =
  let a = Rng.create 99 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check int) "split streams do not collide" 0 !same;
  let sa = Rng.state a in
  ignore (Rng.int64 b);
  Alcotest.(check int64) "parent unmoved by the child" sa (Rng.state a)

(* A draw that returns an int or a bool allocates nothing: the state is
   read, advanced and mixed unboxed. Graph generation draws per object
   and an enabled fault injector per hook, so a boxed int64 per draw
   would show in both. *)
let test_draws_allocation_free () =
  let r = Rng.create 7 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000_000 do
    acc := !acc + Rng.int r 1000
  done;
  let w1 = Gc.minor_words () in
  for _ = 1 to 1_000_000 do
    if Rng.bool r then incr acc
  done;
  let w2 = Gc.minor_words () in
  (* The budget covers the boxed floats [Gc.minor_words] returns. *)
  if w1 -. w0 > 16.0 then
    Alcotest.failf "Rng.int allocated %.0f minor words over 1M draws" (w1 -. w0);
  if w2 -. w1 > 16.0 then
    Alcotest.failf "Rng.bool allocated %.0f minor words over 1M draws"
      (w2 -. w1);
  Alcotest.(check bool) "draws were consumed" true (!acc > 0)

let test_int_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.failf "out of range: %d" x
  done

let test_int_covers () =
  let r = Rng.create 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int r 8) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 10_000 do
    let x = Rng.float r 3.5 in
    if x < 0.0 || x >= 3.5 then Alcotest.failf "out of range: %f" x
  done

let test_bool_balanced () =
  let r = Rng.create 13 in
  let trues = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bool r then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "fair coin (%.3f)" frac)
    true
    (frac > 0.45 && frac < 0.55)

let test_choose () =
  let r = Rng.create 17 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let x = Rng.choose r arr in
    Alcotest.(check bool) "member" true (Array.mem x arr)
  done

let test_shuffle_permutation () =
  let r = Rng.create 19 in
  let arr = Array.init 50 Fun.id in
  let orig = Array.copy arr in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" orig sorted

let test_shuffle_moves () =
  let r = Rng.create 23 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  Alcotest.(check bool) "not identity" true (arr <> Array.init 50 Fun.id)

let test_geometric () =
  let r = Rng.create 29 in
  let sum = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let x = Rng.geometric r ~p:0.5 in
    if x < 0 then Alcotest.fail "negative geometric draw";
    sum := !sum + x
  done;
  (* mean (1-p)/p = 1.0 *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean near 1.0 (%.3f)" mean)
    true
    (mean > 0.9 && mean < 1.1)

let test_geometric_p1 () =
  let r = Rng.create 31 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 always 0" 0 (Rng.geometric r ~p:1.0)
  done

let test_zipf_range () =
  let r = Rng.create 37 in
  for _ = 1 to 5_000 do
    let x = Rng.zipf r ~n:10 ~s:1.2 in
    if x < 0 || x >= 10 then Alcotest.failf "zipf out of range: %d" x
  done

let test_zipf_skew () =
  let r = Rng.create 41 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let x = Rng.zipf r ~n:10 ~s:1.5 in
    counts.(x) <- counts.(x) + 1
  done;
  Alcotest.(check bool) "rank 0 most frequent" true (counts.(0) > counts.(1));
  Alcotest.(check bool) "rank 1 beats rank 5" true (counts.(1) > counts.(5));
  Alcotest.(check bool)
    "rank 0 dominates (>30%)" true
    (counts.(0) > 6_000)

let test_zipf_single () =
  let r = Rng.create 43 in
  Alcotest.(check int) "n=1 always 0" 0 (Rng.zipf r ~n:1 ~s:1.0)

(* [Rng.zipf] as it was before the weights were tabulated: every draw
   re-sums the harmonic number and re-scans the cumulative weights from
   rank 1. Kept as the bit-identity reference. The one liberty taken is
   reading each weight 1/k^s, a pure function of (k, s), from [w]
   instead of recomputing it; the sums are formed draw by draw, in the
   same order, exactly as before. *)
let zipf_per_draw w t =
  let n = Array.length w in
  if n = 1 then 0
  else begin
    let h = ref 0.0 in
    for k = 1 to n do
      h := !h +. w.(k - 1)
    done;
    let u = Rng.float t !h in
    let rec find k acc =
      if k > n then n - 1
      else
        let acc = acc +. w.(k - 1) in
        if u < acc then k - 1 else find (k + 1) acc
    in
    find 1 0.0
  end

(* 10 000 draws per (n, s, seed) from the tabulated sampler, and the
   first 1 000 also through [Rng.zipf] itself (it rebuilds the table per
   draw): same ranks and same generator state as the reference. *)
let test_zipf_bit_identical () =
  List.iter
    (fun n ->
      List.iter
        (fun s ->
          let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
          let table = Rng.zipf_table ~n ~s in
          List.iter
            (fun seed ->
              let what = Printf.sprintf "n=%d s=%g seed=%d" n s seed in
              let tabulated = Rng.create seed
              and wrapped = Rng.create seed
              and reference = Rng.create seed in
              for i = 1 to 10_000 do
                let want = zipf_per_draw w reference in
                let got = Rng.zipf_draw tabulated table in
                if got <> want then
                  Alcotest.failf "%s draw %d: %d, reference %d" what i got want;
                if i <= 1_000 then begin
                  let got = Rng.zipf wrapped ~n ~s in
                  if got <> want then
                    Alcotest.failf "%s draw %d: Rng.zipf %d, reference %d" what i
                      got want;
                  if i = 1_000 then
                    Alcotest.(check int64)
                      (what ^ ": Rng.zipf state")
                      (Rng.state reference) (Rng.state wrapped)
                end
              done;
              Alcotest.(check int64) (what ^ ": state after the draws")
                (Rng.state reference) (Rng.state tabulated))
            [ 1; 42; 977 ])
        [ 0.8; 1.0; 1.6 ])
    [ 1; 2; 8; 256; 1000 ]

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"rng int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let x = Rng.int r bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let qcheck_deterministic =
  QCheck.Test.make ~name:"rng deterministic in seed" ~count:200 QCheck.small_int
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      List.for_all
        (fun _ -> Rng.int64 a = Rng.int64 b)
        [ (); (); (); (); () ])

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers residues" `Quick test_int_covers;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "bool balanced" `Quick test_bool_balanced;
    Alcotest.test_case "int and bool draws allocate nothing" `Quick
      test_draws_allocation_free;
    Alcotest.test_case "choose member" `Quick test_choose;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "shuffle moves elements" `Quick test_shuffle_moves;
    Alcotest.test_case "geometric mean" `Quick test_geometric;
    Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
    Alcotest.test_case "zipf range" `Quick test_zipf_range;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf single" `Quick test_zipf_single;
    Alcotest.test_case "zipf draws bit-identical to the per-draw sum" `Quick
      test_zipf_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
    QCheck_alcotest.to_alcotest qcheck_deterministic;
  ]
