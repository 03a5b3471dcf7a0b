(* Tests for the on-chip header FIFO. *)

module Fifo = Hsgc_memsim.Header_fifo

let test_push_pop_order () =
  let f = Fifo.create ~capacity:4 () in
  Alcotest.(check bool) "push a" true (Fifo.push f 100);
  Alcotest.(check bool) "push b" true (Fifo.push f 200);
  Alcotest.(check bool) "pop a" true (Fifo.try_pop f 100);
  Alcotest.(check bool) "pop b" true (Fifo.try_pop f 200);
  Alcotest.(check int) "empty" 0 (Fifo.length f)

let test_pop_mismatch () =
  let f = Fifo.create ~capacity:4 () in
  ignore (Fifo.push f 100);
  Alcotest.(check bool) "wrong address misses" false (Fifo.try_pop f 999);
  Alcotest.(check int) "entry kept" 1 (Fifo.length f);
  Alcotest.(check int) "miss counted" 1 (Fifo.misses f)

let test_pop_empty () =
  let f = Fifo.create ~capacity:4 () in
  Alcotest.(check bool) "empty misses" false (Fifo.try_pop f 1)

let test_overflow () =
  let f = Fifo.create ~capacity:2 () in
  Alcotest.(check bool) "1" true (Fifo.push f 1);
  Alcotest.(check bool) "2" true (Fifo.push f 2);
  Alcotest.(check bool) "3 rejected" false (Fifo.push f 3);
  Alcotest.(check int) "overflow counted" 1 (Fifo.overflows f);
  (* Dropped entry is skipped: reads arrive in write order 1,2,3. *)
  Alcotest.(check bool) "pop 1" true (Fifo.try_pop f 1);
  Alcotest.(check bool) "pop 2" true (Fifo.try_pop f 2);
  Alcotest.(check bool) "3 was dropped" false (Fifo.try_pop f 3)

let test_wraparound () =
  let f = Fifo.create ~capacity:3 () in
  for round = 0 to 9 do
    Alcotest.(check bool) "push" true (Fifo.push f round);
    Alcotest.(check bool) "pop" true (Fifo.try_pop f round)
  done;
  Alcotest.(check int) "hits" 10 (Fifo.hits f)

let test_clear () =
  let f = Fifo.create ~capacity:4 () in
  ignore (Fifo.push f 5);
  ignore (Fifo.push f 6);
  Fifo.clear f;
  Alcotest.(check int) "emptied" 0 (Fifo.length f);
  Alcotest.(check bool) "stale entry gone" false (Fifo.try_pop f 5)

let test_capacity () =
  let f = Fifo.create ~capacity:7 () in
  Alcotest.(check int) "capacity" 7 (Fifo.capacity f);
  Alcotest.check_raises "zero capacity" (Invalid_argument "Header_fifo.create")
    (fun () -> ignore (Fifo.create ~capacity:0 ()))

(* Property: with reads in write order, a pop hits iff the push was
   accepted; dropped pushes are skipped without disturbing later pops. *)
let qcheck_write_order_reads =
  QCheck.Test.make ~name:"fifo pops follow push order with drops skipped"
    ~count:300
    QCheck.(pair (int_range 1 8) (small_list small_nat))
    (fun (cap, addrs) ->
      let addrs = List.mapi (fun i a -> a + (i * 1000)) addrs in
      let f = Fifo.create ~capacity:cap () in
      let accepted = List.map (fun a -> (a, Fifo.push f a)) addrs in
      List.for_all (fun (a, was_pushed) -> Fifo.try_pop f a = was_pushed) accepted)

module Codec = Hsgc_util.Codec

let encoded f =
  let m = Codec.W.measure () in
  Fifo.encode f m;
  let b = Bytes.create (Codec.W.pos m) in
  Fifo.encode f (Codec.W.into b ~pos:0);
  Bytes.to_string b

(* A snapshot stores the live entries only, oldest first: a ring whose
   entries wrap past its end restores onto a fresh FIFO that pops them
   in the same order and encodes to the same bytes. *)
let test_codec_wrapped_ring () =
  let f = Fifo.create ~capacity:5 () in
  for a = 1 to 3 do
    ignore (Fifo.push f a);
    ignore (Fifo.try_pop f a)
  done;
  for a = 4 to 7 do
    ignore (Fifo.push f a)
  done;
  let image = encoded f in
  Alcotest.(check int) "length, 4 entries, 4 counters" (8 * 9)
    (String.length image);
  let g = Fifo.create ~capacity:5 () in
  Fifo.restore g (Codec.R.of_substring image ~pos:0 ~len:(String.length image));
  Alcotest.(check string) "re-encodes byte-identically" image (encoded g);
  for a = 4 to 7 do
    Alcotest.(check bool) (Printf.sprintf "pops %d" a) true (Fifo.try_pop g a)
  done;
  Alcotest.(check bool) "room for the whole capacity" true
    (List.for_all (Fifo.push g) [ 8; 9; 10; 11; 12 ]);
  Alcotest.(check bool) "then full" false (Fifo.push g 13)

let suite =
  [
    Alcotest.test_case "push/pop order" `Quick test_push_pop_order;
    Alcotest.test_case "pop mismatch" `Quick test_pop_mismatch;
    Alcotest.test_case "pop empty" `Quick test_pop_empty;
    Alcotest.test_case "overflow" `Quick test_overflow;
    Alcotest.test_case "ring wraparound" `Quick test_wraparound;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "capacity" `Quick test_capacity;
    QCheck_alcotest.to_alcotest qcheck_write_order_reads;
    Alcotest.test_case "snapshot of a wrapped ring" `Quick
      test_codec_wrapped_ring;
  ]
