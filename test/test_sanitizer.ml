(* Tests for the machine sanitizer proper: modes, deduplication, strict
   aborts, detach, and the qcheck silence property over real
   collections (1–16 cores, every built-in workload, with and without
   delay-class fault injection). *)

module Diag = Hsgc_sanitizer.Diag
module Hooks = Hsgc_sanitizer.Hooks
module San = Hsgc_sanitizer.Sanitizer
module Coprocessor = Hsgc_coproc.Coprocessor
module Workloads = Hsgc_objgraph.Workloads
module Injector = Hsgc_fault.Injector

let make ?(mode = San.Check) ?(n_cores = 4) () =
  let hooks = Hooks.create () in
  let san = San.create ~mode ~mem_words:128 ~n_cores ~header_words:2 hooks in
  (hooks, san)

let test_modes () =
  Alcotest.(check string) "off" "off" (San.mode_to_string San.Off);
  Alcotest.(check string) "check" "check" (San.mode_to_string San.Check);
  Alcotest.(check string) "strict" "strict" (San.mode_to_string San.Strict);
  List.iter
    (fun (s, expect) ->
      let got = Option.map San.mode_to_string (San.mode_of_string s) in
      Alcotest.(check (option string)) s expect got)
    [
      ("off", Some "off"); ("check", Some "check"); ("on", Some "check");
      ("strict", Some "strict"); ("bogus", None);
    ]

let test_off_mode_inert () =
  let hooks, san = make ~mode:San.Off () in
  Alcotest.(check bool) "hooks stay off" false hooks.Hooks.on;
  (* The nop closures are still installed; firing them finds nothing. *)
  hooks.Hooks.word_written ~core:0 ~base:8 ~addr:8;
  Alcotest.(check bool) "silent" true (San.is_silent san)

let test_off_start_allocates_no_shadow () =
  (* An [Off] sanitizer installs no hooks, so nothing reads its word
     shadows: starting a machine must not pay four bytes per heap word
     for them. Under one byte per heap word leaves room for the
     machine's own fixed-size state, the header FIFO included. *)
  let heap = Hsgc_heap.Heap.create ~semispace_words:500_000 in
  let words = Hsgc_heap.Heap.length heap.Hsgc_heap.Heap.mem in
  let cfg = Coprocessor.config ~n_cores:2 () in
  let b0 = Gc.allocated_bytes () in
  let sim = Coprocessor.start cfg heap in
  let b1 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity sim);
  let per_word = (b1 -. b0) /. float_of_int words in
  if per_word >= 1.0 then
    Alcotest.failf
      "start with the sanitizer off allocates %.2f bytes per heap word \
       (budget: under 1)"
      per_word

let test_dedup_and_total () =
  let hooks, san = make () in
  (* The same unprotected store, reported three times: every repeat
     counts toward the total but only one finding is kept. *)
  for _ = 1 to 3 do
    hooks.Hooks.word_written ~core:0 ~base:8 ~addr:8
  done;
  Alcotest.(check int) "total counts repeats" 3 (San.total san);
  Alcotest.(check int) "kept deduplicated" 1 (List.length (San.findings san));
  (* A different address is a different finding. *)
  hooks.Hooks.word_written ~core:0 ~base:16 ~addr:16;
  Alcotest.(check int) "second site kept" 2 (List.length (San.findings san))

let test_kept_is_capped () =
  let hooks, san = make () in
  for addr = 0 to 99 do
    hooks.Hooks.word_written ~core:0 ~base:addr ~addr
  done;
  Alcotest.(check int) "all counted" 100 (San.total san);
  Alcotest.(check int) "kept capped at 64" 64 (List.length (San.findings san))

let test_strict_raises () =
  let hooks, _ = make ~mode:San.Strict () in
  match hooks.Hooks.word_written ~core:0 ~base:8 ~addr:8 with
  | () -> Alcotest.fail "strict mode did not raise"
  | exception Diag.Violation d ->
    Alcotest.(check string) "check kind"
      (Diag.check_name Diag.Unprotected_header)
      (Diag.check_name d.Diag.check)

let test_detach () =
  let hooks, san = make () in
  Alcotest.(check bool) "attached" true hooks.Hooks.on;
  San.detach san;
  Alcotest.(check bool) "detached" false hooks.Hooks.on

let test_out_of_range_access () =
  let hooks, san = make () in
  hooks.Hooks.word_written ~core:0 ~base:4096 ~addr:4096;
  match San.findings san with
  | [ d ] ->
    Alcotest.(check string) "mem-protocol"
      (Diag.check_name Diag.Mem_protocol)
      (Diag.check_name d.Diag.check)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_too_many_cores_rejected () =
  Alcotest.check_raises "251 cores"
    (Invalid_argument "Sanitizer.create: too many cores") (fun () ->
      ignore
        (San.create ~mode:San.Check ~mem_words:8 ~n_cores:251 ~header_words:2
           (Hooks.create ())))

let test_stats_report_findings () =
  (* End to end through the coprocessor: a clean collection reports an
     empty findings list and a zero total in its gc_stats. *)
  let w = Option.get (Workloads.find "jlisp") in
  let heap = Workloads.build_heap ~scale:0.1 ~seed:3 w in
  let stats =
    Coprocessor.collect
      (Coprocessor.config ~sanitize:San.Check ~n_cores:4 ())
      heap
  in
  Alcotest.(check int) "no findings" 0 (List.length stats.Coprocessor.sanitizer_findings);
  Alcotest.(check int) "zero total" 0 stats.Coprocessor.sanitizer_total

(* The silence property: on every built-in workload, at any core count
   1–16, with or without delay-class fault injection, a collection under
   strict sanitizing completes without a single finding — and verifies.
   Delay faults only move cycles around; if one ever surfaces as a
   protocol violation the sanitizer has a false positive. *)
let silence_property =
  let open QCheck in
  let gen =
    Gen.(
      quad (int_range 1 16)
        (int_range 0 (List.length Workloads.all - 1))
        (oneof [ return None; map (fun i -> Some i) (int_range 0 2) ])
        (int_range 0 1000))
  in
  let arb =
    make
      ~print:(fun (cores, wi, delay, seed) ->
        Printf.sprintf "cores=%d workload=%s delay=%s seed=%d" cores
          (List.nth Workloads.all wi).Workloads.name
          (match delay with
          | None -> "none"
          | Some i -> string_of_float (List.nth [ 0.01; 0.05; 0.1 ] i))
          seed)
      gen
  in
  Test.make ~count:40 ~name:"sanitizer silent on legal executions" arb
    (fun (n_cores, wi, delay, seed) ->
      let w = List.nth Workloads.all wi in
      let faults =
        Option.map
          (fun i ->
            Injector.of_class `Delay ~seed
              ~intensity:(List.nth [ 0.01; 0.05; 0.1 ] i)
              ())
          delay
      in
      let heap = Workloads.build_heap ~scale:0.04 ~seed w in
      let stats =
        Coprocessor.collect
          (Coprocessor.config ?faults ~sanitize:San.Strict ~n_cores ())
          heap
      in
      stats.Coprocessor.sanitizer_total = 0)

let suite =
  [
    Alcotest.test_case "mode strings" `Quick test_modes;
    Alcotest.test_case "off mode inert" `Quick test_off_mode_inert;
    Alcotest.test_case "off mode allocates no shadow state" `Quick
      test_off_start_allocates_no_shadow;
    Alcotest.test_case "dedup and total" `Quick test_dedup_and_total;
    Alcotest.test_case "kept list capped" `Quick test_kept_is_capped;
    Alcotest.test_case "strict raises" `Quick test_strict_raises;
    Alcotest.test_case "detach" `Quick test_detach;
    Alcotest.test_case "out-of-range access" `Quick test_out_of_range_access;
    Alcotest.test_case "too many cores rejected" `Quick
      test_too_many_cores_rejected;
    Alcotest.test_case "clean stats" `Quick test_stats_report_findings;
    QCheck_alcotest.to_alcotest silence_property;
  ]
