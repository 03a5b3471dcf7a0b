(* Aggregated test runner for the whole library. *)

let () =
  Alcotest.run "hsgc"
    [
      ("rng", Test_rng.suite);
      ("table", Test_table.suite);
      ("header", Test_header.suite);
      ("semispace", Test_semispace.suite);
      ("heap", Test_heap.suite);
      ("verify", Test_verify.suite);
      ("header-fifo", Test_fifo.suite);
      ("memsys", Test_memsys.suite);
      ("port", Test_port.suite);
      ("sync-block", Test_sync_block.suite);
      ("plan", Test_plan.suite);
      ("graph-gen", Test_graph_gen.suite);
      ("workloads", Test_workloads.suite);
      ("mutator", Test_mutator.suite);
      ("cheney-seq", Test_cheney_seq.suite);
      ("baselines", Test_baselines.suite);
      ("swgc", Test_swgc.suite);
      ("coprocessor", Test_coprocessor.suite);
      ("trace", Test_timeline.suite);
      ("obs", Test_obs.suite);
      ("golden", Test_golden.suite);
      ("concurrent", Test_concurrent.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("experiment", Test_experiment.suite);
      ("kernel", Test_kernel.suite);
      ("parking", Test_parking.suite);
      ("banked", Test_banked.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("fault", Test_fault.suite);
      ("sanitizer", Test_sanitizer.suite);
      ("mutations", Mutations.suite);
      ("model", Test_model.suite);
    ]
