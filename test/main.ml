(* Test runner: aggregates the per-library suites.  `dune runtest`. *)

let () =
  Alcotest.run "gpuopt"
    (Test_util.suite @ Test_pool.suite @ Test_ptx.suite @ Test_gpu.suite @ Test_kir.suite
   @ Test_lang.suite @ Test_tuner.suite @ Test_fault.suite @ Test_pipeline.suite
   @ Test_apps.suite @ Test_integration.suite @ Test_analysis.suite @ Test_sim_golden.suite @ Test_sim_slice.suite
   @ Test_proto.suite @ Test_store.suite @ Test_serve.suite @ Test_arch.suite
   @ Test_superopt.suite @ Test_predict.suite @ Test_dataflow.suite @ Test_compile_golden.suite @ Test_totality.suite)
