(* Aggregated test runner: `dune runtest`. *)

let () =
  Alcotest.run "interferometry"
    (Test_stats.suite @ Test_isa.suite @ Test_layout.suite @ Test_predictors.suite
   @ Test_uarch.suite @ Test_workloads.suite @ Test_replay.suite @ Test_sweep_fused.suite
   @ Test_cache_sweep.suite
   @ Test_pin.suite
   @ Test_core.suite
   @ Test_plot.suite @ Test_extensions.suite @ Test_characters.suite
   @ Test_analysis.suite @ Test_fuzz.suite @ Test_reproduction.suite @ Test_surrogate.suite
   @ Test_surrogate_identity.suite
   @ Test_campaign.suite @ Test_resilience.suite @ Test_obs.suite
   @ Test_flight.suite
   @ Test_serve.suite @ Test_bundle.suite @ Test_distributed.suite)
