(* Aggregated test runner for the whole repository. *)

let () =
  Alcotest.run "utlb-reproduction"
    [
      ("rng", Test_rng.suite);
      ("heap", Test_heap.suite);
      ("engine", Test_engine.suite);
      ("stats", Test_stats.suite);
      ("cost-table", Test_cost_table.suite);
      ("mem", Test_mem.suite);
      ("nic", Test_nic.suite);
      ("net", Test_net.suite);
      ("bitvec", Test_bitvec.suite);
      ("lookup-tree", Test_lookup_tree.suite);
      ("replacement", Test_replacement.suite);
      ("translation-table", Test_translation_table.suite);
      ("ni-cache", Test_ni_cache.suite);
      ("miss-classifier", Test_miss_classifier.suite);
      ("flat-storage", Test_flat_storage.suite);
      ("cost-model", Test_cost_model.suite);
      ("report", Test_report.suite);
      ("hier-engine", Test_hier_engine.suite);
      ("intr-engine", Test_intr_engine.suite);
      ("per-process", Test_per_process.suite);
      ("pp-engine", Test_pp_engine.suite);
      ("trace", Test_trace.suite);
      ("workloads", Test_workloads.suite);
      ("analysis", Test_analysis.suite);
      ("pattern", Test_pattern.suite);
      ("vmmc", Test_vmmc.suite);
      ("svm", Test_svm.suite);
      ("msg", Test_msg.suite);
      ("collective", Test_collective.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("substrate-extra", Test_substrate_extra.suite);
      ("experiments", Test_experiments.suite);
      ("check", Test_check.suite);
      ("campaign", Test_campaign.suite);
      ("modern-engines", Test_modern_engines.suite);
      ("obs", Test_obs.suite);
      ("fault", Test_fault.suite);
      ("tenant", Test_tenant.suite);
      ("verify", Test_verify.suite);
      ("explore", Test_explore.suite);
      ("bound", Test_bound.suite);
      ("alloc", Test_alloc.suite);
    ]
