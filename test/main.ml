(* Test runner aggregating every suite. *)

let () =
  Alcotest.run "dift"
    [
      ("isa", Test_isa.suite);
      ("vm", Test_vm.suite);
      ("view", Test_view.suite);
      ("core", Test_core.suite);
      ("shadow-diff", Test_shadow_diff.suite);
      ("workloads", Test_workloads.suite);
      ("bdd", Test_bdd.suite);
      ("lineage", Test_lineage.suite);
      ("replay", Test_replay.suite);
      ("tm", Test_tm.suite);
      ("tm-extra", Test_tm_extra.suite);
      ("multicore", Test_multicore.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("parallel", Test_parallel.suite);
      ("codec", Test_codec.suite);
      ("sharded", Test_sharded.suite);
      ("faults", Test_faults.suite);
      ("watchdog", Test_watchdog.suite);
      ("postmortem", Test_postmortem.suite);
      ("names", Test_names.suite);
      ("faultloc", Test_faultloc.suite);
      ("attack", Test_attack.suite);
      ("avoidance", Test_avoidance.suite);
      ("adaptive", Test_adaptive.suite);
      ("extra", Test_extra.suite);
      ("properties", Test_props.suite);
      ("experiments", Test_experiments.suite);
    ]
