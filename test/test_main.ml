let () =
  Alcotest.run "cheap_paxos"
    [
      ("smoke", Smoke.suite);
      ("util", Test_util.suite);
      ("sim", Test_sim.suite);
      ("proto", Test_proto.suite);
      ("acceptor", Test_acceptor.suite);
      ("log", Test_log.suite);
      ("configs", Test_configs.suite);
      ("smr", Test_smr.suite);
      ("checker", Test_checker.suite);
      ("replica", Test_replica.suite);
      ("faults", Test_faults.suite);
      ("workload", Test_workload.suite);
      ("harness", Test_harness.suite);
      ("client", Test_client.suite);
      ("codec", Test_codec.suite);
      ("mc", Test_mc.suite);
      ("roles", Test_roles.suite);
      ("lease", Test_lease.suite);
      ("netio", Test_netio.suite);
      ("batching", Test_batching.suite);
      ("reconfig-safety", Test_reconfig_safety.suite);
      ("mc-multi", Test_mc_multi.suite);
      ("session", Test_session.suite);
      ("analysis", Test_analysis.suite);
      ("nemesis", Test_nemesis.suite);
      ("netio-unit", Test_netio_unit.suite);
      ("obs", Test_obs.suite);
      ("timeline", Test_timeline.suite);
      ("fleet", Test_fleet.suite);
      ("golden", Test_golden.suite);
      ("transport", Test_transport.suite);
      ("storage", Test_storage.suite);
    ]
