let () =
  Alcotest.run "gpu-aco-sched"
    [
      ("support", Test_support.suite);
      ("ir", Test_ir.suite);
      ("ddg", Test_ddg.suite);
      ("machine", Test_machine.suite);
      ("sched", Test_sched.suite);
      ("aco", Test_aco.suite);
      ("gpusim", Test_gpusim.suite);
      ("engine", Test_engine.suite);
      ("policy", Test_policy.suite);
      ("arena", Test_arena.suite);
      ("workload", Test_workload.suite);
      ("pipeline", Test_pipeline.suite);
      ("exec", Test_exec.suite);
      ("robust", Test_robust.suite);
      ("serve", Test_serve.suite);
      ("quality", Test_quality.suite);
      ("obs", Test_obs.suite);
      ("golden", Test_golden.suite);
    ]
