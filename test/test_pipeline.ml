let mk_cost ~occ ~len =
  {
    Sched.Cost.rp = { Sched.Cost.aprp_vgpr = 24; aprp_sgpr = 80; occupancy = occ };
    length = len;
  }

let test_post_filter_decision_table () =
  let f = Pipeline.Filters.default in
  let check name expected heuristic aco =
    Alcotest.(check bool) name
      (expected = `Revert)
      (Pipeline.Filters.post_schedule f ~heuristic ~aco = Pipeline.Filters.Revert_to_heuristic)
  in
  check "occupancy loss reverts" `Revert (mk_cost ~occ:9 ~len:100) (mk_cost ~occ:8 ~len:90);
  check "clear length regression reverts" `Revert (mk_cost ~occ:9 ~len:100) (mk_cost ~occ:9 ~len:110);
  check "within-slack tie keeps" `Keep (mk_cost ~occ:9 ~len:100) (mk_cost ~occ:9 ~len:102);
  check "equal occ shorter keeps" `Keep (mk_cost ~occ:9 ~len:100) (mk_cost ~occ:9 ~len:90);
  check "small occ gain huge penalty reverts" `Revert (mk_cost ~occ:5 ~len:100)
    (mk_cost ~occ:8 ~len:200);
  check "small occ gain small penalty keeps" `Keep (mk_cost ~occ:5 ~len:100)
    (mk_cost ~occ:8 ~len:150);
  check "occupancy gain within the cap keeps" `Keep (mk_cost ~occ:5 ~len:100)
    (mk_cost ~occ:9 ~len:160);
  check "huge penalty reverts even at a big gain" `Revert (mk_cost ~occ:5 ~len:100)
    (mk_cost ~occ:9 ~len:400)

let compile_cfg () =
  {
    (Pipeline.Compile.make_config ~gpu:Tu.test_gpu ()) with
    Pipeline.Compile.params =
      {
        Tu.test_params with
        Engine.Params.ants_per_iteration = Gpusim.Config.threads Tu.test_gpu;
      };
  }

let test_run_region_coherent () =
  let region = Workload.Shapes.transform (Support.Rng.create 3) ~unroll:10 ~chain:4 in
  let r = Pipeline.Compile.run_region (compile_cfg ()) ~name:"t" region in
  Alcotest.(check int) "size recorded" (Ir.Region.size region) r.Pipeline.Compile.n;
  Alcotest.(check bool) "lb below heuristic" true
    (r.Pipeline.Compile.length_lb <= r.Pipeline.Compile.heuristic_cost.Sched.Cost.length);
  Alcotest.(check bool) "gap consistent" true
    (r.Pipeline.Compile.pass2_gap
    = r.Pipeline.Compile.pass1_only_cost.Sched.Cost.length
      - Ddg.Lower_bounds.dependence_height (Ddg.Graph.build region));
  Alcotest.(check int) "orders complete" r.Pipeline.Compile.n
    (Array.length r.Pipeline.Compile.aco_order)

let test_final_for_threshold_synthesis () =
  let region = Workload.Shapes.reduction (Support.Rng.create 1) ~items:24 in
  let r = Pipeline.Compile.run_region (compile_cfg ()) ~name:"t" region in
  (* With an absurd threshold pass 2 is always gated. *)
  let gated =
    Pipeline.Perf_model.final_for
      { Pipeline.Filters.default with Pipeline.Filters.cycle_threshold = 100000 }
      r
  in
  if r.Pipeline.Compile.pass1_invoked then
    Alcotest.(check bool) "gated final is pass1-only or heuristic" true
      (gated.Pipeline.Perf_model.cost = r.Pipeline.Compile.pass1_only_cost
      || gated.Pipeline.Perf_model.reverted)
  else
    Alcotest.(check bool) "no ACO -> heuristic" true
      (gated.Pipeline.Perf_model.cost = r.Pipeline.Compile.heuristic_cost);
  (* With threshold 1 the recorded ACO product is eligible. *)
  let open_ = Pipeline.Perf_model.final_for Pipeline.Filters.no_filtering r in
  Alcotest.(check bool) "pass 2 searched a gap" true
    (r.Pipeline.Compile.pass2_invoked && r.Pipeline.Compile.pass2_gap >= 1);
  Alcotest.(check bool) "ungated final is the ACO product" true
    (open_.Pipeline.Perf_model.cost = r.Pipeline.Compile.aco_cost
    || open_.Pipeline.Perf_model.reverted)

let suite_report =
  lazy
    (let suite = Workload.Suite.generate Workload.Suite.test_scale in
     Pipeline.Executor.run_suite (compile_cfg ()) suite)

let test_suite_report_shape () =
  let report = Lazy.force suite_report in
  Alcotest.(check int) "one report per kernel"
    (List.length report.Pipeline.Compile.suite.Workload.Suite.kernels)
    (List.length report.Pipeline.Compile.kernels);
  List.iter
    (fun (kr : Pipeline.Compile.kernel_report) ->
      Alcotest.(check int) "one region report per region"
        (List.length kr.Pipeline.Compile.kernel.Workload.Suite.regions)
        (List.length kr.Pipeline.Compile.regions))
    report.Pipeline.Compile.kernels

let test_timing_totals_monotone () =
  let report = Lazy.force suite_report in
  let at threshold = { Pipeline.Filters.default with Pipeline.Filters.cycle_threshold = threshold } in
  let t = Pipeline.Timing.compile_totals (at 21) report in
  Alcotest.(check bool) "seq >= base" true (t.Pipeline.Timing.seq_ns >= t.Pipeline.Timing.base_ns);
  Alcotest.(check bool) "par >= base" true (t.Pipeline.Timing.par_ns >= t.Pipeline.Timing.base_ns);
  let loose = Pipeline.Timing.compile_totals (at 1) report in
  Alcotest.(check bool) "lower threshold means more ACO time" true
    (loose.Pipeline.Timing.seq_ns >= t.Pipeline.Timing.seq_ns);
  Alcotest.(check (float 1e-6)) "pct of base is zero" 0.0
    (Pipeline.Timing.pct_increase t.Pipeline.Timing.base_ns t.Pipeline.Timing.base_ns)

let test_perf_model_views () =
  let report = Lazy.force suite_report in
  List.iter
    (fun b ->
      let th = Pipeline.Perf_model.benchmark_time Pipeline.Perf_model.Heuristic report b in
      let tf =
        Pipeline.Perf_model.benchmark_time
          (Pipeline.Perf_model.Final Pipeline.Filters.default)
          report b
      in
      Alcotest.(check bool) "times positive" true (th > 0.0 && tf > 0.0);
      Alcotest.(check bool) "throughput consistent" true
        (Pipeline.Perf_model.benchmark_throughput Pipeline.Perf_model.Heuristic report b
        = b.Workload.Suite.bytes_per_item /. th))
    report.Pipeline.Compile.suite.Workload.Suite.benchmarks

let test_report_tables_coherent () =
  let report = Lazy.force suite_report in
  let f = Pipeline.Filters.default in
  let t1 = Pipeline.Report.table1 f report in
  Alcotest.(check bool) "pass counts within region count" true
    (t1.Pipeline.Report.pass1_regions <= t1.Pipeline.Report.num_regions
    && t1.Pipeline.Report.pass2_regions <= t1.Pipeline.Report.num_regions);
  let rows = Pipeline.Report.table3 ~pass:`Two f report in
  Alcotest.(check int) "three size categories" 3 (List.length rows);
  List.iter
    (fun (r : Pipeline.Report.speedup_row) ->
      Alcotest.(check bool) "comparable <= processed" true
        (r.Pipeline.Report.comparable <= r.Pipeline.Report.processed);
      if r.Pipeline.Report.comparable > 0 then
        (* 1 ulp of slack: geomean of a singleton round-trips through exp/log *)
        Alcotest.(check bool) "min <= geo <= max" true
          (r.Pipeline.Report.min_speedup <= r.Pipeline.Report.geomean *. (1.0 +. 1e-12)
          && r.Pipeline.Report.geomean <= r.Pipeline.Report.max_speedup *. (1.0 +. 1e-12)))
    rows;
  let t7 = Pipeline.Report.table7 ~thresholds:[ 1; 21 ] report in
  List.iter
    (fun (r : Pipeline.Report.table7_row) ->
      Alcotest.(check bool) "imps monotone" true
        (r.Pipeline.Report.imps_ge_3 >= r.Pipeline.Report.imps_ge_5
        && r.Pipeline.Report.imps_ge_5 >= r.Pipeline.Report.imps_ge_10);
      Alcotest.(check bool) "regs monotone" true
        (r.Pipeline.Report.regs_ge_3 >= r.Pipeline.Report.regs_ge_5
        && r.Pipeline.Report.regs_ge_5 >= r.Pipeline.Report.regs_ge_10))
    t7

let test_fig4_significance () =
  let report = Lazy.force suite_report in
  let f4 = Pipeline.Report.fig4 Pipeline.Filters.default report in
  List.iter
    (fun (_, pct) ->
      Alcotest.(check bool) "rows are significant" true (Float.abs pct >= 1.0))
    f4.Pipeline.Report.rows;
  Alcotest.(check bool) "counts within sensitive set" true
    (f4.Pipeline.Report.improved_ge_10pct <= f4.Pipeline.Report.improved_ge_5pct)

let test_reldist () =
  let id = [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  let rev = [| 7; 6; 5; 4; 3; 2; 1; 0 |] in
  Alcotest.(check (float 1e-9)) "identical orders" 0.0 (Pipeline.Perf_model.reldist id id);
  let d = Pipeline.Perf_model.reldist id rev in
  Alcotest.(check bool) "reversal is far" true (d > 0.5);
  Alcotest.(check bool) "bounded by one" true (d <= 1.0);
  let near = [| 1; 0; 2; 3; 4; 5; 6; 7 |] in
  Alcotest.(check bool) "one swap is close" true
    (Pipeline.Perf_model.reldist id near < 0.1)

let test_ablation_smoke () =
  (* One hand-built "suite": a single pressure kernel, so the ablations
     have at least one eligible region and every code path executes. *)
  let rng = Support.Rng.create 12 in
  let hot = Workload.Shapes.wide_accum rng ~accumulators:20 ~rounds:24 in
  let kernel =
    {
      Workload.Suite.kernel_name = "ablation_kernel";
      regions = [ hot ];
      hot_index = 0;
      mem_ratio = 0.5;
    }
  in
  let config = compile_cfg () in
  let kr =
    {
      Pipeline.Compile.kernel;
      regions = [ Pipeline.Compile.run_region config ~name:"hot" hot ];
    }
  in
  let report =
    {
      Pipeline.Compile.suite =
        {
          Workload.Suite.kernels = [ kernel ];
          benchmarks =
            [ { Workload.Suite.bench_name = "b"; kernel; items = 1024; bytes_per_item = 8.0 } ];
        };
      compile_config = config;
      kernels = [ kr ];
    }
  in
  let rows =
    Pipeline.Ablation.compare_opts config report ~baseline:Gpusim.Config.opts_no_memory
      ~optimized:Gpusim.Config.opts_paper
  in
  Alcotest.(check int) "three categories" 3 (List.length rows);
  Alcotest.(check bool) "memory optimizations help somewhere" true
    (List.exists
       (fun (r : Pipeline.Ablation.time_row) ->
         r.Pipeline.Ablation.pass1_overall_pct > 0.0 || r.Pipeline.Ablation.pass2_overall_pct > 0.0)
       rows);
  let stalls =
    Pipeline.Ablation.stall_fraction_sweep config report ~fractions:[ 0.25 ] ~min_region_size:1
  in
  Alcotest.(check int) "one stall row" 1 (List.length stalls);
  let limits = Pipeline.Ablation.ready_limit_experiment config report in
  Alcotest.(check int) "min and mid rows" 2 (List.length limits)

let suite =
  [
    Alcotest.test_case "post filter decision table" `Quick test_post_filter_decision_table;
    Alcotest.test_case "reldist" `Quick test_reldist;
    Alcotest.test_case "run_region coherent" `Quick test_run_region_coherent;
    Alcotest.test_case "threshold synthesis" `Quick test_final_for_threshold_synthesis;
    Alcotest.test_case "suite report shape" `Slow test_suite_report_shape;
    Alcotest.test_case "timing totals" `Slow test_timing_totals_monotone;
    Alcotest.test_case "perf model views" `Slow test_perf_model_views;
    Alcotest.test_case "report tables coherent" `Slow test_report_tables_coherent;
    Alcotest.test_case "fig4 significance" `Slow test_fig4_significance;
    Alcotest.test_case "ablation smoke" `Slow test_ablation_smoke;
  ]
