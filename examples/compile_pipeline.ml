(* Compile pipeline: push a small synthetic suite through the full
   compile flow — AMD heuristic, lower-bound gating, two-pass parallel
   ACO on the simulated GPU, both Section VI-D filters — and report the
   per-kernel outcome plus the modeled execution-time effect. The suite
   goes through the region executor with a shared analysis cache, so the
   run also prints what the compile service did: how many region
   analyses were computed versus served from the cache.

   Run with: dune exec examples/compile_pipeline.exe *)

let () =
  let scale =
    { Workload.Suite.test_scale with Workload.Suite.num_kernels = 6; size_factor = 1.0 }
  in
  let suite = Workload.Suite.generate scale in
  let config = Pipeline.Compile.make_config ~gpu:{ Gpusim.Config.bench with num_wavefronts = 4 } () in
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  Printf.printf "compiling %d kernels / %d benchmarks (%d domains)...\n%!"
    (List.length suite.Workload.Suite.kernels)
    (List.length suite.Workload.Suite.benchmarks)
    jobs;
  let cache = Pipeline.Analysis.create () in
  let report = Pipeline.Executor.run_suite ~jobs ~cache config suite in
  Format.printf "%a@." Pipeline.Analysis.pp_stats (Pipeline.Analysis.stats cache);
  let filters = Pipeline.Filters.default in
  List.iter
    (fun (kr : Pipeline.Compile.kernel_report) ->
      let hot = Pipeline.Compile.hot_region kr in
      let final = Pipeline.Perf_model.final_for filters hot in
      Printf.printf "%-28s n=%-4d occ %d->%d  len %d->%d%s%s\n"
        kr.Pipeline.Compile.kernel.Workload.Suite.kernel_name hot.Pipeline.Compile.n
        hot.Pipeline.Compile.heuristic_cost.Sched.Cost.rp.Sched.Cost.occupancy
        final.Pipeline.Perf_model.cost.Sched.Cost.rp.Sched.Cost.occupancy
        hot.Pipeline.Compile.heuristic_cost.Sched.Cost.length
        final.Pipeline.Perf_model.cost.Sched.Cost.length
        (if final.Pipeline.Perf_model.reverted then "  [reverted]" else "")
        (if not final.Pipeline.Perf_model.aco_ran then "  [ACO not invoked]" else ""))
    report.Pipeline.Compile.kernels;
  print_newline ();
  let totals = Pipeline.Timing.compile_totals filters report in
  Printf.printf "compile time: base %.1fs, +seq ACO %.1f%%, +parallel ACO %.1f%% (simulated)\n"
    (totals.Pipeline.Timing.base_ns /. 1e9)
    (Pipeline.Timing.pct_increase totals.Pipeline.Timing.base_ns totals.Pipeline.Timing.seq_ns)
    (Pipeline.Timing.pct_increase totals.Pipeline.Timing.base_ns totals.Pipeline.Timing.par_ns);
  print_newline ();
  print_endline "modeled execution-time effect per benchmark:";
  List.iter
    (fun (b : Workload.Suite.benchmark) ->
      let pct = Pipeline.Perf_model.speedup_pct filters report b in
      if Float.abs pct >= 0.05 then
        Printf.printf "  %-32s %+6.1f%%\n" b.Workload.Suite.bench_name pct)
    report.Pipeline.Compile.suite.Workload.Suite.benchmarks
