(* Fault-tolerant compile driver: fault injection, watchdogs, compile
   budgets and graceful degradation to the heuristic schedule. *)

let compile_cfg ?robust ?fault_rate ?fault_seed ?compile_budget_ms ?max_retries () =
  {
    (Pipeline.Compile.make_config ~gpu:Tu.test_gpu ?robust ?fault_rate ?fault_seed
       ?compile_budget_ms ?max_retries ())
    with
    Pipeline.Compile.params =
      {
        Tu.test_params with
        Engine.Params.ants_per_iteration = Gpusim.Config.threads Tu.test_gpu;
      };
    run_sequential = false;
  }

let check_order_valid region (r : Pipeline.Compile.region_report) =
  let graph = Ddg.Graph.build region in
  match Sched.Schedule.of_order graph r.Pipeline.Compile.aco_order with
  | Ok _ -> true
  | Error v ->
      Alcotest.failf "emitted order invalid: %s" (Sched.Schedule.violation_to_string v)

(* --- fault injector ------------------------------------------------------ *)

let test_faults_deterministic () =
  let rates = Gpusim.Config.uniform_faults 0.3 in
  let run () =
    let f = Gpusim.Faults.create ~seed:42 rates in
    List.init 200 (fun i ->
        if i mod 3 = 0 then Gpusim.Faults.lane_fault f
        else if i mod 3 = 1 then Gpusim.Faults.mem_fault f
        else Gpusim.Faults.reduction_drop f)
  in
  Alcotest.(check (list bool)) "same seed, same fault pattern" (run ()) (run ())

let test_faults_disabled_never_fire () =
  let f = Gpusim.Faults.disabled in
  for _ = 1 to 100 do
    Alcotest.(check bool) "lane" false (Gpusim.Faults.lane_fault f);
    Alcotest.(check bool) "hang" false (Gpusim.Faults.wavefront_hang f);
    Alcotest.(check bool) "drop" false (Gpusim.Faults.reduction_drop f);
    Alcotest.(check bool) "mem" false (Gpusim.Faults.mem_fault f)
  done;
  Alcotest.(check int) "nothing counted" 0 (Engine.Types.fault_counts_total (Gpusim.Faults.counts f))

let test_zero_rates_draw_nothing () =
  (* A zero-rate class must not consume randomness: with every class at
     zero the injector's stream is untouched, which is what keeps
     fault-free runs byte-identical. *)
  let f = Gpusim.Faults.create ~seed:7 Gpusim.Config.no_faults in
  for _ = 1 to 50 do
    ignore (Gpusim.Faults.lane_fault f);
    ignore (Gpusim.Faults.wavefront_hang f)
  done;
  let g = Gpusim.Faults.create ~seed:7 (Gpusim.Config.uniform_faults 1.0) in
  let f_next = Gpusim.Faults.pick f 1000 and g_next = Gpusim.Faults.pick g 1000 in
  Alcotest.(check int) "stream position unchanged by zero-rate tests" g_next f_next

(* --- watchdog + schedule guard ------------------------------------------- *)

let test_watchdog_clamp () =
  Alcotest.(check (pair (float 0.0) bool))
    "under deadline" (5.0, false)
    (Gpusim.Kernel_sim.watchdog_clamp ~deadline_ns:10.0 5.0);
  Alcotest.(check (pair (float 0.0) bool))
    "over deadline clamps" (10.0, true)
    (Gpusim.Kernel_sim.watchdog_clamp ~deadline_ns:10.0 25.0);
  Alcotest.(check (pair (float 0.0) bool))
    "infinite deadline never fires" (1e12, false)
    (Gpusim.Kernel_sim.watchdog_clamp ~deadline_ns:infinity 1e12)

let test_schedule_guard () =
  let graph = Ddg.Graph.build (Tu.diamond_region ()) in
  let order = Array.init graph.Ddg.Graph.n (fun i -> i) in
  let padded = Sched.Schedule.latency_pad graph order in
  let kept, fired = Sched.Schedule.guard padded ~latency_aware:true ~fallback:padded in
  Alcotest.(check bool) "valid schedule kept" false fired;
  Alcotest.(check bool) "same schedule" true (kept == padded);
  (* The stall-free source order violates load latencies, so the
     latency-aware guard must reject it and hand back the fallback. *)
  let unpadded = Result.get_ok (Sched.Schedule.of_order graph order) in
  let kept, fired = Sched.Schedule.guard unpadded ~latency_aware:true ~fallback:padded in
  Alcotest.(check bool) "latency-invalid schedule replaced" true fired;
  Alcotest.(check bool) "fallback returned" true (kept == padded)

(* --- hot_region regression ----------------------------------------------- *)

let test_hot_region_clamps () =
  let region = Workload.Shapes.transform (Support.Rng.create 3) ~unroll:6 ~chain:4 in
  let rr = Pipeline.Compile.run_region (compile_cfg ()) ~name:"only" region in
  let kernel =
    {
      Workload.Suite.kernel_name = "k";
      regions = [ region ];
      hot_index = 5;
      (* out of range: metadata bug must not crash reporting *)
      mem_ratio = 0.5;
    }
  in
  let kr = { Pipeline.Compile.kernel; regions = [ rr ] } in
  let hot = Pipeline.Compile.hot_region kr in
  Alcotest.(check string) "clamps to last region" "only" hot.Pipeline.Compile.region_name;
  let kernel_neg = { kernel with Workload.Suite.hot_index = -3 } in
  let hot = Pipeline.Compile.hot_region { kr with Pipeline.Compile.kernel = kernel_neg } in
  Alcotest.(check string) "clamps negative to first" "only" hot.Pipeline.Compile.region_name

(* --- degradation ledger -------------------------------------------------- *)

let test_budget_exceeded_keeps_valid_schedule () =
  let region = Workload.Shapes.reduction (Support.Rng.create 1) ~items:24 in
  let r = Pipeline.Compile.run_region (compile_cfg ~compile_budget_ms:0.0 ()) ~name:"t" region in
  Alcotest.(check bool) "ledger says budget" true
    (r.Pipeline.Compile.degradation = Pipeline.Robust.Budget_exceeded);
  Alcotest.(check bool) "schedule still valid" true (check_order_valid region r)

let test_hang_storm_degrades_to_fallback () =
  let region = Workload.Shapes.reduction (Support.Rng.create 1) ~items:24 in
  let gpu =
    Gpusim.Config.with_faults Tu.test_gpu
      { Gpusim.Config.no_faults with Gpusim.Config.wavefront_hang_rate = 1.0 }
  in
  let cfg = { (compile_cfg ()) with Pipeline.Compile.gpu } in
  let r = Pipeline.Compile.run_region cfg ~name:"t" region in
  Alcotest.(check bool) "ledger says fallback" true
    (r.Pipeline.Compile.degradation = Pipeline.Robust.Faulted_fallback);
  Alcotest.(check bool) "retries were attempted" true (r.Pipeline.Compile.retries > 0);
  Alcotest.(check bool) "schedule still valid" true (check_order_valid region r)

let test_iteration_deadline_degrades () =
  (* A 1 ns per-iteration deadline fires the watchdog on every iteration
     even with faults off; the driver must degrade, not loop or crash. *)
  let region = Workload.Shapes.reduction (Support.Rng.create 1) ~items:24 in
  let robust =
    { Pipeline.Robust.default with Pipeline.Robust.iteration_deadline_ns = 1.0 }
  in
  let r = Pipeline.Compile.run_region (compile_cfg ~robust ()) ~name:"t" region in
  Alcotest.(check bool) "ledger says fallback" true
    (r.Pipeline.Compile.degradation = Pipeline.Robust.Faulted_fallback);
  Alcotest.(check bool) "schedule still valid" true (check_order_valid region r)

let test_classify_priority () =
  let c = Pipeline.Robust.classify in
  (* Stops that keep the ACO product: the rung follows the retries. *)
  List.iter
    (fun stop ->
      Alcotest.check Tu.rung "clean" Pipeline.Robust.Clean (c ~fell_back:false ~stop ~retries:0);
      Alcotest.check Tu.rung "retried" (Pipeline.Robust.Retried 2)
        (c ~fell_back:false ~stop ~retries:2))
    Engine.Types.[ Skipped; Patience; Max_iterations; Lower_bound ];
  Alcotest.check Tu.rung "budget beats retried" Pipeline.Robust.Budget_exceeded
    (c ~fell_back:false ~stop:Engine.Types.Budget ~retries:2);
  Alcotest.check Tu.rung "fallback beats budget" Pipeline.Robust.Faulted_fallback
    (c ~fell_back:true ~stop:Engine.Types.Budget ~retries:2);
  Alcotest.check Tu.rung "retry exhaustion is fallback" Pipeline.Robust.Faulted_fallback
    (c ~fell_back:false ~stop:Engine.Types.Faults ~retries:2);
  (* A run's stop is the max of its passes', by declared precedence. *)
  Alcotest.check Tu.rung "a budget stop in either pass beats a bound"
    Pipeline.Robust.Budget_exceeded
    (c ~fell_back:false ~stop:(max Engine.Types.Lower_bound Engine.Types.Budget) ~retries:0);
  Alcotest.check Tu.rung "a faults stop beats a budget stop" Pipeline.Robust.Faulted_fallback
    (c ~fell_back:false ~stop:(max Engine.Types.Faults Engine.Types.Budget) ~retries:0);
  (* A pass that meets its bound in the iteration that spends its budget
     stops with [Budget] and ranks as budget: one pass-2 iteration on
     [Tu.bound_region] reaches the length bound and costs far more than
     the budget. *)
  let rc = Engine.Region_ctx.of_region Tu.occ (Tu.bound_region ()) in
  List.iter
    (fun (name, backend, seed, budget, ext) ->
      let r =
        Engine.Two_pass.run backend
          {
            Engine.Backend.null_ctx with
            Engine.Backend.params = Tu.test_params;
            seed;
            budget;
            ext;
          }
          rc
      in
      let pass2 = r.Engine.Types.pass2 in
      Alcotest.(check int) (name ^ ": one iteration") 1 pass2.Engine.Types.iterations;
      Alcotest.(check int)
        (name ^ ": met its bound")
        rc.Engine.Region_ctx.length_lb r.Engine.Types.cost.Sched.Cost.length;
      Alcotest.(check bool)
        (name ^ ": stops on its budget") true
        (pass2.Engine.Types.stop = Engine.Types.Budget);
      Alcotest.check Tu.rung (name ^ ": ranks as budget") Pipeline.Robust.Budget_exceeded
        (c ~fell_back:false ~stop:pass2.Engine.Types.stop ~retries:0))
    [
      ("seq", Aco.Seq_aco.backend, 1, Engine.Types.Work 1, []);
      ( "par",
        Gpusim.Par_aco.backend,
        12,
        Engine.Types.Time_ns 1.0,
        [ Gpusim.Par_aco.Gpu_config Tu.test_gpu ] );
    ]

let test_tally () =
  let t =
    Pipeline.Robust.tally_of_list
      [
        Pipeline.Robust.Clean;
        Pipeline.Robust.Retried 2;
        Pipeline.Robust.Retried 1;
        Pipeline.Robust.Budget_exceeded;
        Pipeline.Robust.Faulted_fallback;
      ]
  in
  Alcotest.(check int) "regions" 5 t.Pipeline.Robust.regions;
  Alcotest.(check int) "clean" 1 t.Pipeline.Robust.clean;
  Alcotest.(check int) "retried" 2 t.Pipeline.Robust.retried;
  Alcotest.(check int) "budget" 1 t.Pipeline.Robust.budget_exceeded;
  Alcotest.(check int) "fallback" 1 t.Pipeline.Robust.faulted_fallback;
  Alcotest.(check int) "total retries" 3 t.Pipeline.Robust.total_retries

(* --- sequential budget ---------------------------------------------------- *)

let seq_run ~budget region =
  Engine.Two_pass.run Aco.Seq_aco.backend
    { Engine.Backend.null_ctx with Engine.Backend.params = Tu.test_params; seed = 5; budget }
    (Engine.Region_ctx.of_region Tu.occ region)

let test_seq_budget_abort () =
  (* a pressure-bound region: its heuristic order sits above the RP
     bound, so pass 1 runs *)
  let region = Workload.Shapes.gather_compute (Support.Rng.create 1) ~lanes:24 ~chain:1 in
  let r = seq_run ~budget:(Engine.Types.Work 0) region in
  Alcotest.(check bool) "pass1 ran" true r.Engine.Types.pass1.Engine.Types.invoked;
  Alcotest.(check bool) "pass1 aborted on budget" true
    (r.Engine.Types.pass1.Engine.Types.stop = Engine.Types.Budget);
  Alcotest.(check int) "no search work spent" 0
    (r.Engine.Types.pass1.Engine.Types.work + r.Engine.Types.pass2.Engine.Types.work);
  ignore (Tu.check_valid r.Engine.Types.schedule)

let test_seq_unbudgeted_unchanged () =
  let region = Workload.Shapes.reduction (Support.Rng.create 2) ~items:24 in
  let a = seq_run ~budget:Engine.Types.Unlimited region in
  let b = seq_run ~budget:(Engine.Types.Work max_int) region in
  Alcotest.(check bool) "pass 2 searched" true a.Engine.Types.pass2.Engine.Types.invoked;
  Alcotest.(check (array int)) "explicit infinite budget is a no-op"
    (Sched.Schedule.order a.Engine.Types.schedule)
    (Sched.Schedule.order b.Engine.Types.schedule);
  Alcotest.(check bool) "not flagged" false
    (b.Engine.Types.pass1.Engine.Types.stop = Engine.Types.Budget
    || b.Engine.Types.pass2.Engine.Types.stop = Engine.Types.Budget)

(* --- properties ----------------------------------------------------------- *)

(* (a) Whatever the fault rate, the emitted schedule is valid and the
   ledger entry is consistent with the retry count. *)
let prop_any_rate_valid_schedule =
  QCheck.Test.make ~count:30 ~name:"compile under any fault rate emits a valid schedule"
    (QCheck.pair (Tu.arb_region ~max_size:30 ()) (QCheck.float_bound_inclusive 1.0))
    (fun (region, rate) ->
      let r = Pipeline.Compile.run_region (compile_cfg ~fault_rate:rate ()) ~name:"q" region in
      check_order_valid region r
      && (match r.Pipeline.Compile.degradation with
         | Pipeline.Robust.Retried k -> k = r.Pipeline.Compile.retries && k > 0
         | Pipeline.Robust.Clean -> r.Pipeline.Compile.retries = 0
         | Pipeline.Robust.Budget_exceeded | Pipeline.Robust.Faulted_fallback -> true
         (* the compile driver itself never sheds — only the serve loop does *)
         | Pipeline.Robust.Shed_overload -> false)
      && (rate > 0.0
         || Engine.Types.fault_counts_total r.Pipeline.Compile.fault_counts = 0))

(* (b) After the revert filter the product is never worse than the
   heuristic fallback: occupancy never drops, and any length penalty
   stays within the filter's slack (at equal occupancy) or cap (at an
   occupancy gain). *)
let prop_final_never_worse_than_heuristic =
  QCheck.Test.make ~count:30 ~name:"post-filter product never worse than heuristic"
    (QCheck.pair (Tu.arb_region ~max_size:30 ()) (QCheck.float_bound_inclusive 1.0))
    (fun (region, rate) ->
      let r = Pipeline.Compile.run_region (compile_cfg ~fault_rate:rate ()) ~name:"q" region in
      let filters = Pipeline.Filters.default in
      let final = Pipeline.Perf_model.final_for filters r in
      let h = r.Pipeline.Compile.heuristic_cost in
      let f = final.Pipeline.Perf_model.cost in
      let occ c = c.Sched.Cost.rp.Sched.Cost.occupancy in
      occ f >= occ h
      &&
      if occ f = occ h then
        f.Sched.Cost.length
        <= h.Sched.Cost.length + filters.Pipeline.Filters.equal_occupancy_length_slack
      else
        f.Sched.Cost.length
        <= h.Sched.Cost.length + filters.Pipeline.Filters.revert_length_penalty)

(* (c) Fault rate zero with unbounded budget is byte-identical to a
   config that never heard of the fault model. *)
let prop_zero_rate_byte_identical =
  QCheck.Test.make ~count:20 ~name:"zero fault rate + infinite budget is byte-identical"
    (Tu.arb_region ~max_size:30 ())
    (fun region ->
      let plain = Pipeline.Compile.run_region (compile_cfg ()) ~name:"q" region in
      let armed =
        Pipeline.Compile.run_region
          (compile_cfg ~fault_rate:0.0 ~fault_seed:12345 ~max_retries:9 ())
          ~name:"q" region
      in
      plain.Pipeline.Compile.aco_order = armed.Pipeline.Compile.aco_order
      && plain.Pipeline.Compile.pass1_only_order = armed.Pipeline.Compile.pass1_only_order
      && plain.Pipeline.Compile.degradation = Pipeline.Robust.Clean
      && armed.Pipeline.Compile.degradation = Pipeline.Robust.Clean)

let suite =
  [
    Alcotest.test_case "fault injector is deterministic" `Quick test_faults_deterministic;
    Alcotest.test_case "disabled injector never fires" `Quick test_faults_disabled_never_fire;
    Alcotest.test_case "zero-rate classes draw nothing" `Quick test_zero_rates_draw_nothing;
    Alcotest.test_case "watchdog clamp" `Quick test_watchdog_clamp;
    Alcotest.test_case "schedule guard" `Quick test_schedule_guard;
    Alcotest.test_case "hot_region clamps bad hot_index" `Quick test_hot_region_clamps;
    Alcotest.test_case "zero budget degrades to Budget_exceeded" `Quick
      test_budget_exceeded_keeps_valid_schedule;
    Alcotest.test_case "hang storm degrades to Faulted_fallback" `Quick
      test_hang_storm_degrades_to_fallback;
    Alcotest.test_case "iteration deadline degrades gracefully" `Quick
      test_iteration_deadline_degrades;
    Alcotest.test_case "ledger classification priority" `Quick test_classify_priority;
    Alcotest.test_case "ledger tally" `Quick test_tally;
    Alcotest.test_case "sequential budget abort" `Quick test_seq_budget_abort;
    Alcotest.test_case "sequential unbudgeted unchanged" `Quick test_seq_unbudgeted_unchanged;
  ]
  @ Tu.qtests
      [
        prop_any_rate_valid_schedule;
        prop_final_never_worse_than_heuristic;
        prop_zero_rate_byte_identical;
      ]
