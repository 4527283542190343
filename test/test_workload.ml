let shapes_with_params rng =
  [
    ("reduction", Workload.Shapes.reduction rng ~items:16);
    ("scan", Workload.Shapes.scan rng ~items:16);
    ("transform", Workload.Shapes.transform rng ~unroll:8 ~chain:3);
    ("stencil", Workload.Shapes.stencil rng ~outputs:8 ~radius:2);
    ("matmul", Workload.Shapes.matmul_tile rng ~m:6 ~k:3);
    ("histogram", Workload.Shapes.histogram rng ~items:8);
    ("sort", Workload.Shapes.sort_pass rng ~items:8);
    ("scalar", Workload.Shapes.scalar_setup rng ~count:6);
    ("gather", Workload.Shapes.gather_compute rng ~lanes:6 ~chain:2);
    ("wide_accum", Workload.Shapes.wide_accum rng ~accumulators:8 ~rounds:12);
  ]

let test_shapes_build_valid_regions () =
  let rng = Support.Rng.create 1 in
  List.iter
    (fun (name, region) ->
      Alcotest.(check bool) (name ^ " non-empty") true (Ir.Region.size region > 0);
      (* the DDG builds and is schedulable *)
      let g = Ddg.Graph.build region in
      let s = Sched.List_scheduler.run g Sched.Heuristic.Critical_path in
      Alcotest.(check bool) (name ^ " schedulable") true (Tu.check_valid ~latency_aware:true s))
    (shapes_with_params rng)

let test_shapes_deterministic () =
  let r1 = Workload.Shapes.transform (Support.Rng.create 42) ~unroll:8 ~chain:3 in
  let r2 = Workload.Shapes.transform (Support.Rng.create 42) ~unroll:8 ~chain:3 in
  Alcotest.(check string) "same region from same seed" (Ir.Region.to_string r1)
    (Ir.Region.to_string r2)

let test_shapes_scale_with_params () =
  let rng () = Support.Rng.create 7 in
  Alcotest.(check bool) "reduction grows" true
    (Ir.Region.size (Workload.Shapes.reduction (rng ()) ~items:32)
    > Ir.Region.size (Workload.Shapes.reduction (rng ()) ~items:8));
  Alcotest.(check bool) "matmul grows with m" true
    (Ir.Region.size (Workload.Shapes.matmul_tile (rng ()) ~m:12 ~k:3)
    > Ir.Region.size (Workload.Shapes.matmul_tile (rng ()) ~m:4 ~k:3))

let test_wide_accum_pressure_floor () =
  (* All accumulators stay live through the rounds: the VGPR peak of any
     schedule is at least the accumulator count. *)
  let g =
    Ddg.Graph.build (Workload.Shapes.wide_accum (Support.Rng.create 4) ~accumulators:12 ~rounds:16)
  in
  List.iter
    (fun h ->
      let s = Sched.List_scheduler.run g h in
      Alcotest.(check bool)
        (Sched.Heuristic.to_string h ^ " respects the floor")
        true
        (Sched.Rp_tracker.naive_peaks g (Sched.Schedule.order s) Ir.Reg.Vgpr >= 12))
    Sched.Heuristic.all

let test_gather_has_pass2_gap () =
  (* The shape exists to create small regions with a meaningful gap
     between their input schedule and the dependence height, the bound
     the cycle-threshold filter measures. The tight length bound proves
     the same schedule optimal, so pass 2 never searches it. *)
  let region = Workload.Shapes.gather_compute (Support.Rng.create 9) ~lanes:10 ~chain:2 in
  let g = Ddg.Graph.build region in
  let rc = Engine.Region_ctx.of_graph Tu.occ g in
  let init =
    Engine.Region_ctx.pass2_initial rc ~best_pass1_order:rc.Engine.Region_ctx.pass1_initial_order
      ~rp_target:rc.Engine.Region_ctx.pass1_initial_rp
  in
  Alcotest.(check bool) "region is small" true (Ir.Region.size region < 50);
  Alcotest.(check bool) "gap exceeds the tuned threshold" true
    (Sched.Schedule.length init - rc.Engine.Region_ctx.height_lb
    >= Pipeline.Filters.default.Pipeline.Filters.cycle_threshold);
  Alcotest.(check int) "the tight bound closes it" rc.Engine.Region_ctx.length_lb
    (Sched.Schedule.length init)

let test_stencil_is_pressure_trap () =
  (* The property the generator exists for: the CP schedule has markedly
     higher VGPR pressure than the LUC schedule. *)
  let g = Ddg.Graph.build (Workload.Shapes.stencil (Support.Rng.create 3) ~outputs:16 ~radius:4) in
  let peak h =
    let s = Sched.List_scheduler.run g h in
    Sched.Rp_tracker.naive_peaks g (Sched.Schedule.order s) Ir.Reg.Vgpr
  in
  Alcotest.(check bool) "breadth-first blows pressure" true
    (peak Sched.Heuristic.Critical_path > peak Sched.Heuristic.Last_use_count)

let test_suite_generation () =
  let s = Workload.Suite.generate Workload.Suite.test_scale in
  let stats = Workload.Suite.stats s in
  Alcotest.(check int) "kernel count" Workload.Suite.test_scale.Workload.Suite.num_kernels
    stats.Workload.Suite.num_kernels;
  Alcotest.(check int) "benchmarks = kernels + extras"
    (Workload.Suite.test_scale.Workload.Suite.num_kernels
    + Workload.Suite.test_scale.Workload.Suite.extra_benchmarks)
    stats.Workload.Suite.num_benchmarks;
  Alcotest.(check bool) "regions exist" true (stats.Workload.Suite.num_regions > 0);
  Alcotest.(check bool) "avg below max" true
    (stats.Workload.Suite.avg_region_size <= float_of_int stats.Workload.Suite.max_region_size)

let test_suite_deterministic () =
  let s1 = Workload.Suite.generate Workload.Suite.test_scale in
  let s2 = Workload.Suite.generate Workload.Suite.test_scale in
  List.iter2
    (fun (k1 : Workload.Suite.kernel) (k2 : Workload.Suite.kernel) ->
      Alcotest.(check string) "kernel names" k1.Workload.Suite.kernel_name
        k2.Workload.Suite.kernel_name;
      List.iter2
        (fun r1 r2 ->
          Alcotest.(check string) "region text" (Ir.Region.to_string r1) (Ir.Region.to_string r2))
        k1.Workload.Suite.regions k2.Workload.Suite.regions)
    s1.Workload.Suite.kernels s2.Workload.Suite.kernels

let test_suite_benchmarks_reference_kernels () =
  let s = Workload.Suite.generate Workload.Suite.test_scale in
  List.iter
    (fun (b : Workload.Suite.benchmark) ->
      Alcotest.(check bool) "kernel in pool" true
        (List.exists
           (fun (k : Workload.Suite.kernel) ->
             String.equal k.Workload.Suite.kernel_name
               b.Workload.Suite.kernel.Workload.Suite.kernel_name)
           s.Workload.Suite.kernels);
      Alcotest.(check bool) "positive items" true (b.Workload.Suite.items > 0);
      Alcotest.(check bool) "mem ratio in range" true
        (b.Workload.Suite.kernel.Workload.Suite.mem_ratio >= 0.0
        && b.Workload.Suite.kernel.Workload.Suite.mem_ratio <= 1.0))
    s.Workload.Suite.benchmarks

let test_giant_region_included () =
  let scale = { Workload.Suite.test_scale with Workload.Suite.include_giant = true } in
  let s = Workload.Suite.generate scale in
  let stats = Workload.Suite.stats s in
  Alcotest.(check bool) "giant region present" true (stats.Workload.Suite.max_region_size > 300)

let test_hot_region_is_first () =
  let s = Workload.Suite.generate Workload.Suite.test_scale in
  List.iter
    (fun (k : Workload.Suite.kernel) ->
      Alcotest.(check bool) "hot index in range" true
        (k.Workload.Suite.hot_index >= 0
        && k.Workload.Suite.hot_index < List.length k.Workload.Suite.regions);
      let hot = List.nth k.Workload.Suite.regions k.Workload.Suite.hot_index in
      Alcotest.(check bool) "hot region non-trivial" true (Ir.Region.size hot > 3))
    s.Workload.Suite.kernels

let suite =
  [
    Alcotest.test_case "shapes build valid regions" `Quick test_shapes_build_valid_regions;
    Alcotest.test_case "shapes deterministic" `Quick test_shapes_deterministic;
    Alcotest.test_case "shapes scale" `Quick test_shapes_scale_with_params;
    Alcotest.test_case "stencil pressure trap" `Quick test_stencil_is_pressure_trap;
    Alcotest.test_case "wide-accum pressure floor" `Quick test_wide_accum_pressure_floor;
    Alcotest.test_case "gather pass-2 gap" `Quick test_gather_has_pass2_gap;
    Alcotest.test_case "suite generation" `Quick test_suite_generation;
    Alcotest.test_case "suite deterministic" `Quick test_suite_deterministic;
    Alcotest.test_case "benchmarks reference kernels" `Quick test_suite_benchmarks_reference_kernels;
    Alcotest.test_case "giant region" `Quick test_giant_region_included;
    Alcotest.test_case "hot region largest" `Quick test_hot_region_is_first;
  ]
