(* One lockstep step folded as the wavefront folds its lanes: each lane
   is [(rank, scanned, succs)] — its [Aco.Ant.last_rank] and step
   counters — and raises its path's entry of the 5-entry maxima to its
   compute cost. *)
let maxima_of lanes =
  let maxima = Array.make 5 0 in
  List.iter
    (fun (rank, scanned, succs) ->
      let cost = Gpusim.Divergence.cost_of ~ready_scanned:scanned ~succs_updated:succs in
      if cost > maxima.(rank) then maxima.(rank) <- cost)
    lanes;
  maxima

let paths maxima = Array.fold_left (fun acc m -> if m > 0 then acc + 1 else acc) 0 maxima

let test_divergence_single_path () =
  let m = maxima_of [ (0, 5, 2); (0, 3, 1) ] in
  Alcotest.(check int) "one path" 1 (paths m);
  Alcotest.(check int) "cost = max lane" 10 (Gpusim.Divergence.serialized_of_maxima m);
  Alcotest.(check int) "floor = same" 10 (Gpusim.Divergence.max_single_of_maxima m)

let test_divergence_two_paths () =
  let m = maxima_of [ (0, 5, 2); (1, 3, 1); (2, 0, 0) ] in
  Alcotest.(check int) "three paths" 3 (paths m);
  (* 10 + 7 + 3 *)
  Alcotest.(check int) "serialized sums maxima" 20 (Gpusim.Divergence.serialized_of_maxima m);
  Alcotest.(check int) "floor is overall max" 10 (Gpusim.Divergence.max_single_of_maxima m)

let test_divergence_empty () =
  Alcotest.(check int) "zero" 0 (Gpusim.Divergence.serialized_of_maxima (maxima_of []))

let prop_divergence_dominates =
  QCheck.Test.make ~name:"serialized >= single-path floor" ~count:200
    QCheck.(small_list (pair (int_bound 4) (pair (int_bound 30) (int_bound 10))))
    (fun raw ->
      let m =
        maxima_of (List.map (fun (rank, (scanned, succs)) -> (rank, scanned, succs)) raw)
      in
      Gpusim.Divergence.serialized_of_maxima m >= Gpusim.Divergence.max_single_of_maxima m)

(* [Mem_model.step_transactions] over a list of per-lane access counts,
   accumulated as the wavefront accumulates them. *)
let transactions config reads =
  Gpusim.Mem_model.step_transactions config ~active:(List.length reads)
    ~reads_max:(List.fold_left max 0 reads) ~reads_sum:(List.fold_left ( + ) 0 reads)

let test_mem_coalescing () =
  let coalesced = Tu.test_gpu in
  let uncoalesced =
    Gpusim.Config.with_opts Tu.test_gpu Gpusim.Config.opts_no_memory
  in
  let reads = [ 4; 7; 2; 7 ] in
  Alcotest.(check int) "coalesced = max" 7 (transactions coalesced reads);
  Alcotest.(check int) "uncoalesced = sum" 20 (transactions uncoalesced reads);
  Alcotest.(check int) "empty wavefront" 0 (transactions coalesced [])

let prop_coalescing_never_worse =
  QCheck.Test.make ~name:"coalesced transactions <= uncoalesced" ~count:200
    QCheck.(small_list (int_bound 50))
    (fun reads ->
      transactions Tu.test_gpu reads
      <= transactions (Gpusim.Config.with_opts Tu.test_gpu Gpusim.Config.opts_no_memory) reads)

let test_mem_sizing () =
  let tight = Gpusim.Mem_model.words_per_thread Tu.test_gpu ~n:100 ~ready_ub:10 in
  let loose =
    Gpusim.Mem_model.words_per_thread
      (Gpusim.Config.with_opts Tu.test_gpu Gpusim.Config.opts_no_memory)
      ~n:100 ~ready_ub:10
  in
  Alcotest.(check bool) "tight bound shrinks arrays" true (tight < loose);
  let batched = Gpusim.Mem_model.setup_time_ns Tu.test_gpu ~n:100 ~ready_ub:10 in
  let unbatched =
    Gpusim.Mem_model.setup_time_ns
      (Gpusim.Config.with_opts Tu.test_gpu Gpusim.Config.opts_no_memory)
      ~n:100 ~ready_ub:10
  in
  Alcotest.(check bool) "batched setup cheaper" true (batched < unbatched)

let min_reduce costs =
  Gpusim.Reduction.min_reduce costs ~scratch:(Array.make (Array.length costs) 0)

let test_reduction_matches_fold () =
  Alcotest.(check int) "min with lowest index on ties" 1 (min_reduce [| 5; 3; 9; 3 |])

let prop_reduction_correct =
  QCheck.Test.make ~name:"tree reduction = sequential min" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) int)
    (fun xs ->
      let costs = Array.of_list xs in
      let seq = ref 0 in
      Array.iteri (fun i c -> if c < costs.(!seq) then seq := i) costs;
      min_reduce costs = !seq)

let test_reduction_empty () =
  Alcotest.check_raises "empty reduction" (Invalid_argument "Reduction.min_reduce: empty")
    (fun () -> ignore (min_reduce [||]))

let test_kernel_sim_construction_time () =
  let config = Tu.test_gpu in
  (* Fewer wavefronts than SIMDs: wall = max. *)
  Alcotest.(check (float 1e-9)) "max rule" 7.0
    (Gpusim.Kernel_sim.construction_time_ns config ~wavefront_times:[| 3.0; 7.0 |]);
  (* More wavefronts than SIMDs: same SIMD accumulates. *)
  let simds = Machine.Target.total_simds config.Gpusim.Config.target in
  let times = Array.make (simds + 1) 1.0 in
  Alcotest.(check (float 1e-9)) "round-robin accumulation" 2.0
    (Gpusim.Kernel_sim.construction_time_ns config ~wavefront_times:times)

let test_kernel_sim_pass_time_includes_overheads () =
  let config = Tu.test_gpu in
  let t = Gpusim.Kernel_sim.pass_time_ns config ~n:50 ~ready_ub:10 ~iterations_ns:1000.0 in
  Alcotest.(check bool) "launch overhead dominates small kernels" true
    (t > config.Gpusim.Config.launch_overhead_ns)

let run_wavefront ?(opts = Gpusim.Config.opts_paper) mode g =
  let config = Gpusim.Config.with_opts Tu.test_gpu opts in
  let w =
    Gpusim.Wavefront.create config (Tu.shared_of_graph g) Tu.test_params
      ~heuristic:Sched.Heuristic.Critical_path ~allow_optional_stalls:true
  in
  let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
  Gpusim.Wavefront.run_iteration w ~rng:(Support.Rng.create 3) ~mode ~pheromone ~start_ns:0.0

let test_wavefront_pass1_all_finish () =
  let g = Ddg.Graph.build (Tu.random_region 9) in
  let o = run_wavefront Aco.Ant.Rp_pass g in
  Alcotest.(check int) "all lanes finish in pass 1" 64
    (List.length o.Gpusim.Wavefront.finished);
  Alcotest.(check int) "pass-1 lockstep steps = n" g.Ddg.Graph.n o.Gpusim.Wavefront.steps;
  Alcotest.(check bool) "time positive" true (o.Gpusim.Wavefront.time_ns > 0.0);
  Alcotest.(check bool) "divergence floor" true
    (o.Gpusim.Wavefront.serialized_ops >= o.Gpusim.Wavefront.single_path_ops);
  List.iter
    (fun ant ->
      match Aco.Ant.schedule ant with
      | Some s ->
          Alcotest.(check bool) "lane schedule valid" true
            (Result.is_ok (Sched.Schedule.validate s ~latency_aware:false))
      | None -> Alcotest.fail "finished lane without schedule")
    o.Gpusim.Wavefront.finished

let test_wavefront_early_termination () =
  let g = Ddg.Graph.build (Tu.random_region 21) in
  let on = run_wavefront ~opts:Gpusim.Config.opts_paper (Aco.Ant.Ilp_pass { target_vgpr = 1000; target_sgpr = 1000 }) g in
  let off =
    run_wavefront ~opts:Gpusim.Config.opts_no_divergence
      (Aco.Ant.Ilp_pass { target_vgpr = 1000; target_sgpr = 1000 })
      g
  in
  Alcotest.(check bool) "early termination keeps only first finishers" true
    (List.length on.Gpusim.Wavefront.finished <= List.length off.Gpusim.Wavefront.finished);
  Alcotest.(check bool) "some lane finishes either way" true
    (on.Gpusim.Wavefront.finished <> [] && off.Gpusim.Wavefront.finished <> [])

let par_run ?(config = Tu.test_gpu) seed g =
  let params =
    { Tu.test_params with Engine.Params.ants_per_iteration = Gpusim.Config.threads config }
  in
  Gpusim.Par_aco.run ~params ~seed config Tu.occ g

let prop_par_aco_valid =
  QCheck.Test.make ~name:"parallel ACO emits valid schedules" ~count:15
    (Tu.arb_graph ~max_size:20 ()) (fun g ->
      let r = par_run 7 g in
      Result.is_ok (Sched.Schedule.validate r.Engine.Types.schedule ~latency_aware:true))

let prop_par_aco_never_worse_rp =
  QCheck.Test.make ~name:"parallel ACO RP never worse than heuristic" ~count:15
    (Tu.arb_graph ~max_size:20 ()) (fun g ->
      let r = par_run 8 g in
      Sched.Cost.compare_rp r.Engine.Types.cost.Sched.Cost.rp
        r.Engine.Types.heuristic_cost.Sched.Cost.rp
      <= 0)

let test_par_aco_times_positive () =
  let g = Ddg.Graph.build (Workload.Shapes.reduction (Support.Rng.create 3) ~items:16) in
  let r = par_run 9 g in
  Alcotest.(check bool) "pass 2 searched" true r.Engine.Types.pass2.Engine.Types.invoked;
  Alcotest.(check bool) "gpu time positive" true
    (r.Engine.Types.pass2.Engine.Types.time_ns > 0.0);
  Alcotest.(check bool) "work positive" true (r.Engine.Types.pass2.Engine.Types.work > 0);
  Alcotest.(check bool) "total time includes overhead when invoked" true
    (Gpusim.Par_aco.total_time_ns r >= 0.0)

let test_par_aco_deterministic () =
  let g = Ddg.Graph.build (Tu.random_region 154) in
  let r1 = par_run 11 g and r2 = par_run 11 g in
  Alcotest.(check bool) "pass 2 searched" true r1.Engine.Types.pass2.Engine.Types.invoked;
  Alcotest.(check int) "same length" r1.Engine.Types.cost.Sched.Cost.length
    r2.Engine.Types.cost.Sched.Cost.length;
  Alcotest.(check (float 1e-6)) "same simulated time"
    (Gpusim.Par_aco.total_time_ns r1) (Gpusim.Par_aco.total_time_ns r2)

let test_memory_opts_speed_up () =
  let g = Ddg.Graph.build (Workload.Shapes.matmul_tile (Support.Rng.create 4) ~m:5 ~k:4) in
  let fast = par_run ~config:Tu.test_gpu 13 g in
  let slow =
    par_run ~config:(Gpusim.Config.with_opts Tu.test_gpu Gpusim.Config.opts_no_memory) 13 g
  in
  Alcotest.(check bool) "coalesced build is faster" true
    (Gpusim.Par_aco.total_time_ns fast < Gpusim.Par_aco.total_time_ns slow)

let test_cpu_model () =
  let t = Gpusim.Cpu_model.pass_time_ns Tu.test_gpu ~work:1000 in
  Alcotest.(check (float 1e-9)) "work x ns/op"
    (1000.0 *. Tu.test_gpu.Gpusim.Config.cpu_ns_per_op) t;
  Alcotest.(check (float 1e-12)) "seconds" 1e-3 (Gpusim.Cpu_model.seconds 1e6)

let test_config_threads () =
  Alcotest.(check int) "threads = wavefronts x 64" (2 * 64) (Gpusim.Config.threads Tu.test_gpu);
  Alcotest.(check int) "paper geometry" (180 * 64) (Gpusim.Config.threads Gpusim.Config.default)

(* Installing fault rates changes the rates only: a config keeps its own
   fault seed unless one is given. *)
let test_with_faults_keeps_seed () =
  let seeded = { Tu.test_gpu with Gpusim.Config.fault_seed = 5 } in
  let rates = Gpusim.Config.uniform_faults 0.3 in
  Alcotest.(check int) "the config's own seed" 5
    (Gpusim.Config.with_faults seeded rates).Gpusim.Config.fault_seed;
  Alcotest.(check int) "a given seed replaces it" 7
    (Gpusim.Config.with_faults ~seed:7 seeded rates).Gpusim.Config.fault_seed

let suite =
  [
    Alcotest.test_case "divergence single path" `Quick test_divergence_single_path;
    Alcotest.test_case "divergence two paths" `Quick test_divergence_two_paths;
    Alcotest.test_case "divergence empty" `Quick test_divergence_empty;
    Alcotest.test_case "memory coalescing rule" `Quick test_mem_coalescing;
    Alcotest.test_case "memory sizing" `Quick test_mem_sizing;
    Alcotest.test_case "reduction matches fold" `Quick test_reduction_matches_fold;
    Alcotest.test_case "reduction empty" `Quick test_reduction_empty;
    Alcotest.test_case "kernel construction time" `Quick test_kernel_sim_construction_time;
    Alcotest.test_case "kernel pass overheads" `Quick test_kernel_sim_pass_time_includes_overheads;
    Alcotest.test_case "wavefront pass-1 lockstep" `Quick test_wavefront_pass1_all_finish;
    Alcotest.test_case "wavefront early termination" `Quick test_wavefront_early_termination;
    Alcotest.test_case "par aco times" `Quick test_par_aco_times_positive;
    Alcotest.test_case "par aco deterministic" `Quick test_par_aco_deterministic;
    Alcotest.test_case "memory opts speed up" `Quick test_memory_opts_speed_up;
    Alcotest.test_case "cpu model" `Quick test_cpu_model;
    Alcotest.test_case "config threads" `Quick test_config_threads;
  ]
  @ Tu.qtests
      [
        prop_divergence_dominates;
        prop_coalescing_never_worse;
        prop_reduction_correct;
        prop_par_aco_valid;
        prop_par_aco_never_worse_rp;
      ]
  @ [ Alcotest.test_case "with_faults keeps the config's own seed" `Quick test_with_faults_keeps_seed ]
