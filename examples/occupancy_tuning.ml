(* Occupancy tuning: the paper's headline scenario. A register-hungry
   tiled kernel where the greedy max-occupancy heuristic strands
   occupancy below what a global search achieves, and where the
   post-scheduling filter protects against ACO's length blow-ups.

   Run with: dune exec examples/occupancy_tuning.exe *)

let describe tag (cost : Sched.Cost.t) =
  Printf.printf "  %-14s occupancy %2d waves/SIMD, APRP %3d VGPRs, %4d cycles\n" tag
    cost.Sched.Cost.rp.Sched.Cost.occupancy cost.Sched.Cost.rp.Sched.Cost.aprp_vgpr
    cost.Sched.Cost.length

let () =
  let occ = Machine.Occupancy.default in
  let rng = Support.Rng.create 5 in
  List.iter
    (fun (name, region) ->
      let graph = Ddg.Graph.build region in
      Printf.printf "%s (%d instructions)\n" name (Ir.Region.size region);
      let amd_cost = Sched.Cost.of_schedule occ (Sched.List_scheduler.amd occ graph) in
      describe "AMD baseline" amd_cost;
      let r = Aco.Seq_aco.run ~seed:7 occ graph in
      describe "two-pass ACO" r.Engine.Types.cost;
      let filters = Pipeline.Filters.default in
      (match Pipeline.Filters.post_schedule filters ~heuristic:amd_cost ~aco:r.Engine.Types.cost with
      | Pipeline.Filters.Keep_aco ->
          print_endline "  post-scheduling filter: ACO schedule shipped"
      | Pipeline.Filters.Revert_to_heuristic ->
          print_endline
            "  post-scheduling filter: reverted to the heuristic (occupancy gain not worth the cycles)");
      print_newline ())
    [
      ("stencil 20x4 (shared-load web)", Workload.Shapes.stencil (Support.Rng.split rng) ~outputs:20 ~radius:4);
      ("gemm tile m=20 k=4 (persistent accumulators)", Workload.Shapes.matmul_tile (Support.Rng.split rng) ~m:20 ~k:4);
      ("gemm tile m=26 k=3 (very tight registers)", Workload.Shapes.matmul_tile (Support.Rng.split rng) ~m:26 ~k:3);
    ]
