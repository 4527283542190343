(* Divergence lab: run the parallel ACO scheduler on the simulated GPU
   under different Section V optimization settings and compare the
   simulated scheduling times.

   Run with: dune exec examples/divergence_lab.exe *)

let run name opts occ graph params =
  let config = Gpusim.Config.with_opts { Gpusim.Config.bench with num_wavefronts = 4 } opts in
  let r = Gpusim.Par_aco.run ~params ~seed:11 config occ graph in
  let p2 = r.Engine.Types.pass2 in
  Printf.printf "  %-28s %8.2f ms total  (pass 2: %d iterations, divergence overhead %+.0f%%)\n"
    name
    (Gpusim.Par_aco.total_time_ns r /. 1e6)
    p2.Engine.Types.iterations
    (if p2.Engine.Types.single_path_ops > 0 then
       float_of_int (p2.Engine.Types.serialized_ops - p2.Engine.Types.single_path_ops)
       /. float_of_int p2.Engine.Types.single_path_ops *. 100.0
     else 0.0)

let () =
  let occ = Machine.Occupancy.default in
  (* A reduction whose pass-2 input starts above the length lower bound,
     so the search runs (an unrolled transform already meets it). *)
  let region = Workload.Shapes.reduction (Support.Rng.create 8) ~items:48 in
  Printf.printf "region: %d instructions (reduction)\n" (Ir.Region.size region);
  let graph = Ddg.Graph.build region in
  let params =
    { Engine.Params.default with Engine.Params.ants_per_iteration = 4 * 64 }
  in
  print_endline "configurations:";
  run "all optimizations (paper)" Gpusim.Config.opts_paper occ graph params;
  run "no memory optimizations" Gpusim.Config.opts_no_memory occ graph params;
  run "no divergence optimizations" Gpusim.Config.opts_no_divergence occ graph params;
  run "only 75% stall wavefronts"
    { Gpusim.Config.opts_paper with Gpusim.Config.optional_stall_fraction = 0.75 }
    occ graph params;
  print_newline ();
  print_endline
    "The memory layout dominates (Table 4.a of the paper); the divergence";
  print_endline
    "optimizations matter most in pass 2 where schedule lengths differ (Table 4.b)."
