(* Fault drill: compile one region under an escalating fault storm and
   watch the degradation ledger step down — Clean while the colony
   absorbs quarantined lanes, Retried once whole iterations start
   failing, and Faulted_fallback when the retry allowance is exhausted
   and the driver ships its best-so-far (or the AMD heuristic).

   The schedule column demonstrates the driver's contract: every row,
   whatever the fault rate, emits a schedule that validates.

   Run with: dune exec examples/fault_drill.exe *)

let () =
  let rng = Support.Rng.create 7 in
  let region = Workload.Shapes.matmul_tile rng ~m:16 ~k:4 in
  let base = Pipeline.Compile.make_config () in
  Printf.printf "region: %d instructions\n\n" (Ir.Region.size region);
  Printf.printf "%-11s %-12s %8s %8s %-16s %s\n" "fault rate" "ledger" "retries" "faults"
    "cost (occ/len)" "valid";
  List.iter
    (fun rate ->
      let config =
        {
          base with
          Pipeline.Compile.gpu =
            Gpusim.Config.with_faults base.Pipeline.Compile.gpu
              (Gpusim.Config.uniform_faults rate);
          run_sequential = false;
        }
      in
      let r = Pipeline.Compile.run_region config ~name:"drill" region in
      let schedule_ok =
        (* Reconstruct the emitted order and re-validate it end to end. *)
        match Sched.Schedule.of_order (Ddg.Graph.build region) r.Pipeline.Compile.aco_order with
        | Ok _ -> "yes"
        | Error _ -> "NO"
      in
      Printf.printf "%-11.2f %-12s %8d %8d %-16s %s\n" rate
        (Pipeline.Robust.degradation_label r.Pipeline.Compile.degradation)
        r.Pipeline.Compile.retries
        (Engine.Types.fault_counts_total r.Pipeline.Compile.fault_counts)
        (Printf.sprintf "occ=%d len=%d"
           r.Pipeline.Compile.aco_cost.Sched.Cost.rp.Sched.Cost.occupancy
           r.Pipeline.Compile.aco_cost.Sched.Cost.length)
        schedule_ok)
    [ 0.0; 0.05; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]
