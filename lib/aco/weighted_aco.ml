type result = {
  schedule : Sched.Schedule.t;
  cost : Sched.Cost.t;
  heuristic_cost : Sched.Cost.t;
  iterations : int;
  work : int;
}

(* The single objective: schedule length plus the RP scalar of the
   peaks (whose occupancy term already dominates). *)
let scalar occ ~length ~vgpr ~sgpr = length + Sched.Cost.rp_scalar_of_peaks occ ~vgpr ~sgpr

type state = { colony : Colony.t; occ : Machine.Occupancy.t; graph : Ddg.Graph.t }

module Backend_impl = struct
  let name = "weighted"

  (* No RP pass: the weighted formulation folds RP into the single
     objective, so the engine goes straight to the schedule pass. *)
  let caps = { Engine.Types.rp_pass = false; time_model = false }

  (* Weighted-sum cost is an alternative cost formulation, not an RP
     objective the two-pass engine can thread: the engine never runs an
     RP pass for this backend, so the default (cliff) objective is
     declared and the weighting happens inside [run_schedule_pass]. *)
  let objective = None

  type nonrec state = state

  (* Unconstrained ants never insert optional stalls: without an RP
     target there is nothing to stall for. *)
  let prepare ctx rc =
    {
      colony =
        Colony.prepare ~policy:Pheromone_policy.As ~allow_optional_stalls:false ctx rc;
      occ = rc.Engine.Region_ctx.occ;
      graph = rc.Engine.Region_ctx.graph;
    }

  let run_order_pass _ (_ : Engine.Backend.order_request) =
    invalid_arg "Weighted_aco: the weighted backend has no RP pass"

  (* One weighted-sum pass. The RP target of the request is deliberately
     ignored: this formulation trades RP against length inside one
     objective instead of constraining it, which is exactly the design
     choice the paper measured and rejected (Section II-A). The reported
     [best_costs] series therefore carries weighted costs, not lengths. *)
  let run_schedule_pass st (req : Engine.Backend.schedule_request) =
    let initial_cost =
      let p =
        Sched.Rp_tracker.naive_peaks st.graph (Sched.Schedule.order req.Engine.Backend.s_initial)
      in
      scalar st.occ ~length:req.Engine.Backend.s_initial_length ~vgpr:(p Ir.Reg.Vgpr)
        ~sgpr:(p Ir.Reg.Sgpr)
    in
    let lb_cost =
      scalar st.occ ~length:req.Engine.Backend.s_length_lb
        ~vgpr:(Ddg.Lower_bounds.register_pressure st.graph Ir.Reg.Vgpr)
        ~sgpr:(Ddg.Lower_bounds.register_pressure st.graph Ir.Reg.Sgpr)
    in
    let schedule, _, stats =
      Colony.run_pass st.colony
        ~mode:
          (Ant.Ilp_pass
             {
               target_vgpr = Sched.Objective.no_target;
               target_sgpr = Sched.Objective.no_target;
             })
        ~cost:(fun ~length ~vgpr ~sgpr -> scalar st.occ ~length ~vgpr ~sgpr)
        ~artifact_of_ant:(fun ant ->
          match Ant.schedule ant with
          | Some s -> s
          | None -> invalid_arg "Weighted_aco: finished ant produced invalid schedule")
        ~budget_work:(Colony.work_of_budget req.Engine.Backend.s_budget)
        ~pass_label:req.Engine.Backend.s_label ~initial_cost
        ~initial_order:(Sched.Schedule.order req.Engine.Backend.s_initial)
        ~initial_artifact:req.Engine.Backend.s_initial ~lb_cost
    in
    (schedule, stats)

  let teardown st = Colony.teardown st.colony
end

let backend : Engine.Backend.t = (module Backend_impl)
let register () = Engine.Registry.register backend

(* The standalone search starts from the AMD schedule itself, not from
   the engine's pass-2 seed (the better of the AMD and Last-Use-Count
   orders, latency-padded), so it runs the backend's schedule pass
   directly instead of going through [Engine.Two_pass]. *)
let run ?(params = Engine.Params.default) ?(seed = 1) occ graph =
  let rc = Engine.Region_ctx.of_graph occ graph in
  let amd = rc.Engine.Region_ctx.amd_schedule in
  let st = Backend_impl.prepare { Engine.Backend.null_ctx with Engine.Backend.params; seed } rc in
  let schedule, stats =
    Fun.protect ~finally:(fun () -> Backend_impl.teardown st) @@ fun () ->
    Backend_impl.run_schedule_pass st
      {
        Engine.Backend.s_label = "";
        s_budget = Engine.Types.Unlimited;
        s_target_vgpr = Sched.Objective.no_target;
        s_target_sgpr = Sched.Objective.no_target;
        s_initial = amd;
        s_initial_length = Sched.Schedule.length amd;
        s_length_lb = rc.Engine.Region_ctx.length_lb;
      }
  in
  {
    schedule;
    cost = Sched.Cost.of_schedule ~layout:rc.Engine.Region_ctx.rp_layout occ schedule;
    heuristic_cost = rc.Engine.Region_ctx.amd_cost;
    iterations = stats.Engine.Types.iterations;
    work = stats.Engine.Types.work;
  }
