type result = {
  schedule : Sched.Schedule.t;
  cost : Sched.Cost.t;
  heuristic_cost : Sched.Cost.t;
  iterations : int;
  work : int;
}

let backend : Engine.Backend.t =
  Seq_aco.make_backend ~name:"weighted" ~policy:Pheromone_policy.As
    ~objective:Sched.Objective.Weighted ()

let register () = Engine.Registry.register backend

(* The standalone search starts from the AMD schedule itself, not from
   the engine's pass-2 seed (the better of the AMD and Last-Use-Count
   orders, latency-padded), so it runs the backend's schedule pass
   directly instead of going through [Engine.Two_pass]. *)
let run ?(params = Engine.Params.default) ?(seed = 1) occ graph =
  let module B = (val backend : Engine.Backend.S) in
  let rc = Engine.Region_ctx.of_graph occ graph in
  let amd = rc.Engine.Region_ctx.amd_schedule in
  let st = B.prepare { Engine.Backend.null_ctx with Engine.Backend.params; seed } rc in
  let schedule, stats =
    Fun.protect ~finally:(fun () -> B.teardown st) @@ fun () ->
    B.run_schedule_pass st
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
