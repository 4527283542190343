type cost = length:int -> vgpr:int -> sgpr:int -> int

type state = {
  colony : Colony.t;
  rp_cost : cost;  (* the objective's RP scalar of the peaks *)
  pass2_cost : cost;
      (* schedule length, plus the priced spill traffic of the peaks
         under a spill objective *)
  pass2_extra_of_initial : Sched.Schedule.t -> int;
      (* same spill term for the pass-2 initial schedule, so initial and
         ant costs stay comparable (always 0 under the cliff) *)
}

let prepare ~policy ~(objective : Sched.Objective.t option) ctx (rc : Engine.Region_ctx.t) =
  let graph = rc.Engine.Region_ctx.graph in
  let occ = rc.Engine.Region_ctx.occ in
  let colony = Colony.prepare ~policy ~allow_optional_stalls:true ctx rc in
  let obj = match objective with Some o -> o | None -> Sched.Objective.Cliff in
  let rp_cost ~length:_ ~vgpr ~sgpr = Sched.Objective.rp_scalar_of_peaks obj occ ~vgpr ~sgpr in
  let pass2_cost, pass2_extra_of_initial =
    match obj with
    | Sched.Objective.Cliff -> ((fun ~length ~vgpr:_ ~sgpr:_ -> length), fun _ -> 0)
    | Sched.Objective.Spill m ->
        ( (fun ~length ~vgpr ~sgpr -> length + Sched.Objective.spill_cycles obj ~vgpr ~sgpr),
          fun schedule ->
            let tracker =
              Sched.Rp_tracker.create ~layout:rc.Engine.Region_ctx.rp_layout graph
            in
            Array.iter
              (fun i -> Sched.Rp_tracker.schedule tracker i)
              (Sched.Schedule.order schedule);
            let ev, es =
              Sched.Rp_tracker.peak_excess tracker ~target_vgpr:m.Sched.Objective.allow_vgpr
                ~target_sgpr:m.Sched.Objective.allow_sgpr
            in
            (ev * m.Sched.Objective.vgpr_spill_cycles)
            + (es * m.Sched.Objective.sgpr_spill_cycles) )
  in
  { colony; rp_cost; pass2_cost; pass2_extra_of_initial }

let run_order_pass st (req : Engine.Backend.order_request) =
  let order, _, stats =
    Colony.run_pass st.colony ~mode:Ant.Rp_pass ~cost:st.rp_cost
      ~artifact_of_ant:Ant.order
      ~budget_work:(Colony.work_of_budget req.Engine.Backend.o_budget)
      ~pass_label:req.Engine.Backend.o_label
      ~initial_cost:req.Engine.Backend.o_initial_cost
      ~initial_order:req.Engine.Backend.o_initial_order
      ~initial_artifact:req.Engine.Backend.o_initial_order
      ~lb_cost:req.Engine.Backend.o_lb_cost
  in
  (order, stats)

let run_schedule_pass st (req : Engine.Backend.schedule_request) =
  let schedule, _, stats =
    Colony.run_pass st.colony
      ~mode:
        (Ant.Ilp_pass
           {
             target_vgpr = req.Engine.Backend.s_target_vgpr;
             target_sgpr = req.Engine.Backend.s_target_sgpr;
           })
      ~cost:st.pass2_cost
      ~artifact_of_ant:(fun ant ->
        match Ant.schedule ant with
        | Some s -> s
        | None -> invalid_arg "Seq_aco: finished ant produced invalid schedule")
      ~budget_work:(Colony.work_of_budget req.Engine.Backend.s_budget)
      ~pass_label:req.Engine.Backend.s_label
      ~initial_cost:
        (req.Engine.Backend.s_initial_length
        + st.pass2_extra_of_initial req.Engine.Backend.s_initial)
      ~initial_order:(Sched.Schedule.order req.Engine.Backend.s_initial)
      ~initial_artifact:req.Engine.Backend.s_initial
      ~lb_cost:req.Engine.Backend.s_length_lb
  in
  (schedule, stats)

let make_backend ~name:backend_name ~policy ?objective () : Engine.Backend.t =
  (module struct
    let name = backend_name
    let caps = { Engine.Types.rp_pass = true; time_model = false }

    let objective = objective

    type nonrec state = state

    let prepare ctx rc = prepare ~policy ~objective ctx rc
    let run_order_pass = run_order_pass
    let run_schedule_pass = run_schedule_pass
    let teardown st = Colony.teardown st.colony
  end : Engine.Backend.S)

let backend : Engine.Backend.t = make_backend ~name:"seq" ~policy:Pheromone_policy.As ()
let mmas_backend : Engine.Backend.t = make_backend ~name:"mmas" ~policy:Pheromone_policy.Mmas ()

let mmas_spill_backend spill_model : Engine.Backend.t =
  make_backend ~name:"mmas-spill" ~policy:Pheromone_policy.Mmas
    ~objective:(Sched.Objective.Spill spill_model) ()

let register () = Engine.Registry.register backend

let run ?(params = Engine.Params.default) ?(seed = 1) occ graph =
  Engine.Two_pass.run backend
    { Engine.Backend.null_ctx with Engine.Backend.params; seed }
    (Engine.Region_ctx.of_graph occ graph)
