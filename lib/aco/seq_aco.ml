type term = vgpr:int -> sgpr:int -> int

type state = {
  colony : Colony.t;
  objective : Sched.Objective.t;
  rc : Engine.Region_ctx.t;
  rp_term : term;  (* pass 1's cost: the objective's RP scalar of the peaks *)
  pass2_term : term;  (* what pass 2 adds to the length *)
}

let prepare ~policy ~objective ctx (rc : Engine.Region_ctx.t) =
  let occ = rc.Engine.Region_ctx.occ in
  {
    colony = Colony.prepare ~policy ~allow_optional_stalls:true ctx rc;
    objective;
    rc;
    rp_term = (fun ~vgpr ~sgpr -> Sched.Objective.rp_scalar_of_peaks objective occ ~vgpr ~sgpr);
    pass2_term = (fun ~vgpr ~sgpr -> Sched.Objective.pass2_term objective occ ~vgpr ~sgpr);
  }

let run_order_pass st (req : Engine.Backend.order_request) =
  let order, _, stats =
    Colony.run_pass st.colony.Colony.search
      ~iteration:
        (Colony.sequential st.colony ~mode:Ant.Rp_pass ~term:st.rp_term
           ~budget:req.Engine.Backend.o_budget)
      ~ties:Colony.Keep
      ~artifact_of_ant:(fun ant -> Some (Ant.order ant))
      ~pass_label:req.Engine.Backend.o_label
      ~initial_cost:req.Engine.Backend.o_initial_cost
      ~initial_order:req.Engine.Backend.o_initial_order
      ~initial_artifact:req.Engine.Backend.o_initial_order
      ~lb_cost:req.Engine.Backend.o_lb_cost
  in
  (order, stats)

(* The initial schedule and the bound are costed like the ants: length
   plus the objective's term, at the initial order's peaks and at the
   region's RP lower bounds. *)
let run_schedule_pass st (req : Engine.Backend.schedule_request) =
  let rc = st.rc in
  let occ = rc.Engine.Region_ctx.occ and graph = rc.Engine.Region_ctx.graph in
  let initial_order = Sched.Schedule.order req.Engine.Backend.s_initial in
  let schedule, _, stats =
    Colony.run_pass st.colony.Colony.search
      ~iteration:
        (Colony.sequential st.colony
           ~mode:
             (Ant.Ilp_pass
                {
                  target_vgpr = req.Engine.Backend.s_target_vgpr;
                  target_sgpr = req.Engine.Backend.s_target_sgpr;
                })
           ~term:st.pass2_term ~budget:req.Engine.Backend.s_budget)
      ~ties:Colony.Keep ~artifact_of_ant:Ant.schedule
      ~pass_label:req.Engine.Backend.s_label
      ~initial_cost:
        (req.Engine.Backend.s_initial_length
        + Sched.Objective.pass2_term_of_order st.objective
            ~layout:rc.Engine.Region_ctx.rp_layout occ graph initial_order)
      ~initial_order ~initial_artifact:req.Engine.Backend.s_initial
      ~lb_cost:
        (req.Engine.Backend.s_length_lb + Sched.Objective.pass2_term_lb st.objective occ graph)
  in
  (schedule, stats)

let make_backend ~name:backend_name ~policy ?objective () : Engine.Backend.t =
  let obj = Option.value objective ~default:Sched.Objective.Cliff in
  (module struct
    let name = backend_name
    let caps = { Engine.Types.rp_pass = Sched.Objective.rp_pass obj; time_model = false }

    let objective = objective

    type nonrec state = state

    let prepare ctx rc = prepare ~policy ~objective:obj ctx rc
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
