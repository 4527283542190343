(* The orchestrator both historical drivers contained a private copy of:
   pass-1/pass-2 sequencing, lower-bound gating, the RP-target handoff
   and budget threading, now written once against the backend interface.

   Byte-identity note: everything here runs outside the iteration
   loop's measured minor-words window, and no randomness is drawn, so
   routing a driver through this module leaves its schedules, RNG
   streams and reported stats exactly as before. *)

let run (backend : Backend.t) (ctx : Backend.ctx) (rc : Region_ctx.t) : Types.result =
  let module B = (val backend : Backend.S) in
  (* Lazy prepare: the backend's working set is built on the first pass
     that runs, so a region both gates skip (the initial order already
     at the RP bound, the padded schedule at the length bound)
     never pays for a colony it would not use. Nothing before the first
     pass draws randomness, so deferring [prepare] leaves every RNG
     stream where it was. *)
  let state = lazy (B.prepare ctx rc) in
  Fun.protect ~finally:(fun () -> if Lazy.is_val state then B.teardown (Lazy.force state))
  @@ fun () ->
  (* The RP term of the objective is the backend's choice; the default
     ([None]) is the paper's occupancy cliff, under which every formula
     below is byte-identical to the historical drivers. *)
  let objective =
    match B.objective with Some o -> o | None -> Sched.Objective.Cliff
  in
  (* Pass 1: minimize RP, latencies ignored. Skipped when the initial
     order already meets the RP bound, or when the backend has no RP
     pass (single-pass cost formulations go straight to pass 2). The RP
     target is the winning order's RP; when pass 1 did not run that is
     the initial order's, which the context already holds. *)
  let best_order, pass1, rp_target =
    if rc.Region_ctx.pass1_needed && B.caps.Types.rp_pass then
      let order, stats =
        B.run_order_pass (Lazy.force state)
          {
            Backend.o_label = ctx.Backend.label ^ "pass1";
            o_budget = ctx.Backend.budget;
            o_initial_cost = Sched.Objective.rp_scalar objective rc.Region_ctx.pass1_initial_rp;
            o_initial_order = rc.Region_ctx.pass1_initial_order;
            o_lb_cost = Sched.Objective.rp_scalar objective rc.Region_ctx.rp_lb;
          }
      in
      ( order,
        stats,
        Region_ctx.rp_of_order ~layout:rc.Region_ctx.rp_layout rc.Region_ctx.occ
          rc.Region_ctx.graph order )
    else (rc.Region_ctx.pass1_initial_order, Types.no_pass, rc.Region_ctx.pass1_initial_rp)
  in
  let target_vgpr, target_sgpr = Sched.Objective.breach_targets objective rp_target in
  (* Pass 2: minimize length under the pass-1 RP target, from the padded
     pass-1 winner, on whatever budget pass 1 left unspent. Skipped when
     that schedule already meets the length bound: it is optimal. *)
  let initial_schedule = Region_ctx.pass2_initial rc ~best_pass1_order:best_order ~rp_target in
  let initial_length = Sched.Schedule.length initial_schedule in
  let budget2 = Types.budget_minus ctx.Backend.budget pass1 in
  let schedule, pass2 =
    if initial_length > rc.Region_ctx.length_lb then
      B.run_schedule_pass (Lazy.force state)
        {
          Backend.s_label = ctx.Backend.label ^ "pass2";
          s_budget = budget2;
          s_target_vgpr = target_vgpr;
          s_target_sgpr = target_sgpr;
          s_initial = initial_schedule;
          s_initial_length = initial_length;
          s_length_lb = rc.Region_ctx.length_lb;
        }
    else (initial_schedule, Types.no_pass)
  in
  {
    Types.schedule;
    cost = Sched.Cost.of_schedule ~layout:rc.Region_ctx.rp_layout rc.Region_ctx.occ schedule;
    heuristic_schedule = rc.Region_ctx.amd_schedule;
    heuristic_cost = rc.Region_ctx.amd_cost;
    rp_target;
    pass2_initial = initial_schedule;
    pass1;
    pass2;
  }
