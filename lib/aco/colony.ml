(* The sequential colony shared by every CPU backend (the two-pass
   [Seq_aco] and the weighted-sum [Weighted_aco]): one constructor and
   one pass loop. The loop iterates ants until the lower bound is reached
   or [termination] improvement-free iterations pass, generic in the cost
   and in the artifact kept for the best solution.

   Within an iteration the loop stops an ant once a lower bound on its
   final cost reaches the best cost an earlier ant of the same iteration
   finished with: such an ant can no longer win the iteration (a winner
   must be strictly cheaper), and the policy only ever sees the winner.
   Each ant draws only from its own [Rng.split] stream, so the cut
   changes no draw of any other ant.

   The loop body is the byte-identity anchor of the engine: RNG draws,
   winners and the measured minor-words window must match the frozen
   reference loop the test differentials compare against (the [As]
   policy reproduces its pheromone calls), which runs every ant to the
   end; only [work] and the candidate meters may fall. The colony's
   fields are therefore bound to locals on entry, before the
   minor-words snapshot, so the per-iteration closure captures locals,
   never the colony record, and captures as many of them as the frozen
   loop's does. *)

type t = {
  params : Engine.Params.t;
  rng : Support.Rng.t;
  ants : Ant.t array;
  arena : Support.Arena.t;
  fmat : Support.Fmat.t;
  pheromone : Pheromone.t;
  policy : Pheromone_policy.t;
  termination : int;
  allow_optional_stalls : bool;
  metrics : Obs.Metrics.t;
}

let prepare ~policy:policy_spec ~allow_optional_stalls (ctx : Engine.Backend.ctx)
    (rc : Engine.Region_ctx.t) =
  let graph = rc.Engine.Region_ctx.graph in
  let n = graph.Ddg.Graph.n in
  let params = ctx.Engine.Backend.params in
  let rng = Support.Rng.create ctx.Engine.Backend.seed in
  (* The region context's analyses and one SoA arena back the whole
     colony; nothing region-derived is recomputed here. *)
  let shared = Ant.shared_of_region_ctx ~beta:params.Engine.Params.beta rc in
  let ints, floats = Ant.arena_demand shared in
  let fmat_rows, fmat_cols = Ant.fmat_demand shared in
  let lanes = params.Engine.Params.ants_per_iteration in
  let arena = Support.Arena.take ~ints:(lanes * ints) ~floats:(lanes * floats) in
  let fmat = Support.Fmat.take ~rows:(lanes * fmat_rows) ~cols:fmat_cols in
  let ants =
    Array.init lanes (fun lane ->
        Ant.create ~shared ~arena ~fmat:(fmat, lane * fmat_rows) graph params)
  in
  let pheromone = Pheromone.create ~n ~initial:params.Engine.Params.initial_pheromone in
  let policy =
    Pheromone_policy.make policy_spec ~params ~n ~metrics:ctx.Engine.Backend.metrics
  in
  {
    params;
    rng;
    ants;
    arena;
    fmat;
    pheromone;
    policy;
    termination = Pheromone_policy.patience policy;
    allow_optional_stalls;
    metrics = ctx.Engine.Backend.metrics;
  }

(* Two_pass runs teardown even on raise. The ants' slices are dead by
   now — results were extracted during the passes. *)
let teardown c =
  Support.Arena.give c.arena;
  Support.Fmat.give c.fmat

(* The colony meters abstract work units, never wall time; the pipeline
   converts nanoseconds to work through its CPU cost model before
   handing a budget down. *)
let work_of_budget = function
  | Engine.Types.Unlimited -> max_int
  | Engine.Types.Work w -> w
  | Engine.Types.Time_ns _ ->
      invalid_arg "Colony: nanosecond budgets require a time-model backend"

let run_pass (type a) colony ~mode ~(cost : length:int -> vgpr:int -> sgpr:int -> int)
    ~(artifact_of_ant : Ant.t -> a) ~budget_work ~pass_label ~initial_cost
    ~(initial_order : int array) ~(initial_artifact : a) ~lb_cost :
    a * int * Engine.Types.pass_stats =
  let { params; rng; ants; pheromone; policy; termination; allow_optional_stalls; metrics; _ } =
    colony
  in
  let open Engine.Params in
  (* The initial (heuristic) schedule is the global best at the start:
     the policy resets the table and biases it toward that solution. *)
  policy.Pheromone_policy.init pheromone ~initial_order ~initial_cost;
  (* Telemetry scratch sits before the minor-words snapshot so the
     reported allocation stays byte-identical with metering off. *)
  let metering = Obs.Metrics.enabled metrics in
  let m_best = if metering then pass_label ^ ".best_cost" else "" in
  let m_entropy = if metering then pass_label ^ ".pheromone_entropy" else "" in
  (* Convergence series: entry 0 is the initial cost, entry [k] the best
     cost after the [k]th iteration. *)
  let bc_buf = Array.make (1 + params.max_iterations) initial_cost in
  let bc_len = ref 1 in
  (* Pre-bind the ant launcher so the per-iteration closure below
     captures exactly the free variables the historical driver's did
     ([allow_optional_stalls] was a literal there, not a capture): the
     closure is allocated inside the measured window once per iteration,
     so an extra captured word would show up in [minor_words]. *)
  let start_ant ant ~rng mode =
    Ant.start ant ~rng ~heuristic:params.heuristic ~allow_optional_stalls mode
  in
  let cost_of_ant ant =
    cost ~length:(Ant.length ant) ~vgpr:(Ant.peak ant Ir.Reg.Vgpr)
      ~sgpr:(Ant.peak ant Ir.Reg.Sgpr)
  in
  (* Run one ant, stopping it once [cost] at its length bound and its
     running peaks (both only lower bounds on the final values, and
     [cost] is nondecreasing in each) reaches [cutoff], the best cost
     already finished in this iteration. The first ant of an iteration
     has no cutoff. A pass-1 cost reads only the peaks, so it is checked
     only when a peak rises. *)
  let schedule_pass = match mode with Ant.Rp_pass -> false | Ant.Ilp_pass _ -> true in
  let run_ant ant cutoff =
    if cutoff = max_int then Ant.run_to_completion ant ~pheromone
    else begin
      let vgpr = ref (-1) and sgpr = ref (-1) in
      while Ant.status ant = Ant.Active do
        Ant.step_hot ant ~pheromone ~force_explore:(-1) ~ready_limit:0;
        if Ant.status ant = Ant.Active then begin
          let v = Ant.peak ant Ir.Reg.Vgpr and s = Ant.peak ant Ir.Reg.Sgpr in
          if schedule_pass || v > !vgpr || s > !sgpr then begin
            vgpr := v;
            sgpr := s;
            if cost ~length:(Ant.length_lb ant) ~vgpr:v ~sgpr:s >= cutoff then Ant.kill ant
          end
        end
      done
    end
  in
  (* The candidate meter is cumulative on each ant's tracker; the pass
     reports the delta. Both sums sit outside the minor-words window. *)
  let sum_scored () =
    let scored = ref 0 in
    for k = 0 to Array.length ants - 1 do
      scored := !scored + Ant.scored_candidates (Array.unsafe_get ants k)
    done;
    !scored
  in
  let scored_before = sum_scored () in
  let minor_before = Support.Perfcount.minor_words () in
  let best_cost = ref initial_cost in
  let best = ref initial_artifact in
  let improved = ref false in
  let iterations = ref 0 in
  let no_improve = ref 0 in
  let work = ref 0 in
  let ants_total = ref 0 in
  let n = Pheromone.size pheromone in
  (* The compile budget is expressed in abstract work units — the same
     currency {!Ant.work} charges — so the sequential driver stays free
     of any wall-clock notion; the pipeline converts nanoseconds to work
     via its CPU cost model. *)
  while
    !best_cost > lb_cost && !no_improve < termination && !iterations < params.max_iterations
    && !work < budget_work
  do
    incr iterations;
    let iter_best_cost = ref max_int in
    let iter_best = ref None in
    Array.iter
      (fun ant ->
        start_ant ant ~rng:(Support.Rng.split rng) mode;
        run_ant ant !iter_best_cost;
        ants_total := !ants_total + 1;
        work := !work + Ant.work ant;
        if Ant.status ant = Ant.Finished then begin
          let c = cost_of_ant ant in
          if c < !iter_best_cost then begin
            iter_best_cost := c;
            iter_best := Some (Ant.order ant, artifact_of_ant ant)
          end
        end)
      ants;
    (* Table upkeep: the policy evaporates, deposits and (for MMAS)
       clamps / restarts; the driver keeps ownership of the global best
       and the termination counter. *)
    work := !work + (((n + 1) * n) / 8) + n;
    (match !iter_best with
    | Some (order, art) ->
        policy.Pheromone_policy.update pheromone ~winner_order:order
          ~winner_cost:!iter_best_cost;
        if !iter_best_cost < !best_cost then begin
          best_cost := !iter_best_cost;
          best := art;
          improved := true;
          no_improve := 0
        end
        else incr no_improve
    | None ->
        policy.Pheromone_policy.update pheromone
          ~winner_order:Pheromone_policy.no_order ~winner_cost:max_int;
        incr no_improve);
    bc_buf.(!bc_len) <- !best_cost;
    incr bc_len;
    if metering then begin
      Obs.Metrics.push metrics m_best (float_of_int !best_cost);
      Obs.Metrics.push metrics m_entropy (Pheromone.row_entropy pheromone)
    end
  done;
  (* [minor_delta] first: the series copy must stay outside the measured
     window so the stat is byte-identical with metering off. *)
  let minor_delta = Support.Perfcount.minor_words () -. minor_before in
  let scored_after = sum_scored () in
  let best_costs = Array.sub bc_buf 0 !bc_len in
  ( !best,
    !best_cost,
    {
      Engine.Types.no_pass with
      Engine.Types.invoked = true;
      stop =
        Engine.Types.stop_of ~faults:false
          ~budget:(budget_work < max_int && !work >= budget_work)
          ~lower_bound:(!best_cost <= lb_cost)
          ~capped:(!iterations >= params.max_iterations);
      iterations = !iterations;
      ants_simulated = !ants_total;
      work = !work;
      improved = !improved;
      best_costs;
      minor_words = minor_delta;
      scored_candidates = scored_after - scored_before;
    } )
