(* The ACO iteration loop every backend runs, and the CPU colony's
   iteration. The loop owns what the paper's algorithm fixes: the
   policy init, the global best and its convergence series, the
   stagnation counter, the pheromone update of each iteration and the
   stats record. How one iteration's ants run is its parameter: the CPU
   colony below runs them one after another, the GPU model
   ([Gpusim.Par_aco]) runs lockstep wavefronts.

   The CPU iteration stops an ant ([Ant.run]) once a lower bound on its
   final cost reaches the best cost an earlier ant of the same iteration
   finished with: such an ant can no longer win the iteration (a winner
   must be strictly cheaper), and the policy only ever sees the winner.
   Each ant draws only from its own [Rng.split] stream, so the cut
   changes no draw of any other ant. *)

type search = {
  params : Engine.Params.t;
  pheromone : Pheromone.t;
  policy : Pheromone_policy.t;
  metrics : Obs.Metrics.t;
}

let search policy_spec ~params ~n ~metrics =
  {
    params;
    pheromone = Pheromone.create ~n ~initial:params.Engine.Params.initial_pheromone;
    policy = Pheromone_policy.make policy_spec ~params ~n ~metrics;
    metrics;
  }

type outcome = Winner of Ant.t * int | No_winner | Failed

type iteration = {
  run : unit -> outcome;
  settle : outcome -> best_cost:int -> bool;
  exhausted : unit -> bool;
  scored : unit -> int;
  finish : best_cost:int -> Engine.Types.pass_stats -> Engine.Types.pass_stats;
}

type ties = Keep | Replace

let run_pass (type a) search ~iteration ~ties ~(artifact_of_ant : Ant.t -> a option) ~pass_label
    ~initial_cost ~(initial_order : int array) ~(initial_artifact : a) ~lb_cost :
    a * int * Engine.Types.pass_stats =
  let { params; pheromone; policy; metrics } = search in
  let max_iterations = params.Engine.Params.max_iterations in
  let patience = Pheromone_policy.patience policy in
  (* The initial (heuristic) schedule is the global best at the start:
     the policy resets the table and biases it toward that solution. *)
  policy.Pheromone_policy.init pheromone ~initial_order ~initial_cost;
  let metering = Obs.Metrics.enabled metrics in
  let m_best = if metering then pass_label ^ ".best_cost" else "" in
  let m_entropy = if metering then pass_label ^ ".pheromone_entropy" else "" in
  (* Convergence series: entry 0 is the initial cost, entry [k] the best
     cost after the [k]th attempted iteration (failed ones included). *)
  let best_costs = Array.make (1 + max_iterations) initial_cost in
  let replace_on_tie = match ties with Replace -> true | Keep -> false in
  let scored_before = iteration.scored () in
  let minor_before = Gc.minor_words () in
  let best_cost = ref initial_cost in
  let best = ref initial_artifact in
  let improved = ref false in
  let iterations = ref 0 in
  let no_improve = ref 0 in
  let aborted = ref false in
  while
    (not !aborted)
    && (not (iteration.exhausted ()))
    && !best_cost > lb_cost && !no_improve < patience && !iterations < max_iterations
  do
    incr iterations;
    let outcome =
      match iteration.run () with
      | Winner (ant, cost) as winner -> (
          (* Guard: a winner whose artifact does not build fails the
             iteration before it touches the table or the best. *)
          match artifact_of_ant ant with
          | None -> Failed
          | Some artifact ->
              policy.Pheromone_policy.update pheromone ~winner_order:(Ant.order ant)
                ~winner_cost:cost;
              (* Only a strict improvement resets the stagnation counter;
                 under [Replace] an equal-cost winner still becomes the
                 emitted artifact. *)
              if cost < !best_cost || (replace_on_tie && cost = !best_cost) then best := artifact;
              if cost < !best_cost then begin
                best_cost := cost;
                improved := true;
                no_improve := 0
              end
              else incr no_improve;
              winner)
      | No_winner ->
          policy.Pheromone_policy.update pheromone ~winner_order:Pheromone_policy.no_order
            ~winner_cost:max_int;
          incr no_improve;
          No_winner
      | Failed -> Failed
    in
    (* A failed iteration still evaporates (its time passed) but deposits
       nothing and advances no stagnation bookkeeping; the backend then
       retries it or gives the pass up. *)
    (match outcome with Failed -> policy.Pheromone_policy.evaporate pheromone | _ -> ());
    if not (iteration.settle outcome ~best_cost:!best_cost) then aborted := true;
    best_costs.(!iterations) <- !best_cost;
    if metering then begin
      Obs.Metrics.push metrics m_best (float_of_int !best_cost);
      Obs.Metrics.push metrics m_entropy (Pheromone.row_entropy pheromone)
    end
  done;
  let minor_words = Gc.minor_words () -. minor_before in
  let stats =
    {
      Engine.Types.no_pass with
      Engine.Types.invoked = true;
      stop =
        Engine.Types.stop_of ~faults:!aborted ~budget:(iteration.exhausted ())
          ~lower_bound:(!best_cost <= lb_cost) ~capped:(!iterations >= max_iterations);
      iterations = !iterations;
      improved = !improved;
      best_costs = Array.sub best_costs 0 (1 + !iterations);
      minor_words;
      scored_candidates = iteration.scored () - scored_before;
    }
  in
  (!best, !best_cost, iteration.finish ~best_cost:!best_cost stats)

type t = {
  search : search;
  rng : Support.Rng.t;
  ants : Ant.t array;
  allow_optional_stalls : bool;
}

let prepare ~policy ~allow_optional_stalls (ctx : Engine.Backend.ctx) (rc : Engine.Region_ctx.t) =
  let params = ctx.Engine.Backend.params in
  (* The region context's analyses and one pooled store back the whole
     colony; nothing region-derived is recomputed here. *)
  let shared = Ant.shared_of_region_ctx ~beta:params.Engine.Params.beta rc in
  {
    search =
      search policy ~params ~n:rc.Engine.Region_ctx.graph.Ddg.Graph.n
        ~metrics:ctx.Engine.Backend.metrics;
    rng = Support.Rng.create ctx.Engine.Backend.seed;
    ants = Ant.lanes shared ~count:params.Engine.Params.ants_per_iteration params;
    allow_optional_stalls;
  }

(* Two_pass runs teardown even on raise. The ants are dead by now —
   results were extracted during the passes. *)
let teardown c = Ant.release c.ants

let sequential colony ~mode ~(term : vgpr:int -> sgpr:int -> int) ~budget =
  let { search = { params; pheromone; _ }; rng; ants; allow_optional_stalls; _ } = colony in
  let heuristic = params.Engine.Params.heuristic in
  (* The colony meters abstract work units, never wall time; the
     pipeline converts nanoseconds to work through its CPU cost model
     before handing a budget down. *)
  let budget_work =
    match budget with
    | Engine.Types.Unlimited -> max_int
    | Engine.Types.Work w -> w
    | Engine.Types.Time_ns _ ->
        invalid_arg "Colony: nanosecond budgets require a time-model backend"
  in
  let n = Pheromone.size pheromone in
  let work = ref 0 in
  let schedule_pass = match mode with Ant.Rp_pass -> false | Ant.Ilp_pass _ -> true in
  let run () =
    let winner = ref (-1) and winner_cost = ref max_int in
    for k = 0 to Array.length ants - 1 do
      let ant = ants.(k) in
      Ant.start ant ~rng:(Support.Rng.split rng) ~heuristic ~allow_optional_stalls mode;
      (* The first ant of an iteration has no cutoff. *)
      Ant.run ant ~pheromone ~term ~cutoff:!winner_cost;
      work := !work + Ant.work ant;
      if Ant.status ant = Ant.Finished then begin
        let c =
          (if schedule_pass then Ant.length ant else 0)
          + term ~vgpr:(Ant.peak ant Ir.Reg.Vgpr) ~sgpr:(Ant.peak ant Ir.Reg.Sgpr)
        in
        if c < !winner_cost then begin
          winner_cost := c;
          winner := k
        end
      end
    done;
    (* Table upkeep: the policy's evaporate-and-deposit over the table. *)
    work := !work + (((n + 1) * n) / 8) + n;
    if !winner < 0 then No_winner else Winner (ants.(!winner), !winner_cost)
  in
  {
    run;
    (* nothing to retry: the next iteration splits fresh streams anyway *)
    settle = (fun _ ~best_cost:_ -> true);
    (* the compile budget is in the currency [Ant.work] charges *)
    exhausted = (fun () -> !work >= budget_work);
    scored =
      (fun () -> Array.fold_left (fun acc ant -> acc + Ant.scored_candidates ant) 0 ants);
    finish =
      (fun ~best_cost:_ stats ->
        let ants_simulated = stats.Engine.Types.iterations * Array.length ants in
        { stats with Engine.Types.work = !work; ants_simulated });
  }
