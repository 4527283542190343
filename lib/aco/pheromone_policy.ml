(* Pluggable pheromone-update rules. The iteration loop
   ([Colony.run_pass]) calls exactly three hooks per pass — [init] once
   before the first iteration, [update] once per completed iteration,
   [evaporate] for failed iterations — and otherwise never touches the
   table. That boundary is what lets MAX-MIN Ant System slot in without
   the loop changing.

   Byte-identity discipline: [As] must reproduce the historical inline
   code exactly — same [Pheromone] calls in the same order, same float
   expressions. The policy record and everything it captures are
   allocated in [make] (backend [prepare] time); per-iteration [update]
   passes only immediates (an int cost, an existing array), so the only
   allocation either policy makes per iteration is the boxed deposit
   amount. The qcheck differentials in [test/test_engine.ml] and the
   policy suite enforce this. *)

type spec = As | Mmas

type t = {
  spec : spec;
  init : Pheromone.t -> initial_order:int array -> initial_cost:int -> unit;
      (* reset the table and bias it toward the initial (heuristic)
         solution; for MMAS also anchor best-so-far and apply the trail
         bounds *)
  update : Pheromone.t -> winner_order:int array -> winner_cost:int -> unit;
      (* one completed iteration: evaporate, deposit, clamp, detect
         stagnation. [winner_cost = max_int] (with [no_order]) encodes a
         winner-less iteration. *)
  evaporate : Pheromone.t -> unit;
      (* a failed iteration: its time passed, so the table still
         evaporates, but no deposit and no stagnation bookkeeping *)
  patience : int;
      (* improvement-free iterations the driver should tolerate before
         terminating a pass; MMAS needs room for its restarts to fire *)
  restarts : unit -> int;  (* stagnation restarts fired so far (MMAS) *)
}

(* Shared winner-less sentinel order: never read (a [max_int] cost is
   never a strict improvement and never deposited), so one empty array
   serves every pass without allocating in the loop. *)
let no_order : int array = [||]

let patience t = t.patience
let spec t = t.spec
let restarts t = t.restarts ()

(* MMAS schedule: give the colony [mmas_max_restarts] chances to escape
   a stagnated table. The per-restart stagnation limit extends the
   vanilla termination allowance by two iterations (a restarted table
   needs at least one full iteration to re-anchor), and the driver-side
   patience covers all restart windows; [Engine.Params.max_iterations] still
   caps the pass. *)
let mmas_max_restarts = 2
let mmas_stagnation_limit ~n = Engine.Params.termination_condition n + 2
let mmas_patience ~n = (mmas_max_restarts + 1) * mmas_stagnation_limit ~n

let make_as ~(params : Engine.Params.t) ~n =
  let initial = params.Engine.Params.initial_pheromone in
  let decay = params.Engine.Params.decay in
  let deposit = params.Engine.Params.deposit in
  {
    spec = As;
    init =
      (fun pheromone ~initial_order ~initial_cost ->
        Pheromone.reset pheromone ~initial;
        Pheromone.deposit_path_scaled pheromone initial_order ~deposit ~cost:initial_cost);
    update =
      (fun pheromone ~winner_order ~winner_cost ->
        Pheromone.decay pheromone decay;
        if winner_cost < max_int then
          Pheromone.deposit_path_scaled pheromone winner_order ~deposit ~cost:winner_cost);
    evaporate = (fun pheromone -> Pheromone.decay pheromone decay);
    patience = Engine.Params.termination_condition n;
    restarts = (fun () -> 0);
  }

(* MAX-MIN Ant System (Skinderowicz, arXiv 2003.11902): only the
   best-so-far solution deposits, the trail is clamped into
   [tau_min, tau_max] derived from the best cost, and a colony that
   stagnates for [mmas_stagnation_limit] iterations restarts from a
   uniform table at [tau_max]. A restart reseeds the deposit anchor
   (best-so-far cost and order), never the RNG stream — replays stay
   deterministic and the driver's own global best is untouched.

   State lives in flat arrays so MMAS iterations stay cheap: float
   stores into [bounds] and int stores into [counters] do not box. *)
let make_mmas ~(params : Engine.Params.t) ~n ~metrics =
  let initial = params.Engine.Params.initial_pheromone in
  let decay = params.Engine.Params.decay in
  let deposit = params.Engine.Params.deposit in
  (* Evaporation rate: [Engine.Params.decay] is a retention factor. *)
  let rho = 1.0 -. decay in
  let rho = if rho > 0.0 then rho else 1.0 in
  let stagnation_limit = mmas_stagnation_limit ~n in
  let best_order = Array.make n 0 in
  (* bounds.(0) = tau_min, bounds.(1) = tau_max *)
  let bounds = [| 0.0; 1.0 |] in
  (* counters: 0 = best-so-far cost (max_int = no anchor), 1 = stagnant
     iterations, 2 = restarts fired this pass, 3 = restarts fired ever *)
  let counters = [| max_int; 0; 0; 0 |] in
  let set_bounds cost =
    let tau_max = deposit /. float_of_int (1 + cost) /. rho in
    bounds.(1) <- tau_max;
    bounds.(0) <- tau_max /. float_of_int (2 * max 1 n)
  in
  let anchor order cost =
    Array.blit order 0 best_order 0 (Array.length order);
    counters.(0) <- cost;
    counters.(1) <- 0;
    set_bounds cost
  in
  {
    spec = Mmas;
    init =
      (fun pheromone ~initial_order ~initial_cost ->
        Pheromone.reset pheromone ~initial;
        Pheromone.deposit_path_scaled pheromone initial_order ~deposit ~cost:initial_cost;
        anchor initial_order initial_cost;
        counters.(2) <- 0;
        Pheromone.clamp pheromone ~lo:bounds.(0) ~hi:bounds.(1));
    update =
      (fun pheromone ~winner_order ~winner_cost ->
        Pheromone.decay pheromone decay;
        if winner_cost < counters.(0) then anchor winner_order winner_cost
        else counters.(1) <- counters.(1) + 1;
        (* Best-so-far-only deposit: the iteration winner influences the
           trail only by becoming the anchor. *)
        if counters.(0) < max_int then
          Pheromone.deposit_path_scaled pheromone best_order ~deposit ~cost:counters.(0);
        Pheromone.clamp pheromone ~lo:bounds.(0) ~hi:bounds.(1);
        if counters.(1) >= stagnation_limit && counters.(2) < mmas_max_restarts
        then begin
          (* Restart: uniform table at tau_max, anchor forgotten so the
             next winner re-seeds it. The RNG stream is deliberately not
             touched (see DESIGN.md). *)
          Pheromone.reset pheromone ~initial:bounds.(1);
          counters.(0) <- max_int;
          counters.(1) <- 0;
          counters.(2) <- counters.(2) + 1;
          counters.(3) <- counters.(3) + 1;
          Obs.Metrics.incr metrics "aco.mmas.restarts"
        end);
    evaporate =
      (fun pheromone ->
        Pheromone.decay pheromone decay;
        Pheromone.clamp pheromone ~lo:bounds.(0) ~hi:bounds.(1));
    patience = mmas_patience ~n;
    restarts = (fun () -> counters.(3));
  }

let make spec ~params ~n ~metrics =
  match spec with As -> make_as ~params ~n | Mmas -> make_mmas ~params ~n ~metrics
