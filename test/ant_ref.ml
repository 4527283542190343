(* Reference ant: the original list-based implementation, kept verbatim
   (modulo the shared roulette-degenerate fix) as the differential-test
   oracle for the arena-backed [Aco.Ant]. It allocates freely and uses
   only the retained list-level public APIs — [Sched.Ready_list]'s list
   view, [Pheromone.get], [Sched.Heuristic.eta] — and decides stalls with
   its own list-level [Stall_policy.classify] below
   — so it cannot silently share the optimized code paths it is meant to
   check. Every RNG draw and float operation happens in the same order
   as in the production ant; the qcheck suite in [Test_arena] asserts
   byte-identity of the resulting constructions. *)

type op =
  | Selected of { instr : int; explored : bool }
  | Mandatory_stall
  | Optional_stall
  | Died

type event = { op : op; ready_scanned : int; succs_updated : int }

(* The reference's own per-cycle record of its construction, one entry
   per cycle, independent of the product's schedule representation. *)
type slot = Stall | Instr of int

(* The divergence-path rank [Aco.Ant.last_rank] reports. *)
let rank_of_op = function
  | Selected { explored = false; _ } -> 0
  | Selected { explored = true; _ } -> 1
  | Mandatory_stall -> 2
  | Optional_stall -> 3
  | Died -> 4

type t = {
  graph : Ddg.Graph.t;
  params : Engine.Params.t;
  rl_order : Sched.Ready_list.t;  (* pass 1: latencies ignored *)
  rl_cycle : Sched.Ready_list.t;  (* pass 2: latency-aware *)
  rp : Sched.Rp_tracker.t;
  ctx : Sched.Heuristic.ctx;
  mutable rng : Support.Rng.t;
  mutable heuristic : Sched.Heuristic.kind;
  mutable allow_optional : bool;
  mutable mode : Aco.Ant.mode;
  mutable status : Aco.Ant.status;
  mutable last : int;  (* previously selected instruction, -1 at start *)
  mutable rev_slots : slot list;
  mutable n_slots : int;
  mutable n_optional : int;
  mutable work : int;
}

let create graph params =
  let rp = Sched.Rp_tracker.create graph in
  {
    graph;
    params;
    rl_order = Sched.Ready_list.create ~latency_aware:false graph;
    rl_cycle = Sched.Ready_list.create ~latency_aware:true graph;
    rp;
    ctx = Sched.Heuristic.make_ctx graph rp;
    rng = Support.Rng.create 0;
    heuristic = params.Engine.Params.heuristic;
    allow_optional = true;
    mode = Aco.Ant.Rp_pass;
    status = Aco.Ant.Dead;
    last = -1;
    rev_slots = [];
    n_slots = 0;
    n_optional = 0;
    work = 0;
  }

let ready_list t =
  match t.mode with Aco.Ant.Rp_pass -> t.rl_order | Aco.Ant.Ilp_pass _ -> t.rl_cycle

let start t ~rng ~heuristic ~allow_optional_stalls mode =
  t.rng <- rng;
  t.heuristic <- heuristic;
  t.allow_optional <- allow_optional_stalls;
  t.mode <- mode;
  t.status <- Aco.Ant.Active;
  t.last <- -1;
  t.rev_slots <- [];
  t.n_slots <- 0;
  t.n_optional <- 0;
  t.work <- 0;
  Sched.Rp_tracker.reset t.rp;
  Sched.Ready_list.reset (ready_list t)

let status t = t.status

let effective_heuristic t =
  match t.mode with
  | Aco.Ant.Rp_pass -> t.heuristic
  | Aco.Ant.Ilp_pass { target_vgpr; target_sgpr } ->
      let headroom_v = target_vgpr - Sched.Rp_tracker.current t.rp Ir.Reg.Vgpr in
      let headroom_s = target_sgpr - Sched.Rp_tracker.current t.rp Ir.Reg.Sgpr in
      if headroom_v <= 2 || headroom_s <= 8 then Sched.Heuristic.Last_use_count
      else t.heuristic

let pow_fast x e =
  if e = 1.0 then x else if e = 2.0 then x *. x else if e = 0.0 then 1.0 else x ** e

let select t ~pheromone ~explored candidates =
  let heuristic = effective_heuristic t in
  let value j =
    let tau = Aco.Pheromone.get pheromone ~src:t.last ~dst:j in
    let eta = Sched.Heuristic.eta heuristic t.ctx j in
    pow_fast tau t.params.Engine.Params.alpha *. pow_fast eta t.params.Engine.Params.beta
  in
  match candidates with
  | [] -> invalid_arg "Ant_ref.select: empty candidate list"
  | [ only ] -> only
  | _ :: _ ->
      if explored then begin
        let total = List.fold_left (fun acc j -> acc +. value j) 0.0 candidates in
        let u = Support.Rng.float t.rng in
        if total > 0.0 then begin
          let target = u *. total in
          let rec pick acc = function
            | [] | [ _ ] -> List.nth candidates (List.length candidates - 1)
            | j :: rest ->
                let acc = acc +. value j in
                if acc >= target then j else pick acc rest
          in
          pick 0.0 candidates
        end
        else
          (* Degenerate wheel (all values zero): uniform pick reusing the
             single draw, exactly as the production ant does. *)
          let m = List.length candidates in
          List.nth candidates (min (m - 1) (int_of_float (u *. float_of_int m)))
      end
      else
        let first = List.hd candidates in
        let best, _ =
          List.fold_left
            (fun (bj, bv) j ->
              let v = value j in
              if v > bv then (j, v) else (bj, bv))
            (first, value first)
            (List.tl candidates)
        in
        best

let emit_instr t rl i =
  Sched.Ready_list.schedule rl i;
  Sched.Rp_tracker.schedule t.rp i;
  t.rev_slots <- Instr i :: t.rev_slots;
  t.n_slots <- t.n_slots + 1;
  t.last <- i;
  if Sched.Ready_list.finished rl then t.status <- Aco.Ant.Finished

let emit_stall t rl =
  Sched.Ready_list.stall rl;
  t.rev_slots <- Stall :: t.rev_slots;
  t.n_slots <- t.n_slots + 1

let finish_event t ev =
  t.work <- t.work + ev.ready_scanned + ev.succs_updated + 3;
  ev

let ready_count t =
  if t.status <> Aco.Ant.Active then 0 else Sched.Ready_list.ready_count (ready_list t)

let rec take k = function
  | [] -> []
  | x :: rest -> if k <= 0 then [] else x :: take (k - 1) rest

(* The optional-stall heuristic of pass 2 (Section IV-C), as a decision
   over the list of ready instructions. When the ready list is empty a
   stall is mandatory. When it is not, scheduling a stall can still pay
   off if every ready instruction would push the peak pressure past the
   pass-2 target while a semi-ready instruction, one that waiting
   unblocks, could avoid that. The stall probability is damped as more
   optional stalls accumulate. [Aco.Ant.step] inlines the same ladder
   over its candidate slice. *)
module Stall_policy = struct
  type decision =
    | Schedule_from of int list
        (* schedule one of these (ready instructions that fit the target) *)
    | Optional_stall
    | Forced_breach
        (* no ready instruction fits and waiting cannot help: the ant
           breaches the target and dies *)

  (* [target_*] are APRP targets from pass 1. When [allow_optional] is
     false the ant never stalls voluntarily (the divergence optimization
     that restricts optional stalls to a fraction of wavefronts,
     Section V-B). *)
  let classify ~rng ~allow_optional ~base_probability ~rp ~target_vgpr ~target_sgpr
      ~ready ~has_semi_ready ~optional_stalls_so_far =
    let fitting =
      List.filter (fun i -> Sched.Rp_tracker.fits_within rp i ~target_vgpr ~target_sgpr) ready
    in
    match fitting with
    | [] ->
        (* Waiting is the only move that can keep the ant alive, but an
           ant in a no-optional-stall wavefront may not take it. *)
        if allow_optional && has_semi_ready then Optional_stall else Forced_breach
    | _ :: _ ->
        (* Some candidates fit. Waiting can still be attractive when
           other candidates would breach and something is in flight;
           its probability is damped geometrically by the stalls already
           inserted. *)
        let some_breach = List.length fitting < List.length ready in
        if
          allow_optional && has_semi_ready && some_breach
          && Support.Rng.bool rng
               (base_probability *. (0.5 ** float_of_int optional_stalls_so_far))
        then Optional_stall
        else Schedule_from fitting
end

let step ?force_explore ?ready_limit t ~pheromone =
  if t.status <> Aco.Ant.Active then invalid_arg "Ant_ref.step: ant is not active";
  let rl = ready_list t in
  let ready = Sched.Ready_list.ready_list rl in
  let ready =
    match (ready_limit, t.mode) with
    | Some k, Aco.Ant.Rp_pass when k >= 1 -> take k ready
    | (Some _ | None), _ -> ready
  in
  let n_ready = List.length ready in
  let explored =
    match force_explore with
    | Some b -> b
    | None -> not (Support.Rng.bool t.rng t.params.Engine.Params.q0)
  in
  let selected_event i =
    finish_event t
      {
        op = Selected { instr = i; explored };
        ready_scanned = n_ready;
        succs_updated = Ddg.Graph.num_succs t.graph i;
      }
  in
  match t.mode with
  | Aco.Ant.Rp_pass ->
      let i = select t ~pheromone ~explored ready in
      emit_instr t rl i;
      selected_event i
  | Aco.Ant.Ilp_pass { target_vgpr; target_sgpr } ->
      if n_ready = 0 then begin
        emit_stall t rl;
        finish_event t { op = Mandatory_stall; ready_scanned = 0; succs_updated = 0 }
      end
      else begin
        let has_semi_ready = Sched.Ready_list.min_semi_ready_cycle rl <> None in
        match
          Stall_policy.classify ~rng:t.rng ~allow_optional:t.allow_optional
            ~base_probability:t.params.Engine.Params.stall_base_probability ~rp:t.rp
            ~target_vgpr ~target_sgpr ~ready ~has_semi_ready
            ~optional_stalls_so_far:t.n_optional
        with
        | Stall_policy.Schedule_from fitting ->
            let i = select t ~pheromone ~explored fitting in
            emit_instr t rl i;
            selected_event i
        | Stall_policy.Optional_stall ->
            emit_stall t rl;
            t.n_optional <- t.n_optional + 1;
            finish_event t { op = Optional_stall; ready_scanned = n_ready; succs_updated = 0 }
        | Stall_policy.Forced_breach ->
            t.status <- Aco.Ant.Dead;
            finish_event t { op = Died; ready_scanned = n_ready; succs_updated = 0 }
      end

let kill t = t.status <- Aco.Ant.Dead

let run_to_completion ?force_explore t ~pheromone =
  while t.status = Aco.Ant.Active do
    ignore (step ?force_explore t ~pheromone)
  done

let slots t = List.rev t.rev_slots

let order t =
  let acc = ref [] in
  List.iter
    (fun s ->
      match s with Instr i -> acc := i :: !acc | Stall -> ())
    t.rev_slots;
  Array.of_list !acc

let schedule t =
  if t.status <> Aco.Ant.Finished then None
  else
    let latency_aware =
      match t.mode with Aco.Ant.Rp_pass -> false | Aco.Ant.Ilp_pass _ -> true
    in
    let cycle_of = Array.make t.graph.Ddg.Graph.n (-1) in
    List.iteri (fun c -> function Instr i -> cycle_of.(i) <- c | Stall -> ()) (slots t);
    match Sched.Schedule.of_cycles t.graph ~latency_aware cycle_of with
    | Ok s -> Some s
    | Error _ -> None

let rp_peaks t =
  (Sched.Rp_tracker.peak t.rp Ir.Reg.Vgpr, Sched.Rp_tracker.peak t.rp Ir.Reg.Sgpr)

let length t = t.n_slots
let optional_stalls t = t.n_optional
let work t = t.work

(* ------------------------------------------------------------------ *)
(* Frozen colony pass: the pre-policy [Seq_aco.run_pass] loop kept
   verbatim (inline [Pheromone.reset]/[deposit_path]/[decay] calls in
   the historical order) as the differential oracle for
   [Aco.Colony.run_pass] driven by the [As] pheromone policy. It runs
   the production [Aco.Ant] — the construction substrate is shared on
   purpose; what this pins down is the driver loop's RNG draw order,
   work accounting, pheromone arithmetic and minor-words window. *)

let colony_run_pass (type a) ~params ~rng ~ants ~pheromone ~mode
    ~(cost_of_ant : Aco.Ant.t -> int) ~(artifact_of_ant : Aco.Ant.t -> a)
    ~allow_optional_stalls ~budget_work ~metrics ~pass_label ~initial_cost
    ~(initial_order : int array) ~(initial_artifact : a) ~lb_cost ~termination :
    a * int * Engine.Types.pass_stats =
  let open Engine.Params in
  Aco.Pheromone.reset pheromone ~initial:params.initial_pheromone;
  Aco.Pheromone.deposit_path_scaled pheromone initial_order ~deposit:params.deposit
    ~cost:initial_cost;
  let metering = Obs.Metrics.enabled metrics in
  let m_best = if metering then pass_label ^ ".best_cost" else "" in
  let m_entropy = if metering then pass_label ^ ".pheromone_entropy" else "" in
  let bc_buf = Array.make (1 + params.max_iterations) initial_cost in
  let bc_len = ref 1 in
  let start_ant ant ~rng mode =
    Aco.Ant.start ant ~rng ~heuristic:params.heuristic ~allow_optional_stalls mode
  in
  let minor_before = Gc.minor_words () in
  let best_cost = ref initial_cost in
  let best = ref initial_artifact in
  let improved = ref false in
  let iterations = ref 0 in
  let no_improve = ref 0 in
  let work = ref 0 in
  let ants_total = ref 0 in
  let n = Aco.Pheromone.size pheromone in
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
        Aco.Ant.run_to_completion ant ~pheromone;
        ants_total := !ants_total + 1;
        work := !work + Aco.Ant.work ant;
        if Aco.Ant.status ant = Aco.Ant.Finished then begin
          let c = cost_of_ant ant in
          if c < !iter_best_cost then begin
            iter_best_cost := c;
            iter_best := Some (Aco.Ant.order ant, artifact_of_ant ant)
          end
        end)
      ants;
    work := !work + (((n + 1) * n) / 8) + n;
    Aco.Pheromone.decay pheromone params.decay;
    (match !iter_best with
    | Some (order, art) ->
        Aco.Pheromone.deposit_path_scaled pheromone order ~deposit:params.deposit
          ~cost:!iter_best_cost;
        if !iter_best_cost < !best_cost then begin
          best_cost := !iter_best_cost;
          best := art;
          improved := true;
          no_improve := 0
        end
        else incr no_improve
    | None -> incr no_improve);
    bc_buf.(!bc_len) <- !best_cost;
    incr bc_len;
    if metering then begin
      Obs.Metrics.push metrics m_best (float_of_int !best_cost);
      Obs.Metrics.push metrics m_entropy (Aco.Pheromone.row_entropy pheromone)
    end
  done;
  let minor_delta = Gc.minor_words () -. minor_before in
  let best_costs = Array.sub bc_buf 0 !bc_len in
  ( !best,
    !best_cost,
    {
      Engine.Types.no_pass with
      Engine.Types.invoked = true;
      stop =
        (if budget_work < max_int && !work >= budget_work then Engine.Types.Budget
         else if !best_cost <= lb_cost then Engine.Types.Lower_bound
         else if !iterations >= params.max_iterations then Engine.Types.Max_iterations
         else Engine.Types.Patience);
      iterations = !iterations;
      ants_simulated = !ants_total;
      work = !work;
      improved = !improved;
      best_costs;
      minor_words = minor_delta;
    } )
