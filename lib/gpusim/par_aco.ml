type Engine.Backend.ext +=
  | Gpu_config of Config.t
  | Watchdog of { iteration_deadline_ns : float; max_retries : int }

(* Wavefront role assignment (Section V-B): when per-wavefront heuristics
   are on, half the wavefronts use the aggressive Critical-Path
   heuristic and a quarter each use Last-Use-Count and source order. *)
let heuristic_for (config : Config.t) params w =
  if config.opts.Config.per_wavefront_heuristic then
    match w mod 4 with
    | 2 -> Sched.Heuristic.Last_use_count
    | 3 -> Sched.Heuristic.Source_order
    | _ -> Sched.Heuristic.Critical_path
  else params.Engine.Params.heuristic

let allow_optional_for (config : Config.t) w =
  let frac = config.opts.Config.optional_stall_fraction in
  let allowed =
    int_of_float ((frac *. float_of_int config.num_wavefronts) +. 0.5)
  in
  w < allowed

let make_wavefronts ?shared config graph params =
  Array.init config.Config.num_wavefronts (fun w ->
      Wavefront.create ?shared config graph params
        ~heuristic:(heuristic_for config params w)
        ~allow_optional_stalls:(allow_optional_for config w))

type state = {
  params : Engine.Params.t;
  config : Config.t;
  rng : Support.Rng.t;
  wavefronts : Wavefront.t array;
  pheromone : Aco.Pheromone.t;
  policy : Aco.Pheromone_policy.t;
  faults : Faults.t;
  iteration_deadline_ns : float;
  max_retries : int;
  trace : Obs.Trace.t;
  metrics : Obs.Metrics.t;
  obs_cursor : float array;
  simd_cursor : float array;
  termination : int;
  n : int;
  ready_ub : int;
  graph : Ddg.Graph.t;
  rp_scalar_of_ant : Aco.Ant.t -> int;
}

(* One parallel ACO pass on the simulated GPU, over the backend state
   plus the pass's own arguments. Generic in the ant cost and the
   winning artifact, like the CPU colony's loop ([Aco.Colony.run_pass]),
   but kept separate from it: ties go to the later equal-cost winner,
   the budget is simulated time, and faulted iterations are retried.

   Robustness discipline around the plain search loop:
   - every reduction winner passes [validate_artifact] before it can
     become the emitted artifact (corrupted colony state never ships);
   - a faulted iteration (hang, quarantine, lost reduction message,
     watchdog abort, or a winner failing validation) is retried with a
     reseeded RNG under exponential backoff charged to simulated time,
     at most [max_retries] consecutive times before the pass degrades to
     its best-so-far artifact;
   - the pass aborts once its accumulated simulated time crosses
     [budget_ns], again keeping the best-so-far artifact. *)
let run_pass (type a) st ~mode ~(cost_of_ant : Aco.Ant.t -> int)
    ~(artifact_of_ant : Aco.Ant.t -> a) ~(validate_artifact : a -> bool) ~budget_ns ~pass_label
    ~initial_cost ~(initial_order : int array) ~(initial_artifact : a) ~lb_cost =
  (* Bound before the minor-words snapshot: the per-iteration closures
     below capture these locals, never the state record. *)
  let { params; config; rng; wavefronts; pheromone; policy; faults; iteration_deadline_ns;
        max_retries; trace; metrics; obs_cursor; simd_cursor; termination; n; ready_ub; _ } =
    st
  in
  let open Engine.Params in
  policy.Aco.Pheromone_policy.init pheromone ~initial_order ~initial_cost;
  let lanes = config.target.Machine.Target.wavefront_size in
  let threads = Config.threads config in
  let faults_before = Faults.counts faults in
  (* Flight-recorder state. Everything the traced path touches inside the
     loop is allocated here, before the minor-words snapshot, so the
     untraced hot path is limited to branches on [tracing]/[metering] and
     the measured allocation stays byte-identical with tracing off. *)
  let tracing = Obs.Trace.enabled trace in
  let metering = Obs.Metrics.enabled metrics in
  let pass_t0 = Obs.Trace.now trace in
  let m_best = if metering then pass_label ^ ".best_cost" else "" in
  let m_entropy = if metering then pass_label ^ ".pheromone_entropy" else "" in
  (* Convergence series: entry 0 is the initial cost, entry [k] the best
     cost after the [k]th attempted iteration (retries included). *)
  let bc_buf = Array.make (1 + params.max_iterations) initial_cost in
  let bc_len = ref 1 in
  if tracing then begin
    let setup_ns = Mem_model.setup_time_ns config ~n ~ready_ub in
    Obs.Trace.span trace ~track:1 ~name:"kernel_launch" ~ts:pass_t0
      ~dur:config.launch_overhead_ns;
    Obs.Trace.span trace ~track:1 ~name:"mem_setup"
      ~ts:(pass_t0 +. config.launch_overhead_ns)
      ~dur:setup_ns;
    obs_cursor.(0) <- pass_t0 +. config.launch_overhead_ns +. setup_ns
  end;
  (* Candidate meters are cumulative on the ants' trackers; the pass
     reports deltas, summed outside the minor-words window. *)
  let sum_meters () =
    let scored = ref 0 and pruned = ref 0 in
    for w = 0 to Array.length wavefronts - 1 do
      let wf = Array.unsafe_get wavefronts w in
      scored := !scored + Wavefront.scored_candidates wf;
      pruned := !pruned + Wavefront.pruned_candidates wf
    done;
    (!scored, !pruned)
  in
  let scored_before, pruned_before = sum_meters () in
  let minor_before = Support.Perfcount.minor_words () in
  let best_cost = ref initial_cost in
  let best = ref initial_artifact in
  let improved = ref false in
  let iterations = ref 0 in
  let no_improve = ref 0 in
  let work = ref 0 in
  let ants_total = ref 0 in
  let serialized = ref 0 in
  let single = ref 0 in
  let lockstep_steps = ref 0 in
  let ant_steps = ref 0 in
  let selections = ref 0 in
  (* Per-iteration buffers, allocated once per pass and reused: the
     iteration loop itself stays allocation-free apart from the finished
     lists the wavefronts report. *)
  let num_wavefronts = Array.length wavefronts in
  let wavefront_times = Array.make (max 1 num_wavefronts) 0.0 in
  let outcomes : Wavefront.outcome option array = Array.make (max 1 num_wavefronts) None in
  let cost_buf = Array.make threads max_int in
  let red_cost = Array.make threads 0 in
  let red_idx = Array.make threads 0 in
  (* Iteration times land in a growable buffer (an iteration can add a
     backoff entry besides its own time, hence the factor 2). *)
  let iter_times = ref (Array.make (max 8 (min ((2 * params.max_iterations) + 4) 4096)) 0.0) in
  let iter_count = ref 0 in
  let push_time x =
    if !iter_count = Array.length !iter_times then begin
      let grown = Array.make (2 * Array.length !iter_times) 0.0 in
      Array.blit !iter_times 0 grown 0 !iter_count;
      iter_times := grown
    end;
    !iter_times.(!iter_count) <- x;
    incr iter_count
  in
  let elapsed = ref 0.0 in
  let retries = ref 0 in
  let consecutive_failures = ref 0 in
  let fault_abort = ref false in
  let within_budget () = !elapsed < budget_ns in
  while
    (not !fault_abort) && within_budget () && !best_cost > lb_cost && !no_improve < termination
    && !iterations < params.max_iterations
  do
    incr iterations;
    if tracing then begin
      (* Wavefronts round-robin over the SIMD units; a unit runs its
         wavefronts back to back, so a wavefront's track starts at the
         sum of the times of the earlier wavefronts on the same unit.
         The wavefronts read and advance these cursors themselves
         (installed via [Wavefront.set_obs]) so the per-iteration closure
         below captures nothing the untraced build does not. *)
      Array.fill simd_cursor 0 (Array.length simd_cursor) 0.0;
      obs_cursor.(1) <- obs_cursor.(0)
    end;
    (* Per-thread cost table for the reduction; losers and killed lanes
       report max_int. *)
    Array.fill cost_buf 0 threads max_int;
    let iter_faulted = ref false in
    Array.iteri
      (fun w wavefront ->
        let outcome = Wavefront.run_iteration ~faults wavefront ~rng ~mode ~pheromone in
        outcomes.(w) <- Some outcome;
        wavefront_times.(w) <- outcome.Wavefront.time_ns;
        work := !work + outcome.Wavefront.work;
        serialized := !serialized + outcome.Wavefront.serialized_ops;
        single := !single + outcome.Wavefront.single_path_ops;
        lockstep_steps := !lockstep_steps + outcome.Wavefront.steps;
        ant_steps := !ant_steps + outcome.Wavefront.ant_steps;
        selections := !selections + outcome.Wavefront.selections;
        ants_total := !ants_total + Wavefront.lanes wavefront;
        if outcome.Wavefront.hung || outcome.Wavefront.quarantined > 0 then
          iter_faulted := true;
        List.iteri
          (fun k ant -> cost_buf.((w * lanes) + k) <- cost_of_ant ant)
          outcome.Wavefront.finished)
      wavefronts;
    let winner_cost, winner_idx =
      Reduction.min_reduce_into ~costs:cost_buf ~scratch_cost:red_cost ~scratch_idx:red_idx
    in
    let dropped = Faults.enabled faults && Faults.reduction_drop faults in
    if dropped then iter_faulted := true;
    let iter_time_raw = Kernel_sim.iteration_time_ns config ~n ~wavefront_times in
    let iter_time, watchdog_fired =
      Kernel_sim.watchdog_clamp ~deadline_ns:iteration_deadline_ns iter_time_raw
    in
    if watchdog_fired then iter_faulted := true;
    push_time iter_time;
    elapsed := !elapsed +. iter_time;
    if tracing then begin
      Kernel_sim.trace_iteration trace config ~n ~track:1 ~ts:obs_cursor.(1)
        ~construction_ns:(Kernel_sim.construction_time_ns config ~wavefront_times);
      obs_cursor.(0) <- obs_cursor.(1) +. iter_time;
      if watchdog_fired then
        Obs.Trace.instant trace ~track:0 ~name:"watchdog_fired" ~ts:obs_cursor.(0);
      if dropped then
        Obs.Trace.instant trace ~track:1 ~name:"reduction_drop" ~ts:obs_cursor.(0)
    end;
    if metering then begin
      if watchdog_fired then Obs.Metrics.incr metrics "faults.watchdog_fired";
      if dropped then Obs.Metrics.incr metrics "faults.reduction_drop"
    end;
    (* The winner's thread index decomposes into its wavefront and its
       position in that wavefront's finished list. *)
    let winner_ant =
      if winner_cost < max_int then
        match outcomes.(winner_idx / lanes) with
        | Some o -> List.nth_opt o.Wavefront.finished (winner_idx mod lanes)
        | None -> None
      else None
    in
    let accepted =
      (not dropped) && (not watchdog_fired)
      &&
      match winner_ant with
      | Some ant ->
          let artifact = artifact_of_ant ant in
          (* Validation guard: a winner that does not reconstruct into a
             valid schedule is quarantined — the iteration failed. *)
          if validate_artifact artifact then begin
            policy.Aco.Pheromone_policy.update pheromone
              ~winner_order:(Aco.Ant.order ant) ~winner_cost;
            (* An equal-cost winner still becomes the emitted artifact — the
               ACO build ships the schedule the ants constructed — but only a
               strict improvement resets the termination counter. *)
            if winner_cost <= !best_cost then best := artifact;
            if winner_cost < !best_cost then begin
              best_cost := winner_cost;
              improved := true;
              no_improve := 0
            end
            else incr no_improve;
            true
          end
          else begin
            iter_faulted := true;
            false
          end
      | None -> false
    in
    if accepted then consecutive_failures := 0
    else if !iter_faulted then begin
      (* Guard-and-retry: the table still evaporates (simulated time
         passed) but the failed iteration deposits nothing and advances
         no stagnation bookkeeping, then the iteration is re-run from a
         reseeded stream with exponential backoff charged to simulated
         time; [max_retries] consecutive failures degrade the pass to
         its best-so-far. *)
      policy.Aco.Pheromone_policy.evaporate pheromone;
      if !consecutive_failures < max_retries then begin
        incr retries;
        incr consecutive_failures;
        ignore (Support.Rng.int64 rng);
        let backoff =
          Faults.retry_backoff_ns *. (2.0 ** float_of_int (!consecutive_failures - 1))
        in
        push_time backoff;
        elapsed := !elapsed +. backoff;
        if tracing then begin
          Obs.Trace.instant_arg trace ~track:0 ~name:"retry" ~ts:obs_cursor.(0)
            ~key:"attempt"
            ~value:(float_of_int !consecutive_failures);
          Obs.Trace.span trace ~track:0 ~name:"retry_backoff" ~ts:obs_cursor.(0)
            ~dur:backoff;
          obs_cursor.(0) <- obs_cursor.(0) +. backoff
        end;
        if metering then Obs.Metrics.incr metrics "robust.retries"
      end
      else begin
        fault_abort := true;
        if tracing then
          Obs.Trace.instant trace ~track:0 ~name:"fault_abort" ~ts:obs_cursor.(0);
        if metering then Obs.Metrics.incr metrics "robust.fault_aborts"
      end
    end
    else begin
      (* A clean iteration with no surviving winner: same table upkeep
         as the sequential colony's winner-less branch. *)
      policy.Aco.Pheromone_policy.update pheromone
        ~winner_order:Aco.Pheromone_policy.no_order ~winner_cost:max_int;
      incr no_improve
    end;
    bc_buf.(!bc_len) <- !best_cost;
    incr bc_len;
    if tracing then
      Obs.Trace.span_arg trace ~track:0 ~name:"iteration" ~ts:obs_cursor.(1)
        ~dur:iter_time ~key:"best_cost"
        ~value:(float_of_int !best_cost);
    if metering then begin
      Obs.Metrics.push metrics m_best (float_of_int !best_cost);
      Obs.Metrics.push metrics m_entropy (Aco.Pheromone.row_entropy pheromone)
    end
  done;
  let budget_abort = budget_ns < infinity && not (within_budget ()) in
  let time_ns =
    Kernel_sim.pass_time_ns_buf config ~n ~ready_ub ~times:!iter_times ~count:!iter_count
  in
  (* The baseline evaluated the stats record's fields right to left, so
     [fault_counts] (which allocates) landed inside the measured window
     and the convergence series (textually before [minor_words]) must
     stay out of it: bind them explicitly in that order to keep the
     reported delta byte-identical with tracing off. *)
  let fault_counts = Engine.Types.fault_counts_sub (Faults.counts faults) faults_before in
  let minor_delta = Support.Perfcount.minor_words () -. minor_before in
  let scored_after, pruned_after = sum_meters () in
  let best_costs = Array.sub bc_buf 0 !bc_len in
  if tracing then begin
    let teardown = Mem_model.teardown_time_ns config ~n in
    Obs.Trace.span trace ~track:1 ~name:"mem_teardown"
      ~ts:(pass_t0 +. time_ns -. teardown)
      ~dur:teardown;
    Obs.Trace.span_arg trace ~track:0 ~name:pass_label ~ts:pass_t0 ~dur:time_ns
      ~key:"best_cost"
      ~value:(float_of_int !best_cost);
    if budget_abort then
      Obs.Trace.instant trace ~track:0 ~name:"budget_abort" ~ts:obs_cursor.(0);
    Obs.Trace.set_now trace (pass_t0 +. time_ns)
  end;
  if metering && budget_abort then Obs.Metrics.incr metrics "robust.budget_aborts";
  ( !best,
    !best_cost,
    {
      Engine.Types.invoked = true;
      stop =
        Engine.Types.stop_of ~faults:!fault_abort ~budget:budget_abort
          ~lower_bound:(!best_cost <= lb_cost)
          ~capped:(!iterations >= params.max_iterations);
      iterations = !iterations;
      ants_simulated = !ants_total;
      work = !work;
      time_ns;
      improved = !improved;
      serialized_ops = !serialized;
      single_path_ops = !single;
      lockstep_steps = !lockstep_steps;
      ant_steps = !ant_steps;
      selections = !selections;
      best_costs;
      minor_words = minor_delta;
      retries = !retries;
      scored_candidates = scored_after - scored_before;
      pruned_candidates = pruned_after - pruned_before;
      fault_counts;
    } )

(* The GPU model meters simulated nanoseconds, so its budget currency is
   [Time_ns]; a [Work] budget indicates a pipeline wiring bug. *)
let ns_of_budget = function
  | Engine.Types.Unlimited -> infinity
  | Engine.Types.Time_ns t -> t
  | Engine.Types.Work _ ->
      invalid_arg "Par_aco: work budgets belong to backends without a time model"

module Backend_impl = struct
  let name = "par"

  let caps =
    {
      Engine.Types.rp_pass = true;
      faults = true;
      trace = true;
      time_model = true;
      prune = false;
    }

  (* The GPU model races under the paper's own rules: vanilla Ant System
     pheromone (threaded as the [As] policy below) and the cliff
     objective. *)
  let objective = None

  type nonrec state = state

  let prepare (ctx : Engine.Backend.ctx) (rc : Engine.Region_ctx.t) =
    let graph = rc.Engine.Region_ctx.graph in
    let occ = rc.Engine.Region_ctx.occ in
    let n = graph.Ddg.Graph.n in
    let params = ctx.Engine.Backend.params in
    let trace = ctx.Engine.Backend.trace in
    let metrics = ctx.Engine.Backend.metrics in
    (* Backend-specific context: launch geometry (with the fault rates)
       and watchdog arrive as extensions; unknown extensions are
       ignored. *)
    let config =
      List.fold_left
        (fun acc e -> match e with Gpu_config c -> c | _ -> acc)
        Config.bench ctx.Engine.Backend.ext
    in
    let iteration_deadline_ns, max_retries =
      List.fold_left
        (fun acc e ->
          match e with
          | Watchdog { iteration_deadline_ns; max_retries } ->
              (iteration_deadline_ns, max_retries)
          | _ -> acc)
        (infinity, 2) ctx.Engine.Backend.ext
    in
    let seed = ctx.Engine.Backend.seed in
    let faults =
      if Config.faults_enabled config.Config.faults then
        (* Mix the region size and driver seed into the injector seed so
           different regions see different — but replayable — fault
           patterns. *)
        Faults.create config.Config.faults
          ~seed:(config.Config.fault_seed lxor (n * 0x9e3779b1) lxor (seed * 0x85ebca77))
      else Faults.disabled
    in
    let rng = Support.Rng.create seed in
    (* The region context's analyses (critical path, register layout,
       closure ready-list bound) feed every wavefront of the colony. *)
    let shared = Aco.Ant.shared_of_region_ctx ~beta:params.Engine.Params.beta rc in
    let wavefronts = make_wavefronts ~shared config graph params in
    (* Track layout: 0 = driver, 1 = kernel stages, 2.. = one per
       wavefront. Hooks are attached here, outside any measured window, so
       the per-iteration calls need no optional-argument wrapping. *)
    let simds = Machine.Target.total_simds config.Config.target in
    (* Driver-owned simulated-time cursors, shared with every wavefront:
       [obs_cursor].(0) is the driver cursor, (1) the current iteration's
       start; [simd_cursor].(s) sums the construction time of the
       wavefronts already run on SIMD unit [s] this iteration. *)
    let obs_cursor = Array.make 2 0.0 in
    let simd_cursor = Array.make (max 1 simds) 0.0 in
    if Obs.Trace.enabled trace || Obs.Metrics.enabled metrics then begin
      Obs.Trace.name_track trace 0 "driver";
      Obs.Trace.name_track trace 1 "kernel: reduce + pheromone";
      Array.iteri
        (fun w wf ->
          Obs.Trace.name_track trace (2 + w) (Printf.sprintf "wavefront %d" w);
          Wavefront.set_obs wf ~trace ~metrics ~track:(2 + w) ~obs_cursor ~simd_cursor
            ~simd:(w mod simds))
        wavefronts
    end;
    let pheromone = Aco.Pheromone.create ~n ~initial:params.Engine.Params.initial_pheromone in
    let policy = Aco.Pheromone_policy.make Aco.Pheromone_policy.As ~params ~n ~metrics in
    let termination = Aco.Pheromone_policy.patience policy in
    let ready_ub = Aco.Ant.shared_ready_ub shared in
    let rp_scalar_of_ant ant =
      let v, s = Aco.Ant.rp_peaks ant in
      Sched.Cost.rp_scalar (Sched.Cost.rp_of_peaks occ ~vgpr:v ~sgpr:s)
    in
    {
      params;
      config;
      rng;
      wavefronts;
      pheromone;
      policy;
      faults;
      iteration_deadline_ns;
      max_retries;
      trace;
      metrics;
      obs_cursor;
      simd_cursor;
      termination;
      n;
      ready_ub;
      graph;
      rp_scalar_of_ant;
    }

  let run_order_pass st (req : Engine.Backend.order_request) =
    let order, _, stats =
      run_pass st ~mode:Aco.Ant.Rp_pass ~cost_of_ant:st.rp_scalar_of_ant
        ~artifact_of_ant:Aco.Ant.order
        ~validate_artifact:(fun order ->
          Result.is_ok (Sched.Schedule.of_order st.graph order))
        ~budget_ns:(ns_of_budget req.Engine.Backend.o_budget)
        ~pass_label:req.Engine.Backend.o_label
        ~initial_cost:req.Engine.Backend.o_initial_cost
        ~initial_order:req.Engine.Backend.o_initial_order
        ~initial_artifact:req.Engine.Backend.o_initial_order
        ~lb_cost:req.Engine.Backend.o_lb_cost
    in
    (order, stats)

  let run_schedule_pass st (req : Engine.Backend.schedule_request) =
    let schedule, _, stats =
      run_pass st
        ~mode:
          (Aco.Ant.Ilp_pass
             {
               target_vgpr = req.Engine.Backend.s_target_vgpr;
               target_sgpr = req.Engine.Backend.s_target_sgpr;
             })
        ~cost_of_ant:Aco.Ant.length
        ~artifact_of_ant:(fun ant ->
          match Aco.Ant.schedule ant with
          | Some s -> s
          | None -> invalid_arg "Par_aco: finished ant produced invalid schedule")
        ~validate_artifact:(fun s -> Sched.Schedule.is_valid s ~latency_aware:true)
        ~budget_ns:(ns_of_budget req.Engine.Backend.s_budget)
        ~pass_label:req.Engine.Backend.s_label
        ~initial_cost:req.Engine.Backend.s_initial_length
        ~initial_order:(Sched.Schedule.order req.Engine.Backend.s_initial)
        ~initial_artifact:req.Engine.Backend.s_initial
        ~lb_cost:req.Engine.Backend.s_length_lb
    in
    (schedule, stats)

  let teardown st = Array.iter Wavefront.retire st.wavefronts
end

let backend : Engine.Backend.t = (module Backend_impl)
let register () = Engine.Registry.register backend

let run ?(params = Engine.Params.default) ?(seed = 1) config occ graph =
  Engine.Two_pass.run backend
    { Engine.Backend.null_ctx with Engine.Backend.params; seed; ext = [ Gpu_config config ] }
    (Engine.Region_ctx.of_graph occ graph)

let total_time_ns (r : Engine.Types.result) =
  r.Engine.Types.pass1.Engine.Types.time_ns +. r.Engine.Types.pass2.Engine.Types.time_ns
