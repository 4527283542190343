(* Frozen pre-engine reference drivers (only module and field paths are
   qualified for the test tree). The engine differentials in Test_engine
   compare the refactored backends against these goldens field by field
   -- schedules, RNG streams, convergence series, fault tallies,
   minor-heap words -- so a byte-level behaviour change in the engine
   shows up as a test failure, not a silent drift.

   [Seq_ref] is the pre-engine two-pass orchestration over the frozen
   CPU colony loop [Ant_ref.colony_run_pass]; [Par_ref] is the last
   revision of the GPU-model driver that carried its own two-pass
   orchestration, verbatim, and still reports the three stop flags the
   engine folded into [Engine.Types.stop_reason]. Do not modernize this
   file. *)

module Seq_ref = struct
  let run_from_setup ?(params = Engine.Params.default) ?(seed = 1) ?(budget_work = max_int)
      ?(metrics = Obs.Metrics.null) ?(label = "") (setup : Engine.Region_ctx.t) =
    let graph = setup.Engine.Region_ctx.graph in
    let occ = setup.Engine.Region_ctx.occ in
    let n = graph.Ddg.Graph.n in
    let rng = Support.Rng.create seed in
    (* One set of region analyses and one SoA arena back the whole colony. *)
    let shared = Aco.Ant.shared_of_region_ctx ~beta:params.Engine.Params.beta setup in
    let ants =
      Aco.Ant.lanes shared ~count:params.Engine.Params.ants_per_iteration params
    in
    let pheromone = Aco.Pheromone.create ~n ~initial:params.Engine.Params.initial_pheromone in
    let termination = Engine.Params.termination_condition n in
    let rp_scalar_of_ant ant =
      Sched.Cost.rp_scalar_of_peaks occ ~vgpr:(Aco.Ant.peak ant Ir.Reg.Vgpr)
        ~sgpr:(Aco.Ant.peak ant Ir.Reg.Sgpr)
    in
    (* Pass 1: minimize RP, latencies ignored. *)
    let best_order, _, pass1 =
      if setup.Engine.Region_ctx.pass1_needed then
        Ant_ref.colony_run_pass ~params ~rng ~ants ~pheromone ~mode:Aco.Ant.Rp_pass
          ~cost_of_ant:rp_scalar_of_ant ~artifact_of_ant:Aco.Ant.order
          ~allow_optional_stalls:true ~budget_work ~metrics ~pass_label:(label ^ "pass1")
          ~initial_cost:(Sched.Cost.rp_scalar setup.Engine.Region_ctx.pass1_initial_rp)
          ~initial_order:setup.Engine.Region_ctx.pass1_initial_order
          ~initial_artifact:setup.Engine.Region_ctx.pass1_initial_order
          ~lb_cost:(Sched.Cost.rp_scalar setup.Engine.Region_ctx.rp_lb) ~termination
      else
        ( setup.Engine.Region_ctx.pass1_initial_order,
          Sched.Cost.rp_scalar setup.Engine.Region_ctx.pass1_initial_rp,
          Engine.Types.no_pass )
    in
    let rp_target = Engine.Region_ctx.rp_of_order occ graph best_order in
    let target_vgpr, target_sgpr =
      (rp_target.Sched.Cost.aprp_vgpr, rp_target.Sched.Cost.aprp_sgpr)
    in
    (* Pass 2: minimize length under the pass-1 RP target. *)
    let initial_schedule =
      Engine.Region_ctx.pass2_initial setup ~best_pass1_order:best_order ~rp_target
    in
    let initial_length = Sched.Schedule.length initial_schedule in
    (* Pass 2 inherits whatever budget pass 1 left unspent. *)
    let budget2_work =
      if budget_work = max_int then max_int else max 0 (budget_work - pass1.Engine.Types.work)
    in
    let schedule, _, pass2 =
      if initial_length > setup.Engine.Region_ctx.length_lb then
        Ant_ref.colony_run_pass ~params ~rng ~ants ~pheromone
          ~mode:(Aco.Ant.Ilp_pass { target_vgpr; target_sgpr })
          ~cost_of_ant:Aco.Ant.length ~allow_optional_stalls:true ~budget_work:budget2_work
          ~metrics ~pass_label:(label ^ "pass2")
          ~artifact_of_ant:(fun ant ->
            match Aco.Ant.schedule ant with
            | Some s -> s
            | None -> invalid_arg "Seq_aco: finished ant produced invalid schedule")
          ~initial_cost:initial_length
          ~initial_order:(Sched.Schedule.order initial_schedule)
          ~initial_artifact:initial_schedule ~lb_cost:setup.Engine.Region_ctx.length_lb
          ~termination
      else (initial_schedule, initial_length, Engine.Types.no_pass)
    in
    {
      Engine.Types.schedule;
      cost = Sched.Cost.of_schedule occ schedule;
      heuristic_schedule = setup.Engine.Region_ctx.amd_schedule;
      heuristic_cost = setup.Engine.Region_ctx.amd_cost;
      rp_target;
      pass2_initial = initial_schedule;
      pass1;
      pass2;
    }
end

module Par_ref = struct
  type pass_stats = {
    invoked : bool;
    iterations : int;
    ants_simulated : int;
    work : int;
    time_ns : float;
    improved : bool;
    hit_lower_bound : bool;
    serialized_ops : int;
    single_path_ops : int;
    lockstep_steps : int;
    ant_steps : int;
    selections : int;
    best_costs : int array;
    minor_words : float;
    retries : int;
    aborted_budget : bool;
    aborted_faults : bool;
    fault_counts : Engine.Types.fault_counts;
  }

  let no_pass =
    {
      invoked = false;
      iterations = 0;
      ants_simulated = 0;
      work = 0;
      time_ns = 0.0;
      improved = false;
      hit_lower_bound = false;
      serialized_ops = 0;
      single_path_ops = 0;
      lockstep_steps = 0;
      ant_steps = 0;
      selections = 0;
      best_costs = [||];
      minor_words = 0.0;
      retries = 0;
      aborted_budget = false;
      aborted_faults = false;
      fault_counts = Engine.Types.fault_counts_zero;
    }

  type result = {
    schedule : Sched.Schedule.t;
    cost : Sched.Cost.t;
    heuristic_schedule : Sched.Schedule.t;
    heuristic_cost : Sched.Cost.t;
    rp_target : Sched.Cost.rp;
    pass2_initial : Sched.Schedule.t;
    pass1 : pass_stats;
    pass2 : pass_stats;
  }

  (* Wavefront role assignment (Section V-B): when per-wavefront heuristics
     are on, half the wavefronts use the aggressive Critical-Path
     heuristic and a quarter each use Last-Use-Count and source order. *)
  let heuristic_for (config : Gpusim.Config.t) params w =
    if config.Gpusim.Config.opts.Gpusim.Config.per_wavefront_heuristic then
      match w mod 4 with
      | 2 -> Sched.Heuristic.Last_use_count
      | 3 -> Sched.Heuristic.Source_order
      | _ -> Sched.Heuristic.Critical_path
    else params.Engine.Params.heuristic

  let allow_optional_for (config : Gpusim.Config.t) w =
    let frac = config.Gpusim.Config.opts.Gpusim.Config.optional_stall_fraction in
    let allowed =
      int_of_float ((frac *. float_of_int config.Gpusim.Config.num_wavefronts) +. 0.5)
    in
    w < allowed

  let make_wavefronts ~shared ~trace ~metrics config params =
    Array.init config.Gpusim.Config.num_wavefronts (fun w ->
        Gpusim.Wavefront.create ~trace ~metrics ~track:(2 + w) config shared params
          ~heuristic:(heuristic_for config params w)
          ~allow_optional_stalls:(allow_optional_for config w))

  (* One parallel ACO pass on the simulated GPU. Generic in the ant cost
     and the winning artifact, like the sequential driver.

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
  let run_pass (type a) ~params ~(config : Gpusim.Config.t) ~rng ~wavefronts ~pheromone ~mode
      ~(cost_of_ant : Aco.Ant.t -> int) ~(artifact_of_ant : Aco.Ant.t -> a)
      ~(validate_artifact : a -> bool) ~faults ~budget_ns ~iteration_deadline_ns ~max_retries
      ~trace ~metrics ~pass_label ~obs_cursor ~simd_cursor
      ~initial_cost ~(initial_order : int array) ~(initial_artifact : a) ~lb_cost ~termination
      ~n ~ready_ub =
    let open Engine.Params in
    Aco.Pheromone.reset pheromone ~initial:params.initial_pheromone;
    Aco.Pheromone.deposit_path_scaled pheromone initial_order ~deposit:params.deposit
      ~cost:initial_cost;
    let lanes = config.Gpusim.Config.target.Machine.Target.wavefront_size in
    let threads = Gpusim.Config.threads config in
    let faults_before = Gpusim.Faults.counts faults in
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
      let setup_ns = Gpusim.Mem_model.setup_time_ns config ~n ~ready_ub in
      Obs.Trace.span trace ~track:1 ~name:"kernel_launch" ~ts:pass_t0
        ~dur:config.Gpusim.Config.launch_overhead_ns;
      Obs.Trace.span trace ~track:1 ~name:"mem_setup"
        ~ts:(pass_t0 +. config.Gpusim.Config.launch_overhead_ns)
        ~dur:setup_ns;
      obs_cursor.(0) <- pass_t0 +. config.Gpusim.Config.launch_overhead_ns +. setup_ns
    end;
    let minor_before = Gc.minor_words () in
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
    let outcomes : Gpusim.Wavefront.outcome option array = Array.make (max 1 num_wavefronts) None in
    let cost_buf = Array.make threads max_int in
    let red_idx = Array.make threads 0 in
    let elapsed = ref 0.0 in
    let retries = ref 0 in
    let consecutive_failures = ref 0 in
    let aborted_budget = ref false in
    let aborted_faults = ref false in
    let stop = ref false in
    let within_budget () = !elapsed < budget_ns in
    while
      (not !stop) && within_budget () && !best_cost > lb_cost && !no_improve < termination
      && !iterations < params.max_iterations
    do
      incr iterations;
      if tracing then begin
        (* Wavefronts round-robin over the SIMD units; a unit runs its
           wavefronts back to back, so a wavefront's track starts at the
           sum of the times of the earlier wavefronts on the same unit. *)
        Array.fill simd_cursor 0 (Array.length simd_cursor) 0.0;
        obs_cursor.(1) <- obs_cursor.(0)
      end;
      (* Per-thread cost table for the reduction; losers and killed lanes
         report max_int. *)
      Array.fill cost_buf 0 threads max_int;
      let iter_faulted = ref false in
      Array.iteri
        (fun w wavefront ->
          let simd = w mod Array.length simd_cursor in
          let outcome =
            Gpusim.Wavefront.run_iteration ~faults wavefront ~rng ~mode ~pheromone
              ~start_ns:(if tracing then obs_cursor.(1) +. simd_cursor.(simd) else 0.0)
          in
          if tracing then
            simd_cursor.(simd) <- simd_cursor.(simd) +. outcome.Gpusim.Wavefront.time_ns;
          outcomes.(w) <- Some outcome;
          wavefront_times.(w) <- outcome.Gpusim.Wavefront.time_ns;
          work := !work + outcome.Gpusim.Wavefront.work;
          serialized := !serialized + outcome.Gpusim.Wavefront.serialized_ops;
          single := !single + outcome.Gpusim.Wavefront.single_path_ops;
          lockstep_steps := !lockstep_steps + outcome.Gpusim.Wavefront.steps;
          ant_steps := !ant_steps + outcome.Gpusim.Wavefront.ant_steps;
          selections := !selections + outcome.Gpusim.Wavefront.selections;
          ants_total := !ants_total + Gpusim.Wavefront.lanes wavefront;
          if outcome.Gpusim.Wavefront.hung || outcome.Gpusim.Wavefront.quarantined > 0 then
            iter_faulted := true;
          List.iteri
            (fun k ant -> cost_buf.((w * lanes) + k) <- cost_of_ant ant)
            outcome.Gpusim.Wavefront.finished)
        wavefronts;
      let winner_idx = Gpusim.Reduction.min_reduce cost_buf ~scratch:red_idx in
      let winner_cost = cost_buf.(winner_idx) in
      let dropped = Gpusim.Faults.enabled faults && Gpusim.Faults.reduction_drop faults in
      if dropped then iter_faulted := true;
      let iter_time_raw = Gpusim.Kernel_sim.iteration_time_ns config ~n ~wavefront_times in
      let iter_time, watchdog_fired =
        Gpusim.Kernel_sim.watchdog_clamp ~deadline_ns:iteration_deadline_ns iter_time_raw
      in
      if watchdog_fired then iter_faulted := true;
      elapsed := !elapsed +. iter_time;
      if tracing then begin
        Gpusim.Kernel_sim.trace_iteration trace config ~n ~track:1 ~ts:obs_cursor.(1)
          ~construction_ns:(Gpusim.Kernel_sim.construction_time_ns config ~wavefront_times);
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
          | Some o -> List.nth_opt o.Gpusim.Wavefront.finished (winner_idx mod lanes)
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
              Aco.Pheromone.decay pheromone params.decay;
              Aco.Pheromone.deposit_path_scaled pheromone (Aco.Ant.order ant)
                ~deposit:params.deposit ~cost:winner_cost;
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
        (* Guard-and-retry: the table still decays (simulated time passed),
           then the iteration is re-run from a reseeded stream with
           exponential backoff charged to simulated time; [max_retries]
           consecutive failures degrade the pass to its best-so-far. *)
        Aco.Pheromone.decay pheromone params.decay;
        if !consecutive_failures < max_retries then begin
          incr retries;
          incr consecutive_failures;
          ignore (Support.Rng.int64 rng);
          let backoff =
            Gpusim.Faults.retry_backoff_ns *. (2.0 ** float_of_int (!consecutive_failures - 1))
          in
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
          aborted_faults := true;
          stop := true;
          if tracing then
            Obs.Trace.instant trace ~track:0 ~name:"fault_abort" ~ts:obs_cursor.(0);
          if metering then Obs.Metrics.incr metrics "robust.fault_aborts"
        end
      end
      else begin
        Aco.Pheromone.decay pheromone params.decay;
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
    if budget_ns < infinity && not (within_budget ()) then aborted_budget := true;
    (* [elapsed] sums the iteration and backoff times in order *)
    let time_ns = Gpusim.Kernel_sim.pass_time_ns config ~n ~ready_ub ~iterations_ns:!elapsed in
    (* The baseline evaluated the stats record's fields right to left, so
       [fault_counts] (which allocates) landed inside the measured window
       and the convergence series (textually before [minor_words]) must
       stay out of it: bind them explicitly in that order to keep the
       reported delta byte-identical with tracing off. *)
    let fault_counts = Engine.Types.fault_counts_sub (Gpusim.Faults.counts faults) faults_before in
    let minor_delta = Gc.minor_words () -. minor_before in
    let best_costs = Array.sub bc_buf 0 !bc_len in
    if tracing then begin
      let teardown = Gpusim.Mem_model.teardown_time_ns config ~n in
      Obs.Trace.span trace ~track:1 ~name:"mem_teardown"
        ~ts:(pass_t0 +. time_ns -. teardown)
        ~dur:teardown;
      Obs.Trace.span_arg trace ~track:0 ~name:pass_label ~ts:pass_t0 ~dur:time_ns
        ~key:"best_cost"
        ~value:(float_of_int !best_cost);
      if !aborted_budget then
        Obs.Trace.instant trace ~track:0 ~name:"budget_abort" ~ts:obs_cursor.(0);
      Obs.Trace.set_now trace (pass_t0 +. time_ns)
    end;
    if metering && !aborted_budget then Obs.Metrics.incr metrics "robust.budget_aborts";
    ( !best,
      !best_cost,
      {
        invoked = true;
        iterations = !iterations;
        ants_simulated = !ants_total;
        work = !work;
        time_ns;
        improved = !improved;
        hit_lower_bound = !best_cost <= lb_cost;
        serialized_ops = !serialized;
        single_path_ops = !single;
        lockstep_steps = !lockstep_steps;
        ant_steps = !ant_steps;
        selections = !selections;
        best_costs;
        minor_words = minor_delta;
        retries = !retries;
        aborted_budget = !aborted_budget;
        aborted_faults = !aborted_faults;
        fault_counts;
      } )

  let run_from_setup ?(params = Engine.Params.default) ?(seed = 1) ?faults ?(budget_ns = infinity)
      ?(iteration_deadline_ns = infinity) ?(max_retries = 2) ?(trace = Obs.Trace.null)
      ?(metrics = Obs.Metrics.null) ?(label = "") (config : Gpusim.Config.t)
      (setup : Engine.Region_ctx.t) =
    let graph = setup.Engine.Region_ctx.graph in
    let occ = setup.Engine.Region_ctx.occ in
    let n = graph.Ddg.Graph.n in
    let faults =
      match faults with
      | Some f -> f
      | None ->
          if Gpusim.Config.faults_enabled config.Gpusim.Config.faults then
            (* Mix the region size and driver seed into the injector seed so
               different regions see different — but replayable — fault
               patterns. *)
            Gpusim.Faults.create config.Gpusim.Config.faults
              ~seed:(config.Gpusim.Config.fault_seed lxor (n * 0x9e3779b1) lxor (seed * 0x85ebca77))
          else Gpusim.Faults.disabled
    in
    let rng = Support.Rng.create seed in
    (* One set of region analyses (critical path, register layout, closure
       ready-list bound) feeds every wavefront of the colony. *)
    let shared = Aco.Ant.shared_of_region_ctx ~beta:params.Engine.Params.beta setup in
    (* Track layout: 0 = driver, 1 = kernel stages, 2.. = one per
       wavefront. *)
    let wavefronts = make_wavefronts ~shared ~trace ~metrics config params in
    let simds = Machine.Target.total_simds config.Gpusim.Config.target in
    (* Driver-owned simulated-time cursors: [obs_cursor].(0) is the
       driver cursor, (1) the current iteration's start;
       [simd_cursor].(s) sums the construction time of the wavefronts
       already run on SIMD unit [s] this iteration. *)
    let obs_cursor = Array.make 2 0.0 in
    let simd_cursor = Array.make (max 1 simds) 0.0 in
    if Obs.Trace.enabled trace || Obs.Metrics.enabled metrics then begin
      Obs.Trace.name_track trace 0 "driver";
      Obs.Trace.name_track trace 1 "kernel: reduce + pheromone";
      Array.iteri
        (fun w _ -> Obs.Trace.name_track trace (2 + w) (Printf.sprintf "wavefront %d" w))
        wavefronts
    end;
    let pheromone = Aco.Pheromone.create ~n ~initial:params.Engine.Params.initial_pheromone in
    let termination = Engine.Params.termination_condition n in
    let ready_ub = setup.Engine.Region_ctx.ready_ub in
    let rp_scalar_of_ant ant =
      let v, s = Aco.Ant.rp_peaks ant in
      Sched.Cost.rp_scalar (Sched.Cost.rp_of_peaks occ ~vgpr:v ~sgpr:s)
    in
    let best_order, _, pass1 =
      if setup.Engine.Region_ctx.pass1_needed then
        run_pass ~params ~config ~rng ~wavefronts ~pheromone ~mode:Aco.Ant.Rp_pass
          ~cost_of_ant:rp_scalar_of_ant ~artifact_of_ant:Aco.Ant.order
          ~validate_artifact:(fun order -> Result.is_ok (Sched.Schedule.of_order graph order))
          ~faults ~budget_ns ~iteration_deadline_ns ~max_retries ~trace ~metrics
          ~pass_label:(label ^ "pass1") ~obs_cursor ~simd_cursor
          ~initial_cost:(Sched.Cost.rp_scalar setup.Engine.Region_ctx.pass1_initial_rp)
          ~initial_order:setup.Engine.Region_ctx.pass1_initial_order
          ~initial_artifact:setup.Engine.Region_ctx.pass1_initial_order
          ~lb_cost:(Sched.Cost.rp_scalar setup.Engine.Region_ctx.rp_lb)
          ~termination ~n ~ready_ub
      else
        ( setup.Engine.Region_ctx.pass1_initial_order,
          Sched.Cost.rp_scalar setup.Engine.Region_ctx.pass1_initial_rp,
          no_pass )
    in
    let rp_target = Engine.Region_ctx.rp_of_order occ graph best_order in
    let target_vgpr, target_sgpr = (rp_target.Sched.Cost.aprp_vgpr, rp_target.Sched.Cost.aprp_sgpr) in
    let initial_schedule = Engine.Region_ctx.pass2_initial setup ~best_pass1_order:best_order ~rp_target in
    let initial_length = Sched.Schedule.length initial_schedule in
    (* The region's compile budget spans both passes: pass 2 inherits
       whatever pass 1 left. *)
    let budget2_ns =
      if budget_ns = infinity then infinity
      else Float.max 0.0 (budget_ns -. pass1.time_ns)
    in
    let schedule, _, pass2 =
      if initial_length > setup.Engine.Region_ctx.length_lb then
        run_pass ~params ~config ~rng ~wavefronts ~pheromone
          ~mode:(Aco.Ant.Ilp_pass { target_vgpr; target_sgpr })
          ~cost_of_ant:Aco.Ant.length
          ~artifact_of_ant:(fun ant ->
            match Aco.Ant.schedule ant with
            | Some s -> s
            | None -> invalid_arg "Par_aco: finished ant produced invalid schedule")
          ~validate_artifact:(fun s -> Sched.Schedule.is_valid s ~latency_aware:true)
          ~faults ~budget_ns:budget2_ns ~iteration_deadline_ns ~max_retries ~trace ~metrics
          ~pass_label:(label ^ "pass2") ~obs_cursor ~simd_cursor
          ~initial_cost:initial_length
          ~initial_order:(Sched.Schedule.order initial_schedule)
          ~initial_artifact:initial_schedule ~lb_cost:setup.Engine.Region_ctx.length_lb ~termination ~n
          ~ready_ub
      else (initial_schedule, initial_length, no_pass)
    in
    {
      schedule;
      cost = Sched.Cost.of_schedule occ schedule;
      heuristic_schedule = setup.Engine.Region_ctx.amd_schedule;
      heuristic_cost = setup.Engine.Region_ctx.amd_cost;
      rp_target;
      pass2_initial = initial_schedule;
      pass1;
      pass2;
    }

  let run ?params ?seed config occ graph =
    run_from_setup ?params ?seed config (Engine.Region_ctx.of_graph occ graph)

  let total_time_ns r = r.pass1.time_ns +. r.pass2.time_ns

  let total_retries r = r.pass1.retries + r.pass2.retries

  let total_faults r = Engine.Types.fault_counts_add r.pass1.fault_counts r.pass2.fault_counts

  let degraded r =
    r.pass1.aborted_budget || r.pass2.aborted_budget || r.pass1.aborted_faults
    || r.pass2.aborted_faults
end
