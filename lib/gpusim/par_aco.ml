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
  search : Aco.Colony.search;
  config : Config.t;
  rng : Support.Rng.t;
  wavefronts : Wavefront.t array;
  faults : Faults.t;
  iteration_deadline_ns : float;
  max_retries : int;
  trace : Obs.Trace.t;
  obs_cursor : float array;
  simd_cursor : float array;
  n : int;
  ready_ub : int;
  graph : Ddg.Graph.t;
  rp_scalar_of_ant : Aco.Ant.t -> int;
}

(* One pass's iteration on the simulated GPU (Section IV-B): every
   wavefront constructs in lockstep, a tree reduction picks the winner,
   and the kernel stages are charged to simulated time. A hung
   wavefront, a quarantined lane that leaves no winner, a dropped
   reduction message or a fired watchdog fails the iteration, as does a
   winner whose artifact the loop refuses; [settle] retries a failed
   iteration from a reseeded stream after a backoff, at most
   [max_retries] consecutive times. *)
let lockstep st ~mode ~(cost_of_ant : Aco.Ant.t -> int) ~budget ~pass_label =
  (* The GPU model meters simulated nanoseconds, so its budget currency
     is [Time_ns]; a [Work] budget indicates a pipeline wiring bug. *)
  let budget_ns =
    match budget with
    | Engine.Types.Unlimited -> infinity
    | Engine.Types.Time_ns t -> t
    | Engine.Types.Work _ ->
        invalid_arg "Par_aco: work budgets belong to backends without a time model"
  in
  let { search = { Aco.Colony.pheromone; metrics; _ }; config; rng; wavefronts; faults;
        iteration_deadline_ns; max_retries; trace; obs_cursor; simd_cursor; n; ready_ub; _ } =
    st
  in
  let lanes = config.target.Machine.Target.wavefront_size in
  let threads = Config.threads config in
  let faults_before = Faults.counts faults in
  let tracing = Obs.Trace.enabled trace in
  let metering = Obs.Metrics.enabled metrics in
  let pass_t0 = Obs.Trace.now trace in
  if tracing then begin
    let setup_ns = Mem_model.setup_time_ns config ~n ~ready_ub in
    Obs.Trace.span trace ~track:1 ~name:"kernel_launch" ~ts:pass_t0
      ~dur:config.launch_overhead_ns;
    Obs.Trace.span trace ~track:1 ~name:"mem_setup"
      ~ts:(pass_t0 +. config.launch_overhead_ns)
      ~dur:setup_ns;
    obs_cursor.(0) <- pass_t0 +. config.launch_overhead_ns +. setup_ns
  end;
  let work = ref 0 in
  let serialized = ref 0 in
  let single = ref 0 in
  let lockstep_steps = ref 0 in
  let ant_steps = ref 0 in
  let selections = ref 0 in
  let retries = ref 0 in
  let failures = ref 0 in
  let num_wavefronts = Array.length wavefronts in
  let wavefront_times = Array.make (max 1 num_wavefronts) 0.0 in
  let finished = Array.make (max 1 num_wavefronts) [] in
  let cost_buf = Array.make threads max_int in
  let red_cost = Array.make threads 0 in
  let red_idx = Array.make threads 0 in
  (* [clock].(0) sums the simulated time of the pass's iterations and
     retry backoffs, [clock].(1) holds the last iteration's. *)
  let clock = [| 0.0; 0.0 |] in
  let run () =
    if tracing then begin
      (* Wavefronts round-robin over the SIMD units; a unit runs its
         wavefronts back to back, so a wavefront's track starts at the
         sum of the times of the earlier wavefronts on the same unit.
         The wavefronts read and advance these cursors themselves
         (installed via [Wavefront.set_obs]). *)
      Array.fill simd_cursor 0 (Array.length simd_cursor) 0.0;
      obs_cursor.(1) <- obs_cursor.(0)
    end;
    (* Per-thread cost table for the reduction; losers and killed lanes
       report max_int. *)
    Array.fill cost_buf 0 threads max_int;
    let faulted = ref false in
    for w = 0 to num_wavefronts - 1 do
      let wavefront = wavefronts.(w) in
      let outcome = Wavefront.run_iteration ~faults wavefront ~rng ~mode ~pheromone in
      finished.(w) <- outcome.Wavefront.finished;
      wavefront_times.(w) <- outcome.Wavefront.time_ns;
      work := !work + outcome.Wavefront.work;
      serialized := !serialized + outcome.Wavefront.serialized_ops;
      single := !single + outcome.Wavefront.single_path_ops;
      lockstep_steps := !lockstep_steps + outcome.Wavefront.steps;
      ant_steps := !ant_steps + outcome.Wavefront.ant_steps;
      selections := !selections + outcome.Wavefront.selections;
      if outcome.Wavefront.hung || outcome.Wavefront.quarantined > 0 then faulted := true;
      List.iteri
        (fun k ant -> cost_buf.((w * lanes) + k) <- cost_of_ant ant)
        outcome.Wavefront.finished
    done;
    let winner_cost, winner_idx =
      Reduction.min_reduce_into ~costs:cost_buf ~scratch_cost:red_cost ~scratch_idx:red_idx
    in
    let dropped = Faults.enabled faults && Faults.reduction_drop faults in
    let iter_time, watchdog_fired =
      Kernel_sim.watchdog_clamp ~deadline_ns:iteration_deadline_ns
        (Kernel_sim.iteration_time_ns config ~n ~wavefront_times)
    in
    clock.(0) <- clock.(0) +. iter_time;
    clock.(1) <- iter_time;
    if tracing then begin
      Kernel_sim.trace_iteration trace config ~n ~track:1 ~ts:obs_cursor.(1)
        ~construction_ns:(Kernel_sim.construction_time_ns config ~wavefront_times);
      obs_cursor.(0) <- obs_cursor.(1) +. iter_time;
      if watchdog_fired then
        Obs.Trace.instant trace ~track:0 ~name:"watchdog_fired" ~ts:obs_cursor.(0);
      if dropped then Obs.Trace.instant trace ~track:1 ~name:"reduction_drop" ~ts:obs_cursor.(0)
    end;
    if metering then begin
      if watchdog_fired then Obs.Metrics.incr metrics "faults.watchdog_fired";
      if dropped then Obs.Metrics.incr metrics "faults.reduction_drop"
    end;
    if dropped || watchdog_fired then Aco.Colony.Failed
    else if winner_cost < max_int then
      (* The winner's thread index decomposes into its wavefront and its
         position in that wavefront's finished list. *)
      Aco.Colony.Winner
        (List.nth finished.(winner_idx / lanes) (winner_idx mod lanes), winner_cost)
    else if !faulted then Aco.Colony.Failed
    else Aco.Colony.No_winner
  in
  let settle outcome ~best_cost =
    let go_on =
      match outcome with
      | Aco.Colony.Winner _ ->
          failures := 0;
          true
      | Aco.Colony.No_winner -> true
      | Aco.Colony.Failed when !failures < max_retries ->
          (* reseed, and back off in simulated time *)
          incr retries;
          incr failures;
          ignore (Support.Rng.int64 rng);
          let backoff = Faults.retry_backoff_ns *. (2.0 ** float_of_int (!failures - 1)) in
          clock.(0) <- clock.(0) +. backoff;
          if tracing then begin
            Obs.Trace.instant_arg trace ~track:0 ~name:"retry" ~ts:obs_cursor.(0)
              ~key:"attempt"
              ~value:(float_of_int !failures);
            Obs.Trace.span trace ~track:0 ~name:"retry_backoff" ~ts:obs_cursor.(0) ~dur:backoff;
            obs_cursor.(0) <- obs_cursor.(0) +. backoff
          end;
          if metering then Obs.Metrics.incr metrics "robust.retries";
          true
      | Aco.Colony.Failed ->
          if tracing then Obs.Trace.instant trace ~track:0 ~name:"fault_abort" ~ts:obs_cursor.(0);
          if metering then Obs.Metrics.incr metrics "robust.fault_aborts";
          false
    in
    if tracing then
      Obs.Trace.span_arg trace ~track:0 ~name:"iteration" ~ts:obs_cursor.(1) ~dur:clock.(1)
        ~key:"best_cost" ~value:(float_of_int best_cost);
    go_on
  in
  let exhausted () = budget_ns < infinity && not (clock.(0) < budget_ns) in
  let finish ~best_cost stats =
    (* one entry, [clock].(0): the pass's summed iteration and backoff times *)
    let time_ns = Kernel_sim.pass_time_ns_buf config ~n ~ready_ub ~times:clock ~count:1 in
    let budget_abort = exhausted () in
    if tracing then begin
      let teardown = Mem_model.teardown_time_ns config ~n in
      Obs.Trace.span trace ~track:1 ~name:"mem_teardown"
        ~ts:(pass_t0 +. time_ns -. teardown)
        ~dur:teardown;
      Obs.Trace.span_arg trace ~track:0 ~name:pass_label ~ts:pass_t0 ~dur:time_ns
        ~key:"best_cost"
        ~value:(float_of_int best_cost);
      if budget_abort then
        Obs.Trace.instant trace ~track:0 ~name:"budget_abort" ~ts:obs_cursor.(0);
      Obs.Trace.set_now trace (pass_t0 +. time_ns)
    end;
    if metering && budget_abort then Obs.Metrics.incr metrics "robust.budget_aborts";
    {
      stats with
      Engine.Types.ants_simulated = stats.Engine.Types.iterations * threads;
      work = !work;
      time_ns;
      serialized_ops = !serialized;
      single_path_ops = !single;
      lockstep_steps = !lockstep_steps;
      ant_steps = !ant_steps;
      selections = !selections;
      retries = !retries;
      fault_counts = Engine.Types.fault_counts_sub (Faults.counts faults) faults_before;
    }
  in
  {
    Aco.Colony.run;
    settle;
    exhausted;
    scored =
      (fun () ->
        Array.fold_left (fun acc w -> acc + Wavefront.scored_candidates w) 0 wavefronts);
    finish;
  }

module Backend_impl = struct
  let name = "par"

  let caps = { Engine.Types.rp_pass = true; time_model = true }

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
    let ready_ub = Aco.Ant.shared_ready_ub shared in
    let rp_scalar_of_ant ant =
      let v, s = Aco.Ant.rp_peaks ant in
      Sched.Cost.rp_scalar (Sched.Cost.rp_of_peaks occ ~vgpr:v ~sgpr:s)
    in
    {
      search = Aco.Colony.search Aco.Pheromone_policy.As ~params ~n ~metrics;
      config;
      rng;
      wavefronts;
      faults;
      iteration_deadline_ns;
      max_retries;
      trace;
      obs_cursor;
      simd_cursor;
      n;
      ready_ub;
      graph;
      rp_scalar_of_ant;
    }

  (* The lockstep iteration under the one loop. An equal-cost winner
     still becomes the emitted artifact: the ACO build ships the
     schedule the ants constructed last. *)
  let run_order_pass st (req : Engine.Backend.order_request) =
    let order, _, stats =
      Aco.Colony.run_pass st.search
        ~iteration:
          (lockstep st ~mode:Aco.Ant.Rp_pass ~cost_of_ant:st.rp_scalar_of_ant
             ~budget:req.Engine.Backend.o_budget ~pass_label:req.Engine.Backend.o_label)
        ~ties:Aco.Colony.Replace
        ~artifact_of_ant:(fun ant ->
          let order = Aco.Ant.order ant in
          if Result.is_ok (Sched.Schedule.of_order st.graph order) then Some order else None)
        ~pass_label:req.Engine.Backend.o_label
        ~initial_cost:req.Engine.Backend.o_initial_cost
        ~initial_order:req.Engine.Backend.o_initial_order
        ~initial_artifact:req.Engine.Backend.o_initial_order
        ~lb_cost:req.Engine.Backend.o_lb_cost
    in
    (order, stats)

  let run_schedule_pass st (req : Engine.Backend.schedule_request) =
    let schedule, _, stats =
      Aco.Colony.run_pass st.search
        ~iteration:
          (lockstep st
             ~mode:
               (Aco.Ant.Ilp_pass
                  {
                    target_vgpr = req.Engine.Backend.s_target_vgpr;
                    target_sgpr = req.Engine.Backend.s_target_sgpr;
                  })
             ~cost_of_ant:Aco.Ant.length ~budget:req.Engine.Backend.s_budget
             ~pass_label:req.Engine.Backend.s_label)
        ~ties:Aco.Colony.Replace ~artifact_of_ant:Aco.Ant.schedule
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
