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

(* Track layout of the flight recorder: 0 = driver, 1 = kernel stages,
   2.. = one per wavefront. *)
let make_wavefronts ~shared ~trace ~metrics config params =
  Array.init config.Config.num_wavefronts (fun w ->
      Wavefront.create ~trace ~metrics ~track:(2 + w) config shared params
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
  n : int;
  ready_ub : int;
  graph : Ddg.Graph.t;
  rp_scalar_of_ant : Aco.Ant.t -> int;
}

(* Simulated time of one pass: [elapsed] sums its iterations' and retry
   backoffs' times. The rest is the flight recorder's, advanced only
   while tracing: [last] is the latest iteration's time, [cursor] the
   driver's position on the trace's time axis and [iter_start] the
   current iteration's start. *)
type clock = {
  mutable elapsed : float;
  mutable last : float;
  mutable cursor : float;
  mutable iter_start : float;
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
        iteration_deadline_ns; max_retries; trace; n; ready_ub; _ } =
    st
  in
  let lanes = config.target.Machine.Target.wavefront_size in
  let threads = Config.threads config in
  let faults_before = Faults.counts faults in
  let tracing = Obs.Trace.enabled trace in
  let metering = Obs.Metrics.enabled metrics in
  let pass_t0 = Obs.Trace.now trace in
  let clock = { elapsed = 0.0; last = 0.0; cursor = 0.0; iter_start = 0.0 } in
  if tracing then begin
    let setup_ns = Mem_model.setup_time_ns config ~n ~ready_ub in
    Obs.Trace.span trace ~track:1 ~name:"kernel_launch" ~ts:pass_t0
      ~dur:config.launch_overhead_ns;
    Obs.Trace.span trace ~track:1 ~name:"mem_setup"
      ~ts:(pass_t0 +. config.launch_overhead_ns)
      ~dur:setup_ns;
    clock.cursor <- pass_t0 +. config.launch_overhead_ns +. setup_ns
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
  let reduction_scratch = Array.make threads 0 in
  (* Wavefronts round-robin over the SIMD units; a unit runs its
     wavefronts back to back, so while tracing, a wavefront's track
     starts at the summed times of the earlier wavefronts on its unit,
     [simd_time].(w mod simds). Only units that receive a wavefront need
     an entry. *)
  let simds = max 1 (min (Machine.Target.total_simds config.target) num_wavefronts) in
  let simd_time = Array.make simds 0.0 in
  let run () =
    if tracing then begin
      Array.fill simd_time 0 (Array.length simd_time) 0.0;
      clock.iter_start <- clock.cursor
    end;
    (* Per-thread cost table for the reduction; losers and killed lanes
       report max_int. *)
    Array.fill cost_buf 0 threads max_int;
    let faulted = ref false in
    for w = 0 to num_wavefronts - 1 do
      let s = w mod simds in
      let outcome =
        Wavefront.run_iteration ~faults wavefronts.(w) ~rng ~mode ~pheromone
          ~start_ns:(if tracing then clock.iter_start +. simd_time.(s) else 0.0)
      in
      if tracing then simd_time.(s) <- simd_time.(s) +. outcome.Wavefront.time_ns;
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
    let winner_idx = Reduction.min_reduce cost_buf ~scratch:reduction_scratch in
    let winner_cost = cost_buf.(winner_idx) in
    let dropped = Faults.enabled faults && Faults.reduction_drop faults in
    let iter_time, watchdog_fired =
      Kernel_sim.watchdog_clamp ~deadline_ns:iteration_deadline_ns
        (Kernel_sim.iteration_time_ns config ~n ~wavefront_times)
    in
    clock.elapsed <- clock.elapsed +. iter_time;
    if tracing then begin
      clock.last <- iter_time;
      Kernel_sim.trace_iteration trace config ~n ~track:1 ~ts:clock.iter_start
        ~construction_ns:(Kernel_sim.construction_time_ns config ~wavefront_times);
      clock.cursor <- clock.iter_start +. iter_time;
      if watchdog_fired then
        Obs.Trace.instant trace ~track:0 ~name:"watchdog_fired" ~ts:clock.cursor;
      if dropped then Obs.Trace.instant trace ~track:1 ~name:"reduction_drop" ~ts:clock.cursor
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
          clock.elapsed <- clock.elapsed +. backoff;
          if tracing then begin
            Obs.Trace.instant_arg trace ~track:0 ~name:"retry" ~ts:clock.cursor ~key:"attempt"
              ~value:(float_of_int !failures);
            Obs.Trace.span trace ~track:0 ~name:"retry_backoff" ~ts:clock.cursor ~dur:backoff;
            clock.cursor <- clock.cursor +. backoff
          end;
          if metering then Obs.Metrics.incr metrics "robust.retries";
          true
      | Aco.Colony.Failed ->
          if tracing then
            Obs.Trace.instant trace ~track:0 ~name:"fault_abort" ~ts:clock.cursor;
          if metering then Obs.Metrics.incr metrics "robust.fault_aborts";
          false
    in
    if tracing then
      Obs.Trace.span_arg trace ~track:0 ~name:"iteration" ~ts:clock.iter_start ~dur:clock.last
        ~key:"best_cost" ~value:(float_of_int best_cost);
    go_on
  in
  let exhausted () = budget_ns < infinity && not (clock.elapsed < budget_ns) in
  let finish ~best_cost stats =
    let time_ns = Kernel_sim.pass_time_ns config ~n ~ready_ub ~iterations_ns:clock.elapsed in
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
        Obs.Trace.instant trace ~track:0 ~name:"budget_abort" ~ts:clock.cursor;
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
    let wavefronts = make_wavefronts ~shared ~trace ~metrics config params in
    if Obs.Trace.enabled trace then begin
      Obs.Trace.name_track trace 0 "driver";
      Obs.Trace.name_track trace 1 "kernel: reduce + pheromone";
      Array.iteri
        (fun w _ -> Obs.Trace.name_track trace (2 + w) (Printf.sprintf "wavefront %d" w))
        wavefronts
    end;
    let ready_ub = rc.Engine.Region_ctx.ready_ub in
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
