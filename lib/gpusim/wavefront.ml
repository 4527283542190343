type t = {
  config : Config.t;
  ants : Aco.Ant.t array;
  params : Engine.Params.t;
  heuristic : Sched.Heuristic.kind;
  allow_optional : bool;
  arena : Support.Arena.t;
  fmat : Support.Fmat.t;
  arena_words : int;
  fault_at : int array;  (* per-lane injected fault step, -1 = none *)
  maxima : int array;  (* per-path-rank max op cost of one lockstep step *)
  (* Observability hooks. Mutable fields (not optional arguments) so the
     per-iteration call adds no [Some] wrapping inside the measured
     minor-words window; scratch arrays are preallocated here so the
     traced path needs no fresh refs in the hot loop either. *)
  mutable trace : Obs.Trace.t;
  mutable metrics : Obs.Metrics.t;
  mutable track : int;
  (* Simulated-time cursors shared with the driver: [obs_cursor].(1) is
     the current iteration's start and [simd_cursor].(simd) the summed
     time of earlier wavefronts on this SIMD unit. Owned by the driver
     and installed via [set_obs]; reachable through [t] so the traced
     hot loops capture nothing beyond what the untraced ones do. *)
  mutable obs_cursor : float array;
  mutable simd_cursor : float array;
  mutable simd : int;
  obs_f : float array;  (* [0] = round start, [1] = iteration base (traced only) *)
  obs_i : int array;  (* [0] = optional stalls this iteration *)
}

let create ?shared config graph params ~heuristic ~allow_optional_stalls =
  let lanes = config.Config.target.Machine.Target.wavefront_size in
  let shared =
    match shared with
    | Some s -> s
    | None -> Aco.Ant.prepare_shared ~beta:params.Engine.Params.beta graph
  in
  let ints, floats = Aco.Ant.arena_demand shared in
  let fmat_rows, fmat_cols = Aco.Ant.fmat_demand shared in
  let arena = Support.Arena.take ~ints:(lanes * ints) ~floats:(lanes * floats) in
  let fmat = Support.Fmat.take ~rows:(lanes * fmat_rows) ~cols:fmat_cols in
  {
    config;
    ants =
      Array.init lanes (fun lane ->
          Aco.Ant.create ~shared ~arena ~fmat:(fmat, lane * fmat_rows) graph params);
    params;
    heuristic;
    allow_optional = allow_optional_stalls;
    arena;
    fmat;
    arena_words = Support.Arena.words arena;
    fault_at = Array.make lanes (-1);
    maxima = Array.make 5 0;
    trace = Obs.Trace.null;
    metrics = Obs.Metrics.null;
    track = 0;
    obs_cursor = Array.make 2 0.0;
    simd_cursor = Array.make 1 0.0;
    simd = 0;
    obs_f = Array.make 2 0.0;
    obs_i = Array.make 1 0;
  }

let lanes t = Array.length t.ants

let arena_words t = t.arena_words

(* Returns the arena to the domain-local pool. The wavefront must not run
   again afterwards — the par_aco backend retires at teardown, after the
   best schedule has been copied out of the lanes. *)
let retire t =
  Support.Arena.give t.arena;
  Support.Fmat.give t.fmat

(* The candidate meter, summed over the lanes. Cumulative (the trackers
   are never reset); drivers snapshot deltas around a pass, outside their
   minor-words windows. *)
let scored_candidates t =
  Array.fold_left (fun acc a -> acc + Aco.Ant.scored_candidates a) 0 t.ants

let set_obs t ~trace ~metrics ~track ~obs_cursor ~simd_cursor ~simd =
  t.trace <- trace;
  t.metrics <- metrics;
  t.track <- track;
  t.obs_cursor <- obs_cursor;
  t.simd_cursor <- simd_cursor;
  t.simd <- simd

type outcome = {
  time_ns : float;
  work : int;
  serialized_ops : int;
  single_path_ops : int;
  steps : int;
  ant_steps : int;
  selections : int;
  finished : Aco.Ant.t list;
  hung : bool;
  quarantined : int;
  mem_faults : int;
}

let hang_outcome =
  {
    time_ns = Faults.hang_penalty_ns;
    work = 0;
    serialized_ops = 0;
    single_path_ops = 0;
    steps = 0;
    ant_steps = 0;
    selections = 0;
    finished = [];
    hung = true;
    quarantined = 0;
    mem_faults = 0;
  }

let run_iteration ?(faults = Faults.disabled) t ~rng ~mode ~pheromone =
  let config = t.config in
  let opts = config.Config.opts in
  let tr = t.trace in
  let tracing = Obs.Trace.enabled tr in
  let ms = t.metrics in
  let metering = Obs.Metrics.enabled ms in
  (* Guarded read: the cursors are driver-owned scratch, so this costs no
     allocation; computing it only under [tracing] keeps even the float
     arithmetic off the untraced path. *)
  let base = if tracing then t.obs_cursor.(1) +. t.simd_cursor.(t.simd) else 0.0 in
  if tracing then t.obs_f.(1) <- base;
  if Faults.enabled faults && Faults.wavefront_hang faults then begin
    if tracing then begin
      Obs.Trace.instant tr ~track:t.track ~name:"wavefront_hang" ~ts:base;
      t.simd_cursor.(t.simd) <- t.simd_cursor.(t.simd) +. Faults.hang_penalty_ns
    end;
    if metering then Obs.Metrics.incr ms "faults.wavefront_hang";
    hang_outcome
  end
  else begin
  Array.iter
    (fun ant ->
      Aco.Ant.start ant ~rng:(Support.Rng.split rng) ~heuristic:t.heuristic
        ~allow_optional_stalls:t.allow_optional mode)
    t.ants;
  (* Transient lane faults are decided up front (one trial per lane per
     iteration) and strike at an injector-chosen construction step: the
     corrupted lane's candidate can no longer be trusted, so the lane is
     killed — quarantined for the iteration. Partial work is still
     charged: the fault does not refund the time already spent. *)
  let faults_on = Faults.enabled faults in
  if faults_on then begin
    let graph_n = Aco.Pheromone.size pheromone in
    for i = 0 to Array.length t.ants - 1 do
      t.fault_at.(i) <-
        (if Faults.lane_fault faults then 1 + Faults.pick faults (max 1 graph_n) else -1)
    done
  end;
  let quarantined = ref 0 in
  let mem_faults = ref 0 in
  let time = ref 0.0 in
  let serialized = ref 0 in
  let single = ref 0 in
  let steps = ref 0 in
  let ant_steps = ref 0 in
  let selections = ref 0 in
  t.obs_i.(0) <- 0;
  let any_active () = Array.exists (fun a -> Aco.Ant.status a = Aco.Ant.Active) t.ants in
  while any_active () do
    incr steps;
    if tracing then t.obs_f.(0) <- !time;
    if faults_on then
      Array.iteri
        (fun i ant ->
          if t.fault_at.(i) = !steps && Aco.Ant.status ant = Aco.Ant.Active then begin
            Aco.Ant.kill ant;
            incr quarantined;
            (* Everything here goes through [t] and its scratch arrays
               ([t.obs_f.(1)] = base, [t.obs_f.(0)] = round start), never
               through [time]/[base]/[tr]/[ms] directly: capturing the
               [time] float ref would defeat its unboxing, and any extra
               capture grows this per-round closure on the untraced path. *)
            if Obs.Trace.enabled t.trace then
              Obs.Trace.instant_arg t.trace ~track:t.track ~name:"lane_fault"
                ~ts:(t.obs_f.(1) +. t.obs_f.(0))
                ~key:"lane" ~value:(float_of_int i);
            if Obs.Metrics.enabled t.metrics then
              Obs.Metrics.incr t.metrics "faults.lane_quarantined"
          end)
        t.ants;
    let force_explore =
      if opts.Config.wavefront_level_explore then
        (* exploit on heads: [step] received [Some (not coin)] *)
        if Support.Rng.bool rng t.params.Engine.Params.q0 then 0 else 1
      else -1
    in
    let ready_limit =
      match opts.Config.ready_list_limiting with
      | `Off -> 0
      | (`Min | `Mid) as mode ->
          let mn = ref max_int and mx = ref 0 in
          Array.iter
            (fun ant ->
              if Aco.Ant.status ant = Aco.Ant.Active then begin
                let c = Aco.Ant.ready_count ant in
                if c < !mn then mn := c;
                if c > !mx then mx := c
              end)
            t.ants;
          if !mn = max_int then 0
          else max 1 (match mode with `Min -> !mn | `Mid -> (!mn + !mx + 1) / 2)
    in
    if metering then begin
      (* ready-list occupancy across active lanes at round start *)
      let sum = ref 0 and act = ref 0 in
      Array.iter
        (fun ant ->
          if Aco.Ant.status ant = Aco.Ant.Active then begin
            sum := !sum + Aco.Ant.ready_count ant;
            incr act
          end)
        t.ants;
      if !act > 0 then
        Obs.Metrics.observe ms "wavefront.ready_occupancy"
          (float_of_int !sum /. float_of_int !act)
    end;
    Array.fill t.maxima 0 5 0;
    let reads_max = ref 0 and reads_sum = ref 0 and stepped = ref 0 in
    Array.iter
      (fun ant ->
        if Aco.Ant.status ant = Aco.Ant.Active then begin
          Aco.Ant.step_hot ant ~pheromone ~force_explore ~ready_limit;
          let rank = Aco.Ant.last_rank ant in
          (* optional-stall tally for metrics; unconditional int store so
             the closure captures nothing extra *)
          if rank = 3 then t.obs_i.(0) <- t.obs_i.(0) + 1;
          let sc = Aco.Ant.last_scanned ant and su = Aco.Ant.last_succs ant in
          let cost = Divergence.cost_of ~ready_scanned:sc ~succs_updated:su in
          if cost > t.maxima.(rank) then t.maxima.(rank) <- cost;
          let reads = Divergence.reads_of ~ready_scanned:sc ~succs_updated:su in
          if reads > !reads_max then reads_max := reads;
          reads_sum := !reads_sum + reads;
          if rank <= 1 then incr selections;
          incr stepped
        end)
      t.ants;
    ant_steps := !ant_steps + !stepped;
    let serialized_step = Divergence.serialized_of_maxima t.maxima in
    let transactions =
      Mem_model.step_transactions_acc config ~active:!stepped ~reads_max:!reads_max
        ~reads_sum:!reads_sum
    in
    (* A memory-transaction error forces a replay of the step's
       transactions: same data, double the time. *)
    let transactions =
      if faults_on && transactions > 0 && Faults.mem_fault faults then begin
        incr mem_faults;
        if tracing then
          Obs.Trace.instant tr ~track:t.track ~name:"mem_fault_replay"
            ~ts:(base +. !time);
        if metering then Obs.Metrics.incr ms "faults.mem_replay";
        2 * transactions
      end
      else transactions
    in
    time :=
      !time
      +. (float_of_int serialized_step *. config.Config.gpu_ns_per_op)
      +. (float_of_int transactions *. config.Config.mem_transaction_ns);
    if tracing then
      Obs.Trace.span_arg tr ~track:t.track ~name:"lockstep_round"
        ~ts:(base +. t.obs_f.(0))
        ~dur:(!time -. t.obs_f.(0))
        ~key:"active" ~value:(float_of_int !stepped);
    serialized := !serialized + serialized_step;
    single := !single + Divergence.max_single_of_maxima t.maxima;
    (* Early wavefront termination: a finisher used the fewest cycles any
       lane of this wavefront can still achieve, so the rest cannot win
       the iteration (Section V-B). *)
    if
      opts.Config.early_wavefront_termination
      && Array.exists (fun a -> Aco.Ant.status a = Aco.Ant.Finished) t.ants
    then
      Array.iter (fun a -> if Aco.Ant.status a = Aco.Ant.Active then Aco.Ant.kill a) t.ants
  done;
  if tracing then t.simd_cursor.(t.simd) <- t.simd_cursor.(t.simd) +. !time;
  if metering then begin
    Obs.Metrics.add ms "wavefront.optional_stalls" t.obs_i.(0);
    if !single > 0 then
      Obs.Metrics.observe ms "wavefront.serialization_ratio"
        (float_of_int !serialized /. float_of_int !single)
  end;
  let work = Array.fold_left (fun acc a -> acc + Aco.Ant.work a) 0 t.ants in
  let finished =
    Array.fold_left
      (fun acc a -> if Aco.Ant.status a = Aco.Ant.Finished then a :: acc else acc)
      [] t.ants
    |> List.rev
  in
  {
    time_ns = !time;
    work;
    serialized_ops = !serialized;
    single_path_ops = !single;
    steps = !steps;
    ant_steps = !ant_steps;
    selections = !selections;
    finished;
    hung = false;
    quarantined = !quarantined;
    mem_faults = !mem_faults;
  }
  end
