type t = {
  config : Config.t;
  ants : Aco.Ant.t array;
  params : Engine.Params.t;
  heuristic : Sched.Heuristic.kind;
  allow_optional : bool;
  fault_at : int array;  (* per-lane injected fault step, -1 = none *)
  maxima : int array;  (* per-path-rank max op cost of one lockstep step *)
  trace : Obs.Trace.t;
  metrics : Obs.Metrics.t;
  track : int;  (* this wavefront's trace track *)
}

let create ?(trace = Obs.Trace.null) ?(metrics = Obs.Metrics.null) ?(track = 0) config shared
    params ~heuristic ~allow_optional_stalls =
  let lanes = config.Config.target.Machine.Target.wavefront_size in
  {
    config;
    ants = Aco.Ant.lanes shared ~count:lanes params;
    params;
    heuristic;
    allow_optional = allow_optional_stalls;
    fault_at = Array.make lanes (-1);
    maxima = Array.make 5 0;
    trace;
    metrics;
    track;
  }

let lanes t = Array.length t.ants

(* The wavefront must not run again afterwards — the par_aco backend
   retires at teardown, after the best schedule has been copied out of
   the lanes. *)
let retire t = Aco.Ant.release t.ants

(* The candidate meter, summed over the lanes. Cumulative (the trackers
   are never reset); the iteration loop reports its delta over a pass. *)
let scored_candidates t =
  Array.fold_left (fun acc a -> acc + Aco.Ant.scored_candidates a) 0 t.ants

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

(* Whether the lane at [i] or a later one is in [status]. *)
let rec any_in ants status i =
  i < Array.length ants && (Aco.Ant.status ants.(i) = status || any_in ants status (i + 1))

let run_iteration ?(faults = Faults.disabled) t ~rng ~mode ~pheromone ~start_ns =
  let config = t.config in
  let opts = config.Config.opts in
  let ants = t.ants in
  let lanes = Array.length ants in
  let tr = t.trace in
  let tracing = Obs.Trace.enabled tr in
  let ms = t.metrics in
  let metering = Obs.Metrics.enabled ms in
  if Faults.enabled faults && Faults.wavefront_hang faults then begin
    if tracing then Obs.Trace.instant tr ~track:t.track ~name:"wavefront_hang" ~ts:start_ns;
    if metering then Obs.Metrics.incr ms "faults.wavefront_hang";
    hang_outcome
  end
  else begin
    for i = 0 to lanes - 1 do
      Aco.Ant.start ants.(i) ~rng:(Support.Rng.split rng) ~heuristic:t.heuristic
        ~allow_optional_stalls:t.allow_optional mode
    done;
    (* Transient lane faults are decided up front (one trial per lane per
       iteration) and strike at an injector-chosen construction step: the
       corrupted lane's candidate can no longer be trusted, so the lane is
       killed — quarantined for the iteration. Partial work is still
       charged: the fault does not refund the time already spent. *)
    let faults_on = Faults.enabled faults in
    if faults_on then begin
      let graph_n = Aco.Pheromone.size pheromone in
      for i = 0 to lanes - 1 do
        t.fault_at.(i) <-
          (if Faults.lane_fault faults then 1 + Faults.pick faults (max 1 graph_n) else -1)
      done
    end;
    let quarantined = ref 0 in
    let mem_faults = ref 0 in
    let optional_stalls = ref 0 in
    let time = ref 0.0 in
    let serialized = ref 0 in
    let single = ref 0 in
    let steps = ref 0 in
    let ant_steps = ref 0 in
    let selections = ref 0 in
    while any_in ants Aco.Ant.Active 0 do
      incr steps;
      let round_start = !time in
      if faults_on then
        for i = 0 to lanes - 1 do
          if t.fault_at.(i) = !steps && Aco.Ant.status ants.(i) = Aco.Ant.Active then begin
            Aco.Ant.kill ants.(i);
            incr quarantined;
            if tracing then
              Obs.Trace.instant_arg tr ~track:t.track ~name:"lane_fault"
                ~ts:(start_ns +. round_start) ~key:"lane" ~value:(float_of_int i);
            if metering then Obs.Metrics.incr ms "faults.lane_quarantined"
          end
        done;
      let force_explore =
        if opts.Config.wavefront_level_explore then
          (* one coin for the whole wavefront: exploit on heads *)
          if Support.Rng.bool rng t.params.Engine.Params.q0 then 0 else 1
        else -1
      in
      let ready_limit =
        match opts.Config.ready_list_limiting with
        | `Off -> 0
        | (`Min | `Mid) as limiting ->
            let mn = ref max_int and mx = ref 0 in
            for i = 0 to lanes - 1 do
              if Aco.Ant.status ants.(i) = Aco.Ant.Active then begin
                let c = Aco.Ant.ready_count ants.(i) in
                if c < !mn then mn := c;
                if c > !mx then mx := c
              end
            done;
            if !mn = max_int then 0
            else max 1 (match limiting with `Min -> !mn | `Mid -> (!mn + !mx + 1) / 2)
      in
      if metering then begin
        (* ready-list occupancy across active lanes at round start *)
        let sum = ref 0 and act = ref 0 in
        for i = 0 to lanes - 1 do
          if Aco.Ant.status ants.(i) = Aco.Ant.Active then begin
            sum := !sum + Aco.Ant.ready_count ants.(i);
            incr act
          end
        done;
        if !act > 0 then
          Obs.Metrics.observe ms "wavefront.ready_occupancy"
            (float_of_int !sum /. float_of_int !act)
      end;
      Array.fill t.maxima 0 5 0;
      let reads_max = ref 0 and reads_sum = ref 0 and stepped = ref 0 in
      for i = 0 to lanes - 1 do
        let ant = ants.(i) in
        if Aco.Ant.status ant = Aco.Ant.Active then begin
          Aco.Ant.step ant ~pheromone ~force_explore ~ready_limit;
          let rank = Aco.Ant.last_rank ant in
          if rank = 3 then incr optional_stalls;
          let sc = Aco.Ant.last_scanned ant and su = Aco.Ant.last_succs ant in
          let cost = Divergence.cost_of ~ready_scanned:sc ~succs_updated:su in
          if cost > t.maxima.(rank) then t.maxima.(rank) <- cost;
          let reads = Divergence.reads_of ~ready_scanned:sc ~succs_updated:su in
          if reads > !reads_max then reads_max := reads;
          reads_sum := !reads_sum + reads;
          if rank <= 1 then incr selections;
          incr stepped
        end
      done;
      ant_steps := !ant_steps + !stepped;
      let serialized_step = Divergence.serialized_of_maxima t.maxima in
      let transactions =
        Mem_model.step_transactions config ~active:!stepped ~reads_max:!reads_max
          ~reads_sum:!reads_sum
      in
      (* A memory-transaction error forces a replay of the step's
         transactions: same data, double the time. *)
      let transactions =
        if faults_on && transactions > 0 && Faults.mem_fault faults then begin
          incr mem_faults;
          if tracing then
            Obs.Trace.instant tr ~track:t.track ~name:"mem_fault_replay"
              ~ts:(start_ns +. !time);
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
          ~ts:(start_ns +. round_start)
          ~dur:(!time -. round_start)
          ~key:"active" ~value:(float_of_int !stepped);
      serialized := !serialized + serialized_step;
      single := !single + Divergence.max_single_of_maxima t.maxima;
      (* Early wavefront termination: a finisher used the fewest cycles any
         lane of this wavefront can still achieve, so the rest cannot win
         the iteration (Section V-B). *)
      if opts.Config.early_wavefront_termination && any_in ants Aco.Ant.Finished 0 then
        for i = 0 to lanes - 1 do
          if Aco.Ant.status ants.(i) = Aco.Ant.Active then Aco.Ant.kill ants.(i)
        done
    done;
    if metering then begin
      Obs.Metrics.add ms "wavefront.optional_stalls" !optional_stalls;
      if !single > 0 then
        Obs.Metrics.observe ms "wavefront.serialization_ratio"
          (float_of_int !serialized /. float_of_int !single)
    end;
    let work = ref 0 and finished = ref [] in
    for i = lanes - 1 downto 0 do
      work := !work + Aco.Ant.work ants.(i);
      if Aco.Ant.status ants.(i) = Aco.Ant.Finished then finished := ants.(i) :: !finished
    done;
    {
      time_ns = !time;
      work = !work;
      serialized_ops = !serialized;
      single_path_ops = !single;
      steps = !steps;
      ant_steps = !ant_steps;
      selections = !selections;
      finished = !finished;
      hung = false;
      quarantined = !quarantined;
      mem_faults = !mem_faults;
    }
  end
