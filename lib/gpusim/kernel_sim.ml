let construction_time_ns (config : Config.t) ~wavefront_times =
  let simds = Machine.Target.total_simds config.target in
  let per_simd = Array.make simds 0.0 in
  Array.iteri
    (fun w time ->
      let s = w mod simds in
      per_simd.(s) <- per_simd.(s) +. time)
    wavefront_times;
  Array.fold_left Float.max 0.0 per_simd

let log2_ceil n =
  let rec go v acc = if v >= n then acc else go (v * 2) (acc + 1) in
  go 1 0

let reduction_wall_ops ~threads = (8 * log2_ceil threads) + 8

let update_wall_ops ~n ~threads = (2 * (((n + 1) * n / max threads 1) + 1)) + 4

let iteration_time_ns (config : Config.t) ~n ~wavefront_times =
  let threads = Config.threads config in
  let ops = reduction_wall_ops ~threads + update_wall_ops ~n ~threads in
  construction_time_ns config ~wavefront_times
  +. (float_of_int ops *. config.gpu_ns_per_op)
  +. (2.0 *. config.sync_overhead_ns)

(* Watchdog rule for one iteration: an iteration that overruns the
   deadline is aborted at the deadline — its time is clamped (the
   watchdog fired and recovery began) and its result is discarded by the
   caller. *)
let watchdog_clamp ~deadline_ns time_ns =
  if time_ns > deadline_ns then (deadline_ns, true) else (time_ns, false)

(* Flight-recorder view of one iteration's stage budget: the same cost
   terms iteration_time_ns charges, laid out on the kernel track as
   construct / sync / reduce / sync / update spans starting at [ts].
   Pure bookkeeping — it records what the model already charged and
   never feeds back into any time. *)
let trace_iteration trace (config : Config.t) ~n ~track ~ts ~construction_ns =
  if Obs.Trace.enabled trace then begin
    let threads = Config.threads config in
    let gpu = config.gpu_ns_per_op in
    let reduce_ns = float_of_int (reduction_wall_ops ~threads) *. gpu in
    let update_ns = float_of_int (update_wall_ops ~n ~threads) *. gpu in
    let sync = config.sync_overhead_ns in
    Obs.Trace.span trace ~track ~name:"construct" ~ts ~dur:construction_ns;
    let t1 = ts +. construction_ns in
    Obs.Trace.span trace ~track ~name:"grid_sync" ~ts:t1 ~dur:sync;
    let t2 = t1 +. sync in
    Obs.Trace.span trace ~track ~name:"reduce" ~ts:t2 ~dur:reduce_ns;
    let t3 = t2 +. reduce_ns in
    Obs.Trace.span trace ~track ~name:"grid_sync" ~ts:t3 ~dur:sync;
    Obs.Trace.span trace ~track ~name:"pheromone_update" ~ts:(t3 +. sync)
      ~dur:update_ns
  end

let pass_time_ns (config : Config.t) ~n ~ready_ub ~iterations_ns =
  config.launch_overhead_ns
  +. Mem_model.setup_time_ns config ~n ~ready_ub
  +. iterations_ns
  +. Mem_model.teardown_time_ns config ~n
