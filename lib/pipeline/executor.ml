(* The execute layer of the compile service: a suite becomes a flat list
   of independent region jobs, the jobs fan out over a persistent domain
   pool, and the reports are merged back by index.

   Determinism comes from the split of responsibilities, not from luck:
   everything a job's outcome may depend on — its name, its source
   region, its budget, the config's seeds, its (optional) precomputed
   analysis context — is fixed before any domain starts, and
   [Compile.run_region] is a pure function of those inputs. Which
   domain runs a job, and in which order jobs are claimed, can then
   only change scheduling, never results; the merge step reassembles
   kernel reports in suite order, so the suite report is canonically
   identical to a sequential compile (see [Report_digest]).

   Scheduling is largest-first over one shared cursor
   ([Domain_pool.parallel_for]): workers claim job indices in descending
   region size, so the giants start first and the small jobs level the
   tail.

   Workers write the caller's metrics registry and logger directly (both
   take their own mutex) and carve their lanes from domain-local arenas.
   Only the simulated timeline is private: each job records into its
   worker's ring, the executor remembers the ring slice and clock
   interval per job, and replays the slices in job-index order with a
   per-slice shift — exactly the timeline a sequential compile would
   have laid down, modulo float rounding of the shifts. A job's
   wall-clock span is timed on the caller's recorder and recorded at
   the join. *)

type job = { j_name : string; j_region : Ir.Region.t; j_budget_ns : float }

(* Where a parallel job's trace events sit: the slice [first, last) of
   its worker's ring, the ring's simulated clock around the job, and the
   caller's wall clock around it. *)
type segment = {
  worker : int;
  first : int;
  last : int;
  t0 : float;
  t1 : float;
  wall0 : float;
  wall1 : float;
}

let jobs_of_suite (config : Compile.config) (suite : Workload.Suite.t) =
  let jobs = ref [] in
  List.iter
    (fun (k : Workload.Suite.kernel) ->
      List.iteri
        (fun ri region ->
          let n = Ir.Region.size region in
          jobs :=
            {
              j_name = Printf.sprintf "%s/r%d" k.Workload.Suite.kernel_name ri;
              j_region = region;
              j_budget_ns = Robust.budget_for config.Compile.robust ~n;
            }
            :: !jobs)
        k.Workload.Suite.regions)
    suite.Workload.Suite.kernels;
  Array.of_list (List.rev !jobs)

let run_job ?trace ?(metrics = Obs.Metrics.null) ?(log = Obs.Log.null) ?cache
    (config : Compile.config) job =
  let ctx =
    Option.map (fun cache -> Analysis.get cache config.Compile.occ job.j_region) cache
  in
  Compile.run_region ?trace ~metrics ~log ?ctx ~budget_ns:job.j_budget_ns config
    ~name:job.j_name job.j_region

let run_suite ?(jobs = 1) ?pool ?(trace = Obs.Trace.null)
    ?(metrics = Obs.Metrics.null) ?(log = Obs.Log.null) ?cache
    (config : Compile.config) (suite : Workload.Suite.t) =
  let jobs = max 1 jobs in
  Compile.ensure_backends ();
  let work = jobs_of_suite config suite in
  let njobs = Array.length work in
  let results : Compile.region_report option array = Array.make njobs None in
  let k = min jobs njobs in
  if k <= 1 then
    (* Sequential: record straight into the caller's trace and metrics —
       the byte-exact path every parallel run is measured against. *)
    for i = 0 to njobs - 1 do
      results.(i) <- Some (run_job ~trace ~metrics ~log ?cache config work.(i))
    done
  else begin
    let pool =
      match pool with Some p -> p | None -> Support.Domain_pool.global ()
    in
    let k = min k (Support.Domain_pool.size pool + 1) in
    let tracing = Obs.Trace.enabled trace in
    let rings =
      Array.init k (fun _ ->
          if tracing then Obs.Trace.create ~capacity:(Obs.Trace.capacity trace) ()
          else Obs.Trace.null)
    in
    let logs =
      Array.init k (fun w -> Obs.Log.with_fields log [ ("worker", Obs.Log.Int w) ])
    in
    (* Per-job trace-merge bookkeeping, filled only when tracing. *)
    let segs = Array.make njobs None in
    let run_one w i =
      let ring = rings.(w) in
      let first = Obs.Trace.recorded ring and t0 = Obs.Trace.now ring in
      let wall0 = Obs.Trace.wall_now trace in
      results.(i) <-
        Some (run_job ~trace:ring ~metrics ~log:logs.(w) ?cache config work.(i));
      if tracing then
        segs.(i) <-
          Some
            {
              worker = w;
              first;
              last = Obs.Trace.recorded ring;
              t0;
              t1 = Obs.Trace.now ring;
              wall0;
              wall1 = Obs.Trace.wall_now trace;
            }
    in
    (* Largest first, ties by index: the giants start before the tail
       that levels the workers' finishing times. *)
    let order = Array.init njobs Fun.id in
    Array.stable_sort
      (fun a b ->
        compare (Ir.Region.size work.(b).j_region) (Ir.Region.size work.(a).j_region))
      order;
    let pw0 = Obs.Trace.wall_now trace in
    Support.Domain_pool.parallel_for pool ~workers:k njobs (fun w p ->
        run_one w order.(p));
    let pw1 = Obs.Trace.wall_now trace in
    if tracing then begin
      let mw0 = Obs.Trace.wall_now trace in
      for w = 0 to k - 1 do
        Obs.Trace.name_track trace
          (Obs.Trace.wall_track_base + w)
          (Printf.sprintf "worker %d (wall)" w)
      done;
      (* Trace slices replay in job-index order: job [i]'s events shift by
         (merged clock so far - the clock its ring showed when it started),
         which lands them exactly where a sequential compile would have.
         Its real duration goes on its worker's wall track — what the
         simulated timeline cannot show (utilization, skew). *)
      let off = ref (Obs.Trace.now trace) in
      Array.iteri
        (fun i seg ->
          let s = Option.get seg in
          Obs.Trace.append_range rings.(s.worker) ~into:trace ~first:s.first
            ~last:s.last ~dt:(!off -. s.t0);
          off := !off +. (s.t1 -. s.t0);
          Obs.Trace.span_arg trace
            ~track:(Obs.Trace.wall_track_base + s.worker)
            ~name:("job " ^ work.(i).j_name) ~ts:s.wall0 ~dur:(s.wall1 -. s.wall0)
            ~key:"job" ~value:(float_of_int i))
        segs;
      Obs.Trace.set_now trace !off;
      let caller_track = Obs.Trace.wall_track_base + k in
      Obs.Trace.name_track trace caller_track "executor (wall)";
      Obs.Trace.span_arg trace ~track:caller_track ~name:"pool.run" ~ts:pw0
        ~dur:(pw1 -. pw0) ~key:"workers" ~value:(float_of_int k);
      Obs.Trace.span trace ~track:caller_track ~name:"merge" ~ts:mw0
        ~dur:(Obs.Trace.wall_now trace -. mw0)
    end
  end;
  let report_of i =
    match results.(i) with
    | Some r -> r
    | None -> invalid_arg "Executor.run_suite: job finished without a report"
  in
  (* Merge by index: [work] was built in suite order, so consecutive
     indices within one kernel are its regions in order. *)
  let cursor = ref 0 in
  let kernels =
    List.map
      (fun (k : Workload.Suite.kernel) ->
        let regions =
          List.map
            (fun _ ->
              let r = report_of !cursor in
              incr cursor;
              r)
            k.Workload.Suite.regions
        in
        { Compile.kernel = k; regions })
      suite.Workload.Suite.kernels
  in
  {
    Compile.suite;
    compile_config = config;
    kernels;
  }
