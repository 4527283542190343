(** The execute layer: fan a suite's regions over a persistent domain
    pool.

    Scheduling regions are independent compilation problems, so the
    suite flattens into jobs, each carrying what its outcome depends on
    beyond the config — name, source region, size-class budget — plus,
    through the shared {!Analysis} cache, its analysis context. Workers
    claim job indices from one shared cursor
    ({!Support.Domain_pool.parallel_for}) in descending region size, so
    the giants start first and the small jobs level the tail. The
    reports merge back by index, which makes the suite report
    canonically identical ({!Report_digest}) to the one-worker compile
    for every jobs count. {!run_suite} is the only suite driver.

    Workers write the caller's metrics registry and logger directly;
    only the simulated timeline is recorded privately. Each worker
    traces into its own flight-recorder ring, and the per-job ring
    slices replay in job-index order on the caller's simulated
    timeline, reconstructing the sequential trace up to float rounding
    of the per-slice shifts, so tracing works at {e any} jobs count.
    The registry exports names sorted, so a parallel run's counters
    export the same rows, in the same order, as a sequential run's. *)

type job = {
  j_name : string;  (** ["<kernel>/r<i>"], as in sequential compiles *)
  j_region : Ir.Region.t;
  j_budget_ns : float;  (** {!Robust.budget_for} of the region's size class *)
}

val jobs_of_suite : Compile.config -> Workload.Suite.t -> job array
(** The suite flattened in suite order: kernels in order, each kernel's
    regions in order. *)

val run_job :
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?log:Obs.Log.t ->
  ?cache:Analysis.t ->
  Compile.config ->
  job ->
  Compile.region_report
(** Compile one job — {!Compile.run_region} on the job's own name and
    budget, seeded by [config], with the analysis context drawn from
    [cache] when one is shared. *)

val run_suite :
  ?jobs:int ->
  ?pool:Support.Domain_pool.t ->
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?log:Obs.Log.t ->
  ?cache:Analysis.t ->
  Compile.config ->
  Workload.Suite.t ->
  Compile.suite_report
(** Compile the whole suite on [jobs] workers (default 1; values below 1
    clamp to 1). [jobs = 1] compiles sequentially on the caller,
    recording straight into [trace] and [metrics]; [jobs > 1] runs on
    [pool] (default {!Support.Domain_pool.global}, spawned once per
    process and reused across calls), clamped to the pool's size plus
    the calling domain, with workers claiming jobs largest first (ties
    in suite order). The report is canonically identical to the
    [jobs = 1] report with the same configuration, for any [jobs],
    [pool] and [cache] setting.

    [metrics] and [log] (default disabled) are shared across workers —
    both are mutex-protected — with each worker's log entries stamped
    with its index. A traced parallel run additionally lays down
    {e wall-clock} tracks (one per worker plus one for the caller, ids
    from {!Obs.Trace.wall_track_base}): a span per job with real
    duration, timed on [trace]'s wall clock, and the caller's
    [pool.run] / [merge] phases — a worker was idle for whatever part
    of [pool.run] its job spans leave uncovered. The simulated timeline
    is untouched by them. *)
