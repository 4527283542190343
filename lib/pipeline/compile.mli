(** The per-region and per-suite compile flow of Section VI-A.

    Every region is scheduled by the AMD heuristic; when the heuristic
    schedule is not provably optimal (its RP cost or length is above the
    lower bound), the ACO scheduler is invoked. Which ACO — a backend
    registered in {!Engine.Registry} — is chosen per region by the
    configured {!Engine.Dispatch} policy; the default compiles with the
    parallel GPU-model backend (the product compiler) and rides the
    sequential backend along from the same starting points (the timing
    baseline of Tables 3.a/3.b and 5).

    ACO runs here without the cycle-threshold filter, gated only by the
    lower bounds (a pass whose input already meets its bound is
    skipped), while each region's gap — heuristic schedule length minus
    the dependence height — is recorded. {!Report} then synthesizes the
    compiler's output for any cycle-threshold setting (the tuned
    default, and Table 7's sweep) without recompiling: a region whose
    gap is below the threshold is treated as never having invoked ACO
    at all, pass 1 included (Section VI-F calls this "filtering out
    unpromising scheduling regions"). *)

type config = {
  occ : Machine.Occupancy.t;
  gpu : Gpusim.Config.t;
  params : Engine.Params.t;
  filters : Filters.config;
  robust : Robust.config;  (** budgets, watchdog deadline, retry allowance *)
  dispatch : Engine.Dispatch.policy;  (** which backend(s) compile each region *)
  seq_seed : int;
      (** seed for every CPU two-pass colony: a backend with an RP pass
          and no time model (["seq"], ["mmas"], ["mmas-spill"]) *)
  par_seed : int;  (** seed for every other backend *)
  run_sequential : bool;
      (** also time the CPU baseline (skipped when the dispatch already
          runs ["seq"] as a product candidate) *)
}

val ensure_backends : unit -> unit
(** Register the product backends (["seq"], ["par"], ["weighted"],
    ["mmas"], ["mmas-spill"]) in
    {!Engine.Registry}. Idempotent; {!run_region} calls it, so callers
    only need it to enumerate backends before compiling. *)

val make_config :
  ?gpu:Gpusim.Config.t ->
  ?filters:Filters.config ->
  ?robust:Robust.config ->
  ?fault_rate:float ->
  ?fault_seed:int ->
  ?compile_budget_ms:float ->
  ?max_retries:int ->
  ?dispatch:Engine.Dispatch.policy ->
  unit ->
  config
(** Consistent defaults: the sequential ant count equals the parallel
    thread count (the paper compares equal colonies), and [dispatch] is
    {!Engine.Dispatch.default} (the parallel backend everywhere).

    Robustness knobs layer on top of [robust] (default {!Robust.default},
    i.e. fault-free and unbounded): [fault_rate] installs
    {!Gpusim.Config.uniform_faults} on [gpu] (seeded by [fault_seed]),
    [compile_budget_ms] installs {!Robust.budgets_of_ms}, and
    [max_retries] overrides the retry allowance. *)

type backend_run = {
  backend : string;  (** registry name *)
  caps : Engine.Types.caps;
  result : Engine.Types.result;  (** guarded: [result.schedule] is valid *)
  run_pass1_time_ns : float;
      (** simulated pass time — the backend's own clock when it has a
          time model, {!Gpusim.Cpu_model} over its work counter
          otherwise *)
  run_pass2_time_ns : float;
  run_degradation : Robust.degradation;  (** this run's own ledger entry *)
  run_retries : int;  (** faulted iterations re-run across both passes *)
  run_fault_counts : Engine.Types.fault_counts;
}

type region_report = {
  region_name : string;
  n : int;
  size_category : int;
  length_lb : int;
      (** the tight length lower bound, {!Engine.Region_ctx.t}'s
          [length_lb] *)
  heuristic_cost : Sched.Cost.t;
  heuristic_order : int array;
  cp_cost : Sched.Cost.t;  (** Critical-Path schedule (sensitivity check) *)
  pass1_invoked : bool;  (** of the product run *)
  pass2_invoked : bool;  (** of the product run *)
  pass2_gap : int;
      (** heuristic schedule length minus the dependence height
          ({!Engine.Region_ctx.t}'s [height_lb], not [length_lb]: the
          threshold was tuned against the looser bound) — the quantity
          the cycle-threshold filter gates the region's ACO result on
          (known before any ACO work is spent on the region) *)
  aco_cost : Sched.Cost.t;  (** the product backend's result, before filtering *)
  aco_order : int array;
  pass1_only_cost : Sched.Cost.t;  (** product if pass 2 were skipped *)
  pass1_only_order : int array;
  product_backend : string;
      (** the backend whose schedule ships — the dispatch winner *)
  runs : backend_run list;
      (** every backend that compiled this region, dispatch candidates
          first (in candidate order), then the ride-along sequential
          baseline when [run_sequential] added one *)
  degradation : Robust.degradation;  (** the product run's ledger entry *)
  retries : int;  (** of the product run *)
  fault_counts : Engine.Types.fault_counts;  (** of the product run *)
}

type kernel_report = {
  kernel : Workload.Suite.kernel;
  regions : region_report list;  (** in [kernel.regions] order *)
}

type suite_report = {
  suite : Workload.Suite.t;
  compile_config : config;
  kernels : kernel_report list;
}

(** {2 Per-backend accessors}

    [runs] is keyed by backend name; these wrap the common lookups. The
    [seq_*]/[par_*] accessors keep the shape of the pre-engine report:
    an absent ["par"] run reads as {!Engine.Types.no_pass} / [0.0], an
    absent ["seq"] run as [None] / [0.0]. *)

val find_run : region_report -> string -> backend_run option

val product_run : region_report -> backend_run
(** The run behind [product_backend] (always present). *)

val seq_pass1 : region_report -> Engine.Types.pass_stats option
val seq_pass2 : region_report -> Engine.Types.pass_stats option
val par_pass1 : region_report -> Engine.Types.pass_stats
val par_pass2 : region_report -> Engine.Types.pass_stats
val seq_pass1_time_ns : region_report -> float
val seq_pass2_time_ns : region_report -> float
val par_pass1_time_ns : region_report -> float
val par_pass2_time_ns : region_report -> float

val run_region :
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?log:Obs.Log.t ->
  ?ctx:Engine.Region_ctx.t ->
  ?budget_ns:float ->
  config ->
  name:string ->
  Ir.Region.t ->
  region_report
(** Total: always yields a report whose [aco_order] reconstructs into a
    valid schedule. Faults are retried, over-budget passes keep their
    best-so-far, and a backend that traps (or emits an invalid schedule)
    is replaced by the AMD heuristic schedule — the failure mode is
    recorded in the run's [run_degradation], never raised. When the
    dispatch races several backends, the product is the best cost
    (occupancy first, then length; the earlier candidate wins ties).

    [ctx] supplies the region's analysis context (from {!Analysis} or a
    prior {!Engine.Region_ctx.of_region}); without it one is computed
    here. Either way the analyses run once and every raced backend and
    the ride-along baseline consume the same context. [budget_ns]
    overrides the {!Robust.budget_for} size-class budget — the executor
    computes it on the job so a region's budget never depends on which
    domain compiles it.

    [trace] / [metrics] (default disabled, a true no-op) attach the
    flight recorder: the region becomes a span on the driver track
    enclosing the traced backends' passes, the product's degradation
    becomes an instant via {!Robust.observe}, and every backend's
    per-iteration series is recorded under a ["<name>.<backend>."]
    prefix.

    [log] (default disabled) emits one [compile.backend] debug entry
    per raced candidate and a [compile.region] info entry for the
    product; a caller that binds a request id via
    {!Obs.Log.with_fields} sees it stamped on every backend-pass
    entry. *)

val run_suite :
  ?progress:(string -> unit) ->
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?log:Obs.Log.t ->
  ?cache:Analysis.t ->
  config ->
  Workload.Suite.t ->
  suite_report
(** Compile every kernel of the suite (kernels shared between benchmarks
    are compiled once — and once per backend the dispatch runs).
    [progress] receives one message per kernel; [trace] / [metrics] are
    threaded to every {!run_region}. [cache] routes analysis contexts
    through the content-addressed {!Analysis} cache, so structurally
    repeated regions are analysed once; the report is unchanged by the
    cache (see {!Report_digest}). Sequential; {!Executor.run_suite} is
    the multi-domain entry point. *)

val hot_region : kernel_report -> region_report
(** The region backing the kernel's hot loop. Total for any [hot_index]:
    out-of-range indices clamp to the nearest region (raises
    [Invalid_argument] only for a kernel with no regions, which the
    workload generator never produces). *)

val find_kernel : suite_report -> Workload.Suite.benchmark -> kernel_report
(** Kernel report backing a benchmark (kernels are compiled once even
    when shared). *)
