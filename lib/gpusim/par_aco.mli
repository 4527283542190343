(** The GPU-parallel ACO scheduler (Sections IV-B and V) running on the
    simulated GPU.

    One ant per thread, one wavefront per block; per iteration all
    wavefronts construct schedules in lockstep, a tree reduction selects
    the iteration winner, and the pheromone table is updated in parallel.
    The algorithm itself is exact — it produces real schedules that must
    validate — while its wall time is charged by {!Kernel_sim},
    {!Divergence} and {!Mem_model} under the configuration's
    optimization toggles. *)

type Engine.Backend.ext +=
  | Gpu_config of Config.t
      (** launch geometry, optimization toggles and fault rates (default
          {!Config.bench}); the fault injector is seeded from the
          configuration's fault seed, the region size and [ctx.seed] *)
  | Watchdog of { iteration_deadline_ns : float; max_retries : int }
      (** per-iteration watchdog deadline and the consecutive-failure
          retry allowance (defaults: no deadline, 2 retries) *)
(** Context extensions the ["par"] backend reads in [prepare]. *)

val backend : Engine.Backend.t
(** The ["par"] backend: RP pass, fault injection, flight-recorder
    tracing and a simulated-time model ([Time_ns] budgets). *)

val register : unit -> unit
(** Install {!backend} in {!Engine.Registry} (idempotent). *)

val run :
  ?params:Engine.Params.t ->
  ?seed:int ->
  Config.t ->
  Machine.Occupancy.t ->
  Ddg.Graph.t ->
  Engine.Types.result

val run_from_setup :
  ?params:Engine.Params.t ->
  ?seed:int ->
  ?budget_ns:float ->
  ?iteration_deadline_ns:float ->
  ?max_retries:int ->
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?label:string ->
  Config.t ->
  Engine.Setup.t ->
  Engine.Types.result
(** As {!run} but from a prepared {!Engine.Setup.t}, so the pipeline can
    race the sequential and parallel drivers from identical inputs.

    Observability: [trace] (default {!Obs.Trace.null}) attaches a flight
    recorder — track 0 carries driver-level iteration/pass spans and
    fault instants, track 1 the kernel-stage budget, tracks 2.. one per
    wavefront — timestamped in simulated nanoseconds. [metrics] (default
    {!Obs.Metrics.null}) records per-iteration best-cost and
    pheromone-entropy series named ["<label>passN.*"] plus fault and
    robustness counters. Both default to disabled recorders, which are
    true no-ops: schedules, RNG streams and the reported [minor_words]
    stay byte-identical.

    Robustness: fault injection follows [config.faults] and
    [config.fault_seed] (with every rate zero the injector draws no
    randomness, so the run is byte-identical to one without the fault
    model). The optional controls default to unbounded behaviour:
    - [budget_ns]: per-region compile budget in simulated nanoseconds,
      shared across both passes; an over-budget pass aborts keeping its
      best-so-far artifact and reports [aborted_budget].
    - [iteration_deadline_ns]: watchdog deadline for a single iteration
      ({!Kernel_sim.watchdog_clamp}); a fired watchdog discards the
      iteration's winner and charges exactly the deadline.
    - [max_retries]: consecutive faulted iterations tolerated before the
      pass degrades to its best-so-far ([aborted_faults]). Every
      constructed winner must additionally pass schedule validation
      before it is trusted. *)

val total_time_ns : Engine.Types.result -> float
(** GPU time across both passes. *)
