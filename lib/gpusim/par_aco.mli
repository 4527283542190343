(** The GPU-parallel ACO scheduler (Sections IV-B and V) running on the
    simulated GPU.

    One ant per thread, one wavefront per block; per iteration all
    wavefronts construct schedules in lockstep, a tree reduction selects
    the iteration winner, and the pheromone table is updated in parallel.
    The iteration loop is the CPU colony's ([Aco.Colony.run_pass]); this
    backend supplies the lockstep iteration and ships an equal-cost
    winner ([Aco.Colony.Replace]). The algorithm itself is exact — it
    produces real schedules that must validate — while its wall time is
    charged by {!Kernel_sim}, {!Divergence} and {!Mem_model} under the
    configuration's optimization toggles. *)

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
    tracing and a simulated-time model ([Time_ns] budgets).

    Observability: [ctx.trace] attaches a flight recorder — track 0
    carries driver-level iteration/pass spans and fault instants, track
    1 the kernel-stage budget, tracks 2.. one per wavefront —
    timestamped in simulated nanoseconds; wavefronts round-robin over
    the SIMD units, so a wavefront's rounds start where the earlier
    wavefronts on its unit ended. [ctx.metrics] records
    per-iteration best-cost and pheromone-entropy series named
    ["<label>passN.*"] plus fault and robustness counters. Disabled
    recorders are true no-ops: schedules, RNG streams and simulated
    times stay byte-identical, and they allocate nothing inside a
    pass.

    Robustness: fault injection follows the [Gpu_config]'s [faults] and
    [fault_seed] (with every rate zero the injector draws no randomness,
    so the run is byte-identical to one without the fault model). An
    iteration winner whose artifact does not build — an order that is
    not a valid schedule, a schedule that does not validate — fails the
    iteration like an injected fault, and:
    - a [Time_ns] budget is shared across both passes; an over-budget
      pass aborts keeping its best-so-far artifact and stops with
      [Budget];
    - the [Watchdog] deadline bounds a single iteration
      ({!Kernel_sim.watchdog_clamp}); a fired watchdog discards the
      iteration's winner and charges exactly the deadline;
    - a failed iteration evaporates the table without a deposit and is
      retried from a reseeded stream after an exponential backoff
      charged to simulated time; after [max_retries] consecutive failed
      iterations the pass degrades to its best-so-far and stops with
      [Faults]. *)

val register : unit -> unit
(** Install {!backend} in {!Engine.Registry} (idempotent). *)

val run :
  ?params:Engine.Params.t ->
  ?seed:int ->
  Config.t ->
  Machine.Occupancy.t ->
  Ddg.Graph.t ->
  Engine.Types.result
(** Analyse a region and schedule it with {!backend} on the given GPU
    configuration: unlimited budget, no watchdog, 2 retries, disabled
    recorders. Deterministic for a fixed seed. A budget, a watchdog,
    recorders or a shared context go through [Engine.Two_pass.run
    backend ctx rc], the path the compile pipeline takes. *)

val total_time_ns : Engine.Types.result -> float
(** GPU time across both passes. *)
