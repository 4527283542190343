(** Robustness policy of the fault-tolerant compile driver.

    The driver's contract is graceful degradation: {!Compile.run_region}
    always emits a valid schedule, and when faults, watchdogs, or compile
    budgets get in the way it steps down — first retrying faulted
    iterations, then keeping a pass's best-so-far, and in the worst case
    shipping the AMD heuristic schedule. This module holds the knobs
    (per-category budgets, the iteration watchdog deadline, the retry
    allowance) and the degradation ledger that records which rung every
    region ended on. *)

type config = {
  compile_budget_ns : float array;
      (** per-region compile budget in simulated nanoseconds, indexed by
          {!Engine.Params.size_category} (out-of-range categories clamp to
          the last entry; an empty array means unbounded) *)
  iteration_deadline_ns : float;  (** watchdog deadline per ACO iteration *)
  max_retries : int;
      (** consecutive faulted iterations tolerated per pass before it
          degrades to its best-so-far *)
}

val default : config
(** Unbounded budgets, no iteration deadline, 2 retries — the fault-free
    pipeline behaves exactly as before. *)

val budgets_of_ms : float -> float array
(** [budgets_of_ms ms] grants small regions [ms] milliseconds, medium
    regions [2*ms] and large regions [4*ms] (budget scales with the
    category because so does iteration cost). *)

val budget_for : config -> n:int -> float
(** Budget in nanoseconds for a region of [n] instructions. *)

val budget_work_of_ns : Gpusim.Config.t -> float -> int
(** Convert a nanosecond budget into the sequential driver's abstract
    work units via the CPU cost model ([max_int] for an infinite
    budget). *)

type degradation =
  | Clean  (** no faults, no budget pressure; full ACO product *)
  | Retried of int
      (** [Retried k]: [k] faulted iterations were re-run (with reseeded
          RNG and backoff) but the region recovered and shipped the ACO
          product *)
  | Budget_exceeded
      (** a pass ran out of compile budget; the best-so-far schedule
          shipped *)
  | Faulted_fallback
      (** retries were exhausted, the final schedule failed validation,
          or the driver trapped an exception; the emitted schedule is
          the pass's best-so-far or the AMD heuristic *)
  | Shed_overload
      (** the compile service shed the request under admission pressure:
          ACO was never attempted and the Critical-Path schedule from
          the region's analysis context shipped (see [Serve]) *)

val degradation_label : degradation -> string

val severity : degradation -> int
(** [Clean] = 0 rising to [Faulted_fallback] = 3 and [Shed_overload] =
    4 (shedding skips ACO entirely, the deepest planned degradation). *)

val classify :
  fell_back:bool -> stop:Engine.Types.stop_reason -> retries:int -> degradation
(** Fold a run's robustness signals into its ledger entry, most severe
    first: [fell_back] (the driver trapped or the guard fired) and a
    [Faults] stop are [Faulted_fallback], a [Budget] stop is
    [Budget_exceeded], and otherwise [retries > 0] is [Retried]. [stop]
    is the most severe stop of the run's passes — [max] of their
    reasons, which are declared in ascending precedence. *)

val observe :
  ?log:Obs.Log.t -> Obs.Trace.t -> Obs.Metrics.t -> region:string -> degradation -> unit
(** Record a region's ledger entry on the flight recorder (an instant on
    the driver track when the region degraded, with the severity as its
    argument), bump the matching ["regions.*"] counter, and — when [log]
    is given — emit a [region.degraded] warn entry. A no-op on disabled
    recorders. *)

type tally = {
  regions : int;
  clean : int;
  retried : int;  (** regions that recovered via retries *)
  budget_exceeded : int;
  faulted_fallback : int;
  shed_overload : int;  (** requests answered with the heuristic under load *)
  total_retries : int;  (** summed retry counts over retried regions *)
}

val empty_tally : tally
val tally_add : tally -> degradation -> tally
val tally_of_list : degradation list -> tally
