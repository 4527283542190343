(** The backend-agnostic vocabulary of the two-pass scheduling engine:
    one statistics record, one result record and one budget currency
    shared by every backend, ending the near-duplicate definitions the
    sequential and parallel drivers used to carry.

    Fields that a backend cannot measure stay at their neutral value
    (zero / [false] / {!fault_counts_zero}): the sequential CPU colony
    reports no simulated time, divergence or fault counters, while the
    GPU-model colony fills every field. *)

type fault_counts = {
  lane_faults : int;
  wavefront_hangs : int;
  reduction_drops : int;
  mem_faults : int;
}
(** Injected-fault tally of a pass (all zero for backends without fault
    support). The injector itself lives in [Gpusim.Faults], whose
    running tally is a value of this type. *)

val fault_counts_zero : fault_counts
val fault_counts_add : fault_counts -> fault_counts -> fault_counts

val fault_counts_sub : fault_counts -> fault_counts -> fault_counts
(** [fault_counts_sub after before]: the faults injected in between. *)

val fault_counts_total : fault_counts -> int

type stop_reason =
  | Skipped  (** the orchestrator gated the pass off; it never ran *)
  | Patience  (** the policy's improvement-free iterations ran out *)
  | Max_iterations  (** the [max_iterations] safety cap *)
  | Lower_bound  (** the best cost met the pass's lower bound *)
  | Budget  (** the compile budget ran out; the best-so-far ships *)
  | Faults
      (** consecutive faulted iterations exhausted the retry allowance;
          the pass degraded to its best-so-far *)
(** Why a pass stopped, in ascending precedence (see {!pass_stats.stop}). *)

val stop_of : faults:bool -> budget:bool -> lower_bound:bool -> capped:bool -> stop_reason
(** The stop of a pass whose loop just exited: the highest-precedence
    condition that holds — retries exhausted, budget spent, best cost at
    the lower bound, iteration cap reached — and [Patience] when none
    does, since the loop exits on nothing else. *)

type pass_stats = {
  invoked : bool;  (** [stop <> Skipped] *)
  stop : stop_reason;
      (** The highest-precedence condition that held when the pass loop
          exited. Several can hold at once — a pass can meet its bound in
          the iteration that spends its budget — and declaration order is
          precedence, so that pass reports [Budget], and [max] over a
          run's passes is its most severe stop, the one the degradation
          ledger classifies. [invoked] stays beside it because external
          harnesses read that field directly. *)
  iterations : int;
  ants_simulated : int;
  work : int;  (** abstract work units (see [Aco.Ant.work]) plus table upkeep *)
  time_ns : float;  (** simulated wall time; 0 for backends without a time model *)
  improved : bool;  (** beat the pass's initial schedule *)
  serialized_ops : int;  (** divergence-serialized compute ops (GPU model only) *)
  single_path_ops : int;  (** the no-divergence floor for the same steps *)
  lockstep_steps : int;  (** wavefront lockstep steps across all iterations *)
  ant_steps : int;  (** individual ant construction steps *)
  selections : int;  (** ant steps that selected an instruction *)
  best_costs : int array;
      (** convergence series: entry 0 is the initial cost, entry [k] the
          best cost after the [k]th {e attempted} iteration. This is the
          one convention every backend follows: retried iterations (GPU
          model) count as attempts with the best unchanged, and for
          backends that never retry, attempted and completed iterations
          coincide. *)
  minor_words : float;  (** host minor-heap words allocated during the pass *)
  retries : int;  (** faulted iterations re-run with a reseeded stream *)
  scored_candidates : int;
      (** pass-2 candidates whose RP fit was actually evaluated
          ({!Sched.Rp_tracker.scored_candidates} delta across the pass);
          0 for backends/passes that never filter *)
  pruned_candidates : int;
      (** always 0 (no backend prunes candidates); kept for the
          benchmark ledger, which reports it *)
  fault_counts : fault_counts;  (** faults injected during this pass *)
}

val no_pass : pass_stats
(** Stats of a pass that never ran. *)

type result = {
  schedule : Sched.Schedule.t;  (** final latency-valid schedule *)
  cost : Sched.Cost.t;
  heuristic_schedule : Sched.Schedule.t;  (** the AMD baseline schedule *)
  heuristic_cost : Sched.Cost.t;
  rp_target : Sched.Cost.rp;  (** pass-1 outcome, pass-2 constraint *)
  pass2_initial : Sched.Schedule.t;
      (** pass 2's input schedule: the latency-padded pass-1 winner. Kept
          so the pipeline can synthesize what the compiler would emit if
          the cycle-threshold filter skipped pass 2. *)
  pass1 : pass_stats;
  pass2 : pass_stats;
}

type budget = Unlimited | Work of int | Time_ns of float
(** Compile budget, in the currency the backend meters: abstract work
    units for CPU colonies, simulated nanoseconds for backends with a
    time model ({!caps.time_model}). *)

val budget_minus : budget -> pass_stats -> budget
(** Budget left for the next pass after [stats] spent its share; clamps
    at zero. *)

type caps = {
  rp_pass : bool;  (** runs a pass-1 RP search (a [false] backend goes
                       straight to pass 2 from the heuristic order) *)
  time_model : bool;  (** meters simulated time; budgets are [Time_ns] *)
}
(** Capability flags the engine and pipeline read per backend: whether
    pass 1 runs, and which budget currency and seed the backend takes. *)
