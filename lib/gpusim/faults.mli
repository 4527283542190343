(** Deterministic, seeded fault injection for the simulated GPU.

    Stochastic GPU search must tolerate stragglers and corrupted colony
    state (Skinderowicz's GPU MAX-MIN Ant System makes the same point for
    parallel ACO at large); this module models the four fault classes the
    robust driver defends against:

    - {b transient lane faults} — a bit flip corrupts an ant's
      next-instruction choice; the lane's candidate schedule can no
      longer be trusted and is quarantined for the iteration;
    - {b wavefront hangs} — a whole wavefront stops making progress and
      is recovered by the watchdog after a fixed detection penalty;
    - {b dropped reduction messages} — the tree reduction's winner
      message is lost, so the iteration yields no winner;
    - {b memory-transaction errors} — a transaction fails and the step's
      transactions are replayed, costing extra simulated time.

    The injector draws from its own RNG stream, seeded independently of
    every ant ({!Config.t.fault_seed}); faults are replayable from the
    seed, and zero-rate classes consume no randomness at all, so a
    configuration with {!Config.no_faults} is byte-identical to one
    without the fault model. *)

val counts_to_string : Engine.Types.fault_counts -> string
(** ["lane:L hang:H drop:D mem:M"]. Tallies use the engine's
    {!Engine.Types.fault_counts}, the record every backend's pass
    statistics carry, with its arithmetic. *)

type t
(** Injector state: rates, private RNG, tallies of injected faults. *)

val create : ?seed:int -> Config.fault_rates -> t

val disabled : t
(** Shared zero-rate injector: never fires, never draws, never counts. *)

val enabled : t -> bool

val counts : t -> Engine.Types.fault_counts
(** Faults injected so far (monotone; snapshot and
    {!Engine.Types.fault_counts_sub} for per-pass tallies). *)

val lane_fault : t -> bool
(** One per-lane per-iteration trial; [true] means this lane takes a
    transient fault this iteration. Counted when fired. *)

val wavefront_hang : t -> bool
val reduction_drop : t -> bool
val mem_fault : t -> bool

val pick : t -> int -> int
(** Uniform draw in [\[0, bound)] from the injector's stream (used to
    place a lane fault at a random construction step). *)

val hang_penalty_ns : float
(** Simulated time charged for a hung wavefront: one watchdog polling
    interval between the hang and its recovery. *)

val retry_backoff_ns : float
(** Base of the exponential backoff charged to simulated time when a
    faulted iteration is retried with a reseeded RNG. *)
