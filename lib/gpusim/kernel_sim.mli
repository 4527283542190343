(** Kernel-level wall-clock assembly.

    The cooperative kernel of Section IV-B alternates three stages per
    iteration — parallel schedule construction, winner reduction,
    pheromone update — separated by grid-wide synchronizations. This
    module turns per-wavefront construction times into an iteration wall
    time (wavefronts are assigned round-robin to the target's SIMD units;
    a SIMD executes its wavefronts back to back) and adds the reduction,
    table-update and synchronization costs; and it assembles a whole
    pass's time from its summed iteration time plus launch, setup and
    teardown. *)

val construction_time_ns : Config.t -> wavefront_times:float array -> float
(** Wall time of the construction stage: max over SIMD units of the sum
    of the times of the wavefronts assigned to it. *)

val reduction_wall_ops : threads:int -> int
(** Serialized rounds of the tree reduction: [O(log2 threads)] with a
    per-round constant. *)

val update_wall_ops : n:int -> threads:int -> int
(** Pheromone decay + deposit, columns divided across threads. *)

val iteration_time_ns : Config.t -> n:int -> wavefront_times:float array -> float
(** Construction + reduction + update + two grid syncs. *)

val watchdog_clamp : deadline_ns:float -> float -> float * bool
(** [watchdog_clamp ~deadline_ns t] is [(t, false)] when the iteration
    finished within the per-iteration deadline, and
    [(deadline_ns, true)] when the watchdog fired: the iteration is
    charged exactly the deadline and the caller must discard its
    result. An infinite deadline never fires. *)

val trace_iteration :
  Obs.Trace.t -> Config.t -> n:int -> track:int -> ts:float -> construction_ns:float -> unit
(** Record one iteration's stage budget on [track] of the flight
    recorder: construct / sync / reduce / sync / update spans starting at
    simulated time [ts], with the same cost terms {!iteration_time_ns}
    charges. A no-op on a disabled recorder. *)

val pass_time_ns : Config.t -> n:int -> ready_ub:int -> iterations_ns:float -> float
(** One ACO invocation: launch overhead + memory setup + the pass's
    summed iteration (and retry backoff) time [iterations_ns] + teardown
    (Section IV-B's full kernel life cycle). *)
