(** One simulated wavefront: 64 ants advancing in lockstep
    (Section IV-B maps one ant to one GPU thread; a block is one
    wavefront so no intra-block synchronization is needed).

    Each lockstep step asks every active ant for one construction step,
    charges the divergence-serialized compute cost and the coalescing-
    dependent memory transactions, and honours the wavefront-level
    optimizations: a single exploration coin per step, optional stalls
    only in designated wavefronts, early termination once a lane
    finishes, and a per-wavefront guiding heuristic. *)

type t

val create :
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?track:int ->
  Config.t ->
  Aco.Ant.shared ->
  Engine.Params.t ->
  heuristic:Sched.Heuristic.kind ->
  allow_optional_stalls:bool ->
  t
(** The wavefront's ants, one lane each, carved from one pooled store
    ({!Aco.Ant.lanes}) sized once from the transitive-closure ready-list
    bound; all state is reused across iterations. Every wavefront of a
    colony shares one set of region analyses, the [shared] state.

    [trace] and [metrics] (default {!Obs.Trace.null} /
    {!Obs.Metrics.null}, which cost nothing) record every iteration:
    each lockstep round becomes a span on [track] (default 0), and lane
    quarantines, memory replays and wavefront hangs become instant
    events; metrics record ready-list occupancy, optional stalls and the
    divergence serialization ratio. *)

val lanes : t -> int

val retire : t -> unit
(** Release the lanes' store ({!Aco.Ant.release}). The wavefront must
    not run again after retirement; drivers call this once at backend
    teardown, after the best schedule has been copied out of the
    lanes. *)

val scored_candidates : t -> int
(** Cumulative fit-evaluated pass-2 candidates, summed over the lanes
    ({!Aco.Ant.scored_candidates}); the iteration loop reports its
    delta over a pass. *)

type outcome = {
  time_ns : float;  (** simulated lockstep construction time *)
  work : int;  (** total abstract work of all lanes (CPU-model currency) *)
  serialized_ops : int;  (** compute ops after divergence serialization *)
  single_path_ops : int;  (** compute ops had every step been uniform *)
  steps : int;  (** lockstep steps executed *)
  ant_steps : int;  (** individual ant construction steps (active lanes summed) *)
  selections : int;  (** ant steps that selected an instruction (ranks 0–1) *)
  finished : Aco.Ant.t list;
      (** lanes that completed a schedule, in lane order; their state is
          valid until the next [run_iteration] on this wavefront *)
  hung : bool;
      (** the wavefront hung (injected fault) and was recovered by the
          watchdog; [finished] is empty and [time_ns] is the watchdog
          detection penalty *)
  quarantined : int;
      (** lanes killed by injected transient faults this iteration *)
  mem_faults : int;  (** memory-transaction replays injected this iteration *)
}

val run_iteration :
  ?faults:Faults.t ->
  t ->
  rng:Support.Rng.t ->
  mode:Aco.Ant.mode ->
  pheromone:Aco.Pheromone.t ->
  start_ns:float ->
  outcome
(** Construct one candidate schedule per lane. [rng] seeds the lanes
    (each lane receives an independent split, as each GPU thread
    receives a distinct seed). [faults] (default {!Faults.disabled})
    may hang the whole wavefront, quarantine individual lanes
    mid-construction, or replay a step's memory transactions; it never
    touches [rng], so a disabled injector leaves the construction
    byte-identical. [start_ns] is the simulated time the wavefront
    starts constructing at, the origin of its trace events; nothing
    else reads it. *)
