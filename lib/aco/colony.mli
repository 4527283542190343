(** The ACO iteration loop, and the CPU ant colony.

    {!run_pass} is the one iteration loop of every backend: the paper's
    algorithm with one iteration's ant run as its parameter. The CPU
    colony's iteration ({!sequential}) runs the ants one after another,
    for every backend {!Seq_aco.make_backend} builds (["seq"],
    ["mmas"], ["mmas-spill"], ["weighted"]); the GPU model's ([Gpusim.Par_aco]) runs lockstep
    wavefronts and retries its failed iterations. *)

type search = {
  params : Engine.Params.t;
  pheromone : Pheromone.t;
  policy : Pheromone_policy.t;  (** owns every pheromone write *)
  metrics : Obs.Metrics.t;  (** receives the per-iteration series *)
}
(** What the loop reads and writes; the table carries over from pass 1
    to pass 2 of a region. *)

val search :
  Pheromone_policy.spec -> params:Engine.Params.t -> n:int -> metrics:Obs.Metrics.t -> search
(** A table for [n] instructions and the policy that updates it. *)

type outcome =
  | Winner of Ant.t * int
      (** the iteration's winning ant (valid until the next [run]) and
          its cost *)
  | No_winner  (** a clean iteration in which no ant finished *)
  | Failed  (** a faulted iteration, whose result cannot be trusted *)

type iteration = {
  run : unit -> outcome;  (** run one iteration's ants *)
  settle : outcome -> best_cost:int -> bool;
      (** Called after each iteration's bookkeeping with the outcome as
          the loop counted it ([Failed] for a refused winner) and the
          best cost after it; [false] aborts the pass. The GPU model
          answers [false] only to a [Failed] past its retry allowance. *)
  exhausted : unit -> bool;  (** the compile budget is spent *)
  scored : unit -> int;  (** the ants' cumulative candidate meter *)
  finish : best_cost:int -> Engine.Types.pass_stats -> Engine.Types.pass_stats;
      (** Called once after the pass: fill the fields the iteration
          measures ([work], [ants_simulated]; on the GPU model also its
          time, lockstep counters, retries and fault tallies). *)
}

type ties =
  | Keep  (** only a strictly cheaper winner becomes the artifact *)
  | Replace  (** an equal-cost winner also replaces the artifact *)

val run_pass :
  search ->
  iteration:iteration ->
  ties:ties ->
  artifact_of_ant:(Ant.t -> 'a option) ->
  pass_label:string ->
  initial_cost:int ->
  initial_order:int array ->
  initial_artifact:'a ->
  lb_cost:int ->
  'a * int * Engine.Types.pass_stats
(** One pass, generic in the cost (RP scalar in pass 1, length in pass
    2, the weighted sum in the single-pass backend) and in the artifact
    kept for the best (order in pass 1, schedule in pass 2). The policy
    initialises the table from the initial solution; then, until an
    abort, the budget, [lb_cost], [params.max_iterations] attempted
    iterations or the policy's patience of improvement-free clean
    iterations stops it, each iteration is counted by its outcome:
    - [Winner (ant, cost)]: [artifact_of_ant ant] returning [None]
      fails the iteration. Otherwise the policy deposits along
      [Ant.order ant], a strictly cheaper winner becomes the best and
      resets the stagnation counter, any other advances it, and [ties]
      decides whether an equal-cost winner replaces the artifact.
    - [No_winner]: a winner-less policy update; stagnation advances.
    - [Failed]: the table only evaporates and stagnation stays.

    Every attempted iteration adds one [best_costs] entry after the
    initial cost's; with metering on, also one to the
    ["<pass_label>.best_cost"] and ["<pass_label>.pheromone_entropy"]
    series. Returns (best artifact, its cost, stats): [stop] is the
    highest-precedence condition at exit (abort, budget, bound, cap,
    patience), [minor_words] the allocation inside the loop, and
    [finish] fills the iteration's own fields. *)

(** {1 The CPU colony} *)

type t = {
  search : search;
  rng : Support.Rng.t;  (** root stream; every ant start splits it *)
  ants : Ant.t array;  (** carved from one pooled store ({!Ant.lanes}) *)
  allow_optional_stalls : bool;
}

val prepare :
  policy:Pheromone_policy.spec ->
  allow_optional_stalls:bool ->
  Engine.Backend.ctx ->
  Engine.Region_ctx.t ->
  t
(** Build a colony of [ctx.params.ants_per_iteration] ants
    ({!Ant.lanes}) over the region context's shared analyses, with its
    RNG seeded from [ctx.seed] and the pheromone [policy] recording into
    [ctx.metrics].
    [allow_optional_stalls] lets ants insert the optional stalls of
    Section IV-C. The colony serves both passes of a region: RNG and
    pheromone table carry over. *)

val teardown : t -> unit
(** Release the ants' store ({!Ant.release}), so the next colony on
    this domain reuses it. The ants are dead afterwards. *)

val sequential :
  t ->
  mode:Ant.mode ->
  term:(vgpr:int -> sgpr:int -> int) ->
  budget:Engine.Types.budget ->
  iteration
(** The CPU colony's iteration: each ant starts from its own
    [Rng.split] of the colony stream and runs in turn ({!Ant.run}), and
    the winner is the first finished ant of least cost, its length
    (schedule pass only) plus [term ~vgpr ~sgpr] of its peaks. It never
    fails, charges the table upkeep as work, and is exhausted once its
    work reaches a [Work] [budget] (a [Time_ns] budget raises
    [Invalid_argument]: the CPU colony has no time model).

    [term] must be allocation-free and nondecreasing in each peak: at
    an unfinished ant's {!Ant.length_lb} and running peaks the cost
    bounds the ant's final cost, and the ant is stopped (keeping its
    work) once that bound reaches the best cost an earlier ant of the
    iteration finished with. Without a budget this changes no search
    decision — winners, RNG positions, tables, series and iteration
    counts are those of running every ant to the end — and only [work]
    and the candidate meters fall; under a budget a pass may run more
    iterations. *)
