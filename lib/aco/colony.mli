(** The CPU ant colony: one constructor and one sequential pass loop,
    shared by every CPU backend — the two-pass colonies of {!Seq_aco}
    (["seq"], ["mmas"], ["mmas-spill"]) and the
    weighted-sum colony of {!Weighted_aco}. The GPU-model backend keeps
    its own lockstep loop in [Gpusim.Par_aco]: it breaks ties, meters its
    budget and retries faulted iterations differently. *)

type t = {
  params : Engine.Params.t;
  rng : Support.Rng.t;  (** root stream; every ant start splits it *)
  ants : Ant.t array;
  arena : Support.Arena.t;  (** pooled integer state of every ant *)
  fmat : Support.Fmat.t;  (** pooled score rows of every ant *)
  pheromone : Pheromone.t;
  policy : Pheromone_policy.t;  (** owns every pheromone write *)
  termination : int;  (** improvement-free iterations a pass tolerates *)
  allow_optional_stalls : bool;
  metrics : Obs.Metrics.t;
}

val prepare :
  policy:Pheromone_policy.spec ->
  allow_optional_stalls:bool ->
  Engine.Backend.ctx ->
  Engine.Region_ctx.t ->
  t
(** Build a colony of [ctx.params.ants_per_iteration] ants over the
    region context's shared analyses, backed by one pooled arena and one
    pooled score matrix, with its RNG seeded from [ctx.seed] and the
    pheromone [policy] recording into [ctx.metrics]. The termination
    allowance is the policy's patience, so the loop matches the policy's
    restart schedule. [allow_optional_stalls] lets ants insert the
    optional stalls of Section IV-C. The colony serves both
    passes of a region: RNG and pheromone table carry over. *)

val teardown : t -> unit
(** Return the arena and score matrix to their pools, so the next
    colony on this domain reuses the backing arrays. The ants are dead
    afterwards. *)

val work_of_budget : Engine.Types.budget -> int
(** The budget in the colony's currency, abstract work units
    ([max_int] when unlimited).
    @raise Invalid_argument on a [Time_ns] budget: the CPU colony has no
    time model. *)

val run_pass :
  t ->
  mode:Ant.mode ->
  cost:(length:int -> vgpr:int -> sgpr:int -> int) ->
  artifact_of_ant:(Ant.t -> 'a) ->
  budget_work:int ->
  pass_label:string ->
  initial_cost:int ->
  initial_order:int array ->
  initial_artifact:'a ->
  lb_cost:int ->
  'a * int * Engine.Types.pass_stats
(** One pass: iterate the ants until the best cost reaches [lb_cost] or
    the colony's termination allowance of improvement-free iterations
    passes. Generic in the cost (RP scalar in pass 1, length in pass 2,
    the weighted sum in the single-pass backend) and in the artifact
    kept for the best solution (order in pass 1, schedule in pass 2).

    A finished ant costs [cost ~length ~vgpr ~sgpr] at its length and
    peak pressures. [cost] must be allocation-free and nondecreasing in
    each argument: evaluated at an unfinished ant's {!Ant.length_lb}
    and running peaks it is a lower bound on that ant's final cost, and
    the pass stops the ant (keeping the work it did) once that bound
    reaches the best cost an earlier ant of the same iteration finished
    with — it can no longer win the iteration. Without a budget this
    changes no search decision: winners, RNG positions, pheromone
    tables, best-cost series and iteration counts are those of running
    every ant to the end; only [work] and the candidate meters fall.
    Under a finite budget a pass spends less work per iteration, so it
    may run more iterations before the budget stops it.

    Returns (best artifact, its cost, stats). The stats fill only the
    fields a CPU colony can measure — work units, iteration counts, the
    convergence series, minor words and the candidate meters; the
    GPU-only fields stay at {!Engine.Types.no_pass}'s zeros.
    [budget_work] is a compile budget in abstract work units; a pass
    that exhausts it stops after the current iteration, keeps its
    best-so-far, and stops with [Budget]. The reported stop is the
    highest-precedence condition holding at loop exit
    ([Engine.Types.pass_stats.stop]). With metering on, the pass
    records ["<pass_label>.best_cost"] and
    ["<pass_label>.pheromone_entropy"] series per iteration. *)
