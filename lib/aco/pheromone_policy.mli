(** Pluggable pheromone-update rules.

    A policy owns every write to the {!Pheromone} table a colony makes:
    the initial bias ([init]), the per-iteration evaporate / deposit /
    clamp / stagnation step ([update]), and the evaporation-only path
    for failed iterations ([evaporate]). The one iteration loop,
    {!Colony.run_pass}, is generic in the policy, which is what makes
    new update rules (MAX-MIN Ant System here, others later) a [make]
    call instead of a loop fork.

    Two implementations:

    - {!As} — the paper's vanilla Ant System: full evaporation each
      iteration, the iteration winner deposits [deposit / (1 + cost)].
      Byte-identical to the historical inline code: same table, same
      RNG stream, same schedules (qcheck-proved against the frozen
      references in [test/]).
    - {!Mmas} — MAX-MIN Ant System (Skinderowicz, arXiv 2003.11902):
      only the best-so-far solution deposits, the trail is clamped into
      [[tau_min, tau_max]] with [tau_max = deposit / ((1 + best) * rho)]
      and [tau_min = tau_max / 2n], and a colony stagnant for
      {!mmas_stagnation_limit} iterations restarts from a uniform table
      at [tau_max] (at most {!mmas_max_restarts} times per pass,
      metered as ["aco.mmas.restarts"]). A restart reseeds the deposit
      anchor, never the RNG stream. *)

type spec = As | Mmas

type t = {
  spec : spec;
  init : Pheromone.t -> initial_order:int array -> initial_cost:int -> unit;
      (** Reset the table and bias it toward the initial (heuristic)
          solution. Called once per pass, before the first iteration. *)
  update : Pheromone.t -> winner_order:int array -> winner_cost:int -> unit;
      (** One completed iteration: evaporate, deposit, clamp, detect
          stagnation. A winner-less iteration passes {!no_order} and
          [winner_cost = max_int]. Allocates at most the boxed deposit
          amount under {!As}. *)
  evaporate : Pheromone.t -> unit;
      (** A failed iteration: its time passed, so the trail still
          evaporates, but nothing deposits and the stagnation counter is
          untouched. *)
  patience : int;
      (** Improvement-free iterations a driver should tolerate before
          ending the pass: the historical
          [Engine.Params.termination_condition] for {!As}, extended under
          {!Mmas} so every restart window fits. *)
  restarts : unit -> int;  (** Stagnation restarts fired so far. *)
}

val no_order : int array
(** Sentinel order of a winner-less iteration (never read, never
    written — safe to share). *)

val make : spec -> params:Engine.Params.t -> n:int -> metrics:Obs.Metrics.t -> t
(** Build a policy for a region of [n] instructions. All policy state
    is allocated here, at backend [prepare] time, so the per-iteration
    hooks allocate at most the boxed deposit amount. *)

val patience : t -> int
val spec : t -> spec

val restarts : t -> int
(** Restarts fired since [make] (0 under {!As}). *)

val mmas_max_restarts : int
(** Restart budget per pass. *)

val mmas_stagnation_limit : n:int -> int
(** Stagnant iterations before an MMAS restart fires — the plateau
    length the bench's stagnation-escape detector looks for. *)

val mmas_patience : n:int -> int
(** {!Mmas} driver patience: [(max_restarts + 1) * stagnation_limit]. *)
