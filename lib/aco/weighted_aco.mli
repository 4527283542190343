(** The alternative cost formulation the paper decided against.

    Section II-A: prior work solved RP-aware scheduling either by
    minimizing a weighted sum of schedule length and RP cost (references
    [8], [9]) or with the two-pass approach; the two-pass approach "was
    found to work better on the GPU" and is what the paper (and
    {!Seq_aco}) uses. This module implements the weighted-sum
    single-pass search so the design choice can be measured rather than
    taken on faith — the bench harness compares the two on the suite's
    ACO-eligible regions. The weighted sum is the objective
    {!Sched.Objective.Weighted}, and the backend is
    {!Seq_aco.make_backend} under it: the CPU colony every two-pass
    CPU backend shares. *)

type result = {
  schedule : Sched.Schedule.t;  (** latency-valid *)
  cost : Sched.Cost.t;
  heuristic_cost : Sched.Cost.t;  (** the AMD baseline *)
  iterations : int;
  work : int;
}

val run : ?params:Engine.Params.t -> ?seed:int -> Machine.Occupancy.t -> Ddg.Graph.t -> result
(** Minimize [length + rp_scalar] with unconstrained latency-aware ants
    in a single pass, starting from the AMD heuristic schedule: the
    {!backend}'s schedule pass, run through its first-class module on a
    colony of its own. The RP scalar already dominates through its
    occupancy term. *)

val backend : Engine.Backend.t
(** The ["weighted"] backend: [Seq_aco.make_backend ~name:"weighted"
    ~policy:As ~objective:Weighted ()]. The objective has no RP pass, so
    the engine skips straight to the schedule pass, whose targets are
    {!Sched.Objective.no_target}; no faults, no trace, no time model.
    Its [best_costs] series carries weighted costs, not lengths. *)

val register : unit -> unit
(** Install {!backend} in {!Engine.Registry} (idempotent). *)
