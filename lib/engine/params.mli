(** ACO search parameters.

    Defaults follow the paper: decay factor 0.8 (Section IV-A),
    termination after 1/2/3 improvement-free iterations for regions of
    size [1-49]/[50-99]/[>=100] (Section VI-A), and an ACS-style
    selection rule balancing exploitation and exploration. *)

type t = {
  ants_per_iteration : int;
      (** ants simulated per iteration by the sequential algorithm; the
          parallel algorithm derives its count from the launch geometry *)
  alpha : float;  (** pheromone exponent in the selection formula *)
  beta : float;  (** heuristic exponent *)
  q0 : float;  (** probability of exploitation (argmax) vs exploration (roulette) *)
  decay : float;  (** pheromone retention per iteration, 0.8 *)
  initial_pheromone : float;
  deposit : float;  (** scale of the iteration winner's deposit *)
  max_iterations : int;  (** hard safety cap per pass *)
  heuristic : Sched.Heuristic.kind;  (** guiding heuristic *)
  stall_base_probability : float;
      (** optional-stall insertion probability before damping
          (Section IV-C's heuristic) *)
}

val default : t

val termination_condition : int -> int
(** [termination_condition region_size] is the number of consecutive
    improvement-free iterations after which a pass stops: 1, 2 or 3 by
    the paper's size categories. *)

val size_category : int -> int
(** 0 for [1-49], 1 for [50-99], 2 for [>= 100] — the region-size
    buckets used throughout the evaluation. *)

val size_category_label : int -> string
