type t = {
  ants_per_iteration : int;
  alpha : float;
  beta : float;
  q0 : float;
  decay : float;
  initial_pheromone : float;
  deposit : float;
  max_iterations : int;
  heuristic : Sched.Heuristic.kind;
  stall_base_probability : float;
}

let default =
  {
    ants_per_iteration = 128;
    alpha = 1.0;
    beta = 2.0;
    q0 = 0.9;
    decay = 0.8;
    initial_pheromone = 1.0;
    deposit = 1.0;
    max_iterations = 32;
    heuristic = Sched.Heuristic.Critical_path;
    stall_base_probability = 0.5;
  }

let size_category n = if n < 50 then 0 else if n < 100 then 1 else 2

let termination_condition n = size_category n + 1

let size_category_label = function
  | 0 -> "1-49"
  | 1 -> "50-99"
  | _ -> ">=100"
