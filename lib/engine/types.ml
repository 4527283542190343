type fault_counts = {
  lane_faults : int;
  wavefront_hangs : int;
  reduction_drops : int;
  mem_faults : int;
}

let fault_counts_zero =
  { lane_faults = 0; wavefront_hangs = 0; reduction_drops = 0; mem_faults = 0 }

let fault_counts_add a b =
  {
    lane_faults = a.lane_faults + b.lane_faults;
    wavefront_hangs = a.wavefront_hangs + b.wavefront_hangs;
    reduction_drops = a.reduction_drops + b.reduction_drops;
    mem_faults = a.mem_faults + b.mem_faults;
  }

let fault_counts_sub a b =
  {
    lane_faults = a.lane_faults - b.lane_faults;
    wavefront_hangs = a.wavefront_hangs - b.wavefront_hangs;
    reduction_drops = a.reduction_drops - b.reduction_drops;
    mem_faults = a.mem_faults - b.mem_faults;
  }

let fault_counts_total c =
  c.lane_faults + c.wavefront_hangs + c.reduction_drops + c.mem_faults

type stop_reason = Skipped | Patience | Max_iterations | Lower_bound | Budget | Faults

(* Highest precedence first: the declaration order above. *)
let stop_of ~faults ~budget ~lower_bound ~capped =
  if faults then Faults
  else if budget then Budget
  else if lower_bound then Lower_bound
  else if capped then Max_iterations
  else Patience

type pass_stats = {
  invoked : bool;
  stop : stop_reason;
  iterations : int;
  ants_simulated : int;
  work : int;
  time_ns : float;
  improved : bool;
  serialized_ops : int;
  single_path_ops : int;
  lockstep_steps : int;
  ant_steps : int;
  selections : int;
  best_costs : int array;
  minor_words : float;
  retries : int;
  scored_candidates : int;
  pruned_candidates : int;
  fault_counts : fault_counts;
}

let no_pass =
  {
    invoked = false;
    stop = Skipped;
    iterations = 0;
    ants_simulated = 0;
    work = 0;
    time_ns = 0.0;
    improved = false;
    serialized_ops = 0;
    single_path_ops = 0;
    lockstep_steps = 0;
    ant_steps = 0;
    selections = 0;
    best_costs = [||];
    minor_words = 0.0;
    retries = 0;
    scored_candidates = 0;
    pruned_candidates = 0;
    fault_counts = fault_counts_zero;
  }

type result = {
  schedule : Sched.Schedule.t;
  cost : Sched.Cost.t;
  heuristic_schedule : Sched.Schedule.t;
  heuristic_cost : Sched.Cost.t;
  rp_target : Sched.Cost.rp;
  pass2_initial : Sched.Schedule.t;
  pass1 : pass_stats;
  pass2 : pass_stats;
}

type budget = Unlimited | Work of int | Time_ns of float

(* What a finished pass leaves for the next one: work-metered backends
   deduct abstract work units, time-modelled backends deduct simulated
   nanoseconds. Both clamp at zero so an overdrawn pass 1 starves pass 2
   rather than granting it a negative (wrapped) allowance. *)
let budget_minus budget (stats : pass_stats) =
  match budget with
  | Unlimited -> Unlimited
  | Work w -> Work (max 0 (w - stats.work))
  | Time_ns t -> Time_ns (Float.max 0.0 (t -. stats.time_ns))

type caps = { rp_pass : bool; faults : bool; trace : bool; time_model : bool; prune : bool }
