type config = {
  cycle_threshold : int;
  revert_occupancy_gain : int;
  revert_length_penalty : int;
  equal_occupancy_length_slack : int;
}

let default =
  {
    cycle_threshold = 10;
    revert_occupancy_gain = 3;
    revert_length_penalty = 63;
    equal_occupancy_length_slack = 3;
  }

let no_filtering =
  {
    cycle_threshold = 1;
    revert_occupancy_gain = max_int;
    revert_length_penalty = max_int;
    equal_occupancy_length_slack = max_int;
  }

let region_kept config (r : Compile.region_report) =
  r.Compile.pass2_gap >= config.cycle_threshold

type verdict = Keep_aco | Revert_to_heuristic

let post_schedule config ~(heuristic : Sched.Cost.t) ~(aco : Sched.Cost.t) =
  let occ_gain = aco.rp.occupancy - heuristic.rp.occupancy in
  let length_penalty = aco.length - heuristic.length in
  if occ_gain < 0 then Revert_to_heuristic
  else if occ_gain = 0 then
    (* At equal occupancy the ACO schedule ships unless it is clearly
       longer: a few cycles are invisible to the cost model (and exactly
       where un-modeled factors live). *)
    if length_penalty > config.equal_occupancy_length_slack then Revert_to_heuristic
    else Keep_aco
  else if length_penalty > config.revert_length_penalty then
    (* The paper's tuned rule, read literally: even an occupancy gain of
       [revert_occupancy_gain] waves is not worth more than
       [revert_length_penalty] cycles. *)
    Revert_to_heuristic
  else Keep_aco
