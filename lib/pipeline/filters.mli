(** The compile-time and regression filters of Section VI-D.

    Two filters bound ACO's cost and its execution-time risk:
    - the *cycle-threshold filter* is a region gate: when the heuristic
      schedule is fewer than [cycle_threshold] cycles above the
      region's dependence height ([Compile.region_report.pass2_gap]),
      the region ships its heuristic schedule and its whole ACO result
      is dropped, pass 1 included, as if ACO had never run (a small
      schedule-length win rarely survives un-modeled factors; Table 7
      tunes the threshold to 21). [Report], [Perf_model] and [Timing]
      apply it after the compile through {!region_kept}, so one compile
      serves every threshold;
    - the *post-scheduling filter* compares the final ACO schedule with
      the heuristic schedule and reverts when ACO bought a small
      occupancy gain with a disproportionate length penalty
      (experimentally: occupancy +3 is not worth more than 63 cycles). *)

type config = {
  cycle_threshold : int;
      (** region gate on [pass2_gap]. The paper tunes this to 21 on real-hardware
          latencies; our latency scale is compressed (Ir.Opcode), which
          shifts the tuned value to 10 — the bench harness sweeps the
          paper's full range in Table 7 *)
  revert_occupancy_gain : int;  (** 3 *)
  revert_length_penalty : int;  (** 63 *)
  equal_occupancy_length_slack : int;
      (** at equal occupancy, ship the ACO schedule unless it is more
          than this many cycles longer (differences this small are below
          the cost model's resolution) *)
}

val default : config
(** Tuned settings: threshold 10 (see above), revert rule 3 / 63. *)

val no_filtering : config
(** Threshold 1, revert disabled (for ablations). *)

val region_kept : config -> Compile.region_report -> bool
(** The cycle-threshold gate: the region's [pass2_gap] reaches
    [cycle_threshold], so its ACO result may ship. A region that fails
    it ships its heuristic schedule. *)

type verdict = Keep_aco | Revert_to_heuristic

val post_schedule : config -> heuristic:Sched.Cost.t -> aco:Sched.Cost.t -> verdict
(** The post-scheduling selection: keep the ACO schedule when it is at
    least as good on occupancy and not worse on length at equal
    occupancy; revert on occupancy loss, on a pure length regression, or
    when the length penalty of an occupancy gain exceeds
    [revert_length_penalty] cycles (the paper's tuned rule: occupancy +3
    is not worth more than 63 cycles). *)
