(** Stand-in for AMD's production scheduler
    (GCNMaxOccupancySchedStrategy, reference [65] of the paper).

    A greedy, latency-aware list scheduler that keeps occupancy as the
    primary objective: among the ready instructions it keeps those whose
    scheduling preserves the best achievable occupancy (predicted through
    the incremental RP tracker) and picks the one with the highest
    critical-path priority. This is the baseline every experiment
    compares against ("base LLVM" / "AMD scheduler" in Tables 2, 5 and
    Figure 4). *)

val run :
  ?cp:Ddg.Critpath.t -> ?layout:Rp_tracker.layout -> Machine.Occupancy.t -> Ddg.Graph.t ->
  Schedule.t
(** Schedule the region. The result always validates with latencies.
    [cp] and [layout] (computed when omitted) are the region's critical
    path and register layout, shared with its other consumers. *)

val run_with_cost : Machine.Occupancy.t -> Ddg.Graph.t -> Schedule.t * Cost.t
