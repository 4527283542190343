(** Classic greedy list scheduling driven by a single heuristic.

    Used to build initial schedules for the ACO search (Section IV-A: an
    initial schedule is constructed with a heuristic such as
    Critical-Path or Last-Use-Count) and as a comparison point in the
    scheduling-sensitivity filter. *)

val run :
  ?latency_aware:bool ->
  ?cp:Ddg.Critpath.t ->
  ?layout:Rp_tracker.layout ->
  Ddg.Graph.t ->
  Heuristic.kind ->
  Schedule.t
(** Schedule the whole region, issuing the highest-priority ready
    instruction each cycle and stalling when none is ready.
    [latency_aware] defaults to [true]; pass [false] for the pass-1
    (order-only) variant. [cp] and [layout] (computed when omitted) are
    the region's critical path and register layout. The result always
    validates. *)

val run_order :
  ?cp:Ddg.Critpath.t -> ?layout:Rp_tracker.layout -> Ddg.Graph.t -> Heuristic.kind -> int array
(** Pass-1 convenience: the instruction order of
    [run ~latency_aware:false]. *)
