(** Greedy cycle-driven list scheduling: the one loop every greedy
    schedule is built by, and its three pick rules — {!run} (a single
    heuristic: the initial schedules of the ACO search, Section IV-A, and
    the filters' comparison point), {!amd} (the production-scheduler
    baseline) and {!constrained} (pass 2's RP-ceiling input). [cp] and
    [layout] (computed when omitted) are the region's critical path and
    register layout, shared with its other consumers. *)

val schedule_with :
  ?latency_aware:bool ->
  ?cp:Ddg.Critpath.t ->
  ?layout:Rp_tracker.layout ->
  Ddg.Graph.t ->
  pick:(Heuristic.ctx -> int list -> int option) ->
  Schedule.t option
(** Each cycle with ready instructions, issue the one [pick] returns
    (from the non-empty ready list, with the construction state in the
    context's tracker) or stall when it declines; a cycle with nothing
    ready stalls without allocating. A decline with nothing semi-ready
    corners the loop: [None]. The schedule is read off the ready list's
    recorded issue cycles. [latency_aware] defaults to [true]; [false]
    is the pass-1 (order-only) variant, which never stalls. *)

val run :
  ?latency_aware:bool ->
  ?cp:Ddg.Critpath.t ->
  ?layout:Rp_tracker.layout ->
  Ddg.Graph.t ->
  Heuristic.kind ->
  Schedule.t
(** Issue the highest-priority ready instruction each cycle. *)

val run_order :
  ?cp:Ddg.Critpath.t -> ?layout:Rp_tracker.layout -> Ddg.Graph.t -> Heuristic.kind -> int array
(** Pass-1 convenience: the instruction order of
    [run ~latency_aware:false]. *)

val amd :
  ?cp:Ddg.Critpath.t -> ?layout:Rp_tracker.layout -> Machine.Occupancy.t -> Ddg.Graph.t ->
  Schedule.t
(** Stand-in for AMD's production scheduler
    (GCNMaxOccupancySchedStrategy, reference [65] of the paper), the
    baseline every experiment compares against ("base LLVM" / "AMD
    scheduler" in Tables 2, 5 and Figure 4). Occupancy comes first: of
    the ready instructions it keeps those whose scheduling preserves the
    best achievable occupancy (predicted through the incremental RP
    tracker) and, once the live VGPRs pass 3/4 of what that occupancy
    admits, those that do not grow them; of these it issues the highest
    critical-path priority. Latency-aware. *)

val constrained :
  ?cp:Ddg.Critpath.t ->
  ?layout:Rp_tracker.layout ->
  Ddg.Graph.t ->
  target_vgpr:int ->
  target_sgpr:int ->
  Schedule.t option
(** Pass 2 needs an input schedule within the pass-1 RP target; the
    latency-padded pass-1 order always is, but serializes aggressively.
    This is a second, usually much shorter, candidate: latency-aware
    Critical-Path greedy restricted to the ready instructions that keep
    both class peaks within the targets, stalling while none fits but
    something is in flight; [None] when cornered. *)
