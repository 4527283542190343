(** A single ant constructing one candidate schedule, exposed as an
    explicit step machine.

    The step interface exists because the parallel driver executes the 64
    ants of a wavefront in lockstep, one construction step per simulated
    GPU step (Section IV-B); the sequential driver simply steps each ant
    to completion in turn. After each step the [last_*] accessors report
    what kind of operation the ant performed and how much work it
    scanned, which is exactly what the divergence and memory models of
    the GPU simulator charge for.

    All per-ant state (one ready list, the RP tracker, candidate
    scratch) is allocated once at [create] — batched into a
    caller-supplied {!Support.Arena} when ants form a colony — and reused
    across iterations, mirroring the paper's
    no-dynamic-allocation-on-the-GPU rule (Section V-A). The ready list
    serves both passes: {!start} sets its latency mode (ignored in the
    RP pass, honoured in the ILP pass). A {!step} allocates nothing:
    candidates are scored over an array slice with reusable scratch
    buffers sized by the transitive-closure ready-list bound. *)

type mode = Rp_pass | Ilp_pass of { target_vgpr : int; target_sgpr : int }

type status = Active | Finished | Dead

type shared
(** Region-wide state shared by every ant of a colony: critical path,
    register layout, transitive-closure ready-list bound, the tails of
    {!length_lb}, and the eta^beta rows of the
    construction-state-independent heuristics (critical path, source
    order). *)

val prepare_shared :
  ?cp:Ddg.Critpath.t ->
  ?layout:Sched.Rp_tracker.layout ->
  ?ready_ub:int ->
  ?tails:int array ->
  beta:float ->
  Ddg.Graph.t ->
  shared
(** Omitted analyses are computed from the graph; passing them reuses
    work already done elsewhere (notably a shared
    {!Engine.Region_ctx.t}). The critical-path and source-order
    eta^beta rows are built here, once per colony, raised to [beta]:
    every ant of the colony reads them in place instead of holding its
    own copy, so only ants whose params carry this [beta] may use the
    result ({!create} checks). *)

val shared_of_region_ctx : beta:float -> Engine.Region_ctx.t -> shared
(** [prepare_shared] fed entirely from the region context's precomputed
    analyses — no graph traversal, no closure recomputation. *)

val shared_ready_ub : shared -> int
(** The transitive-closure ready-list bound, for drivers that also size
    their memory model by it. *)

val arena_demand : shared -> int * int
(** [(ints, floats)] one ant's arena state needs; a colony arena is
    sized as lanes times this (exact pre-sizing, no growth). The ints
    are one ready list ({!Sched.Ready_list.int_demand}, [7n]) and one
    RP tracker ({!Sched.Rp_tracker.int_demand}, [2n + 3 * nregs + 4]);
    the per-ant fit and Last-Use-Count queries read the tracker in
    O(1) per candidate. All float
    state lives in the score matrix ({!fmat_demand}) since the unboxed
    data-plane refactor, so the float demand is 0. *)

val fmat_demand : shared -> int * int
(** [(rows, cols)] of one ant's slice of the unboxed score matrix
    ({!Support.Fmat}): two rows of [ub + 2] columns, [ub] being the
    ready-list bound — the selection scratch row (scores, roulette
    total, wheel accumulator) and the LUC eta scratch row. The
    eta^beta rows are colony-wide ({!prepare_shared}), not per ant. A
    colony matrix is sized as [lanes * rows] by [cols] and carved per
    ant via [?fmat]. *)

type t

val create :
  ?shared:shared ->
  ?arena:Support.Arena.t ->
  ?fmat:Support.Fmat.t * int ->
  Ddg.Graph.t ->
  Engine.Params.t ->
  t
(** Without [shared], the region analyses and eta^beta rows are
    computed privately (and the scratch bound falls back to [n]).
    Without [arena], a private exactly-sized arena backs this ant alone.
    [?fmat] is [(matrix, first_row)]: the ant's {!fmat_demand} rows of a
    pooled colony score matrix; without it a private matrix is created.
    Raises [Invalid_argument] when [shared] belongs to a different graph
    or was built for a different [beta] than the params', the arena is
    too small, or the matrix slice is out of range. *)

val start :
  t ->
  rng:Support.Rng.t ->
  heuristic:Sched.Heuristic.kind ->
  allow_optional_stalls:bool ->
  mode ->
  unit
(** Reset all reusable state and begin constructing a new schedule;
    the ready list restarts latency-aware exactly when [mode] is the
    ILP pass. Allocates nothing. *)

val status : t -> status

val step : t -> pheromone:Pheromone.t -> force_explore:int -> ready_limit:int -> unit
(** Perform one construction step; its kind and costs land in the
    [last_*] accessors below. [force_explore] is [-1] (the ant flips its
    own exploration coin), [0] (exploit) or [1] (explore): forcing it is
    the wavefront-level exploration/exploitation unification of
    Section V-B. [ready_limit] ([0] for unlimited) caps how many
    ready-list entries the ant scans in the RP pass — the
    ready-list-size unification the paper experimented with (and found
    unhelpful overall, Section V-B); correctness is unaffected because
    deferred candidates remain in the list for later steps. Raises
    [Invalid_argument] when the ant is not [Active]. *)

val last_rank : t -> int
(** The divergence path the last step took: 0 exploiting selection,
    1 exploring selection (a different formula, hence a different
    path), 2 mandatory stall, 3 optional stall, 4 death (no candidate
    fits the pass-2 RP target and no stall can help). *)

val last_scanned : t -> int
(** Ready-list entries the last step examined. *)

val last_succs : t -> int
(** Successor-list length the last step traversed (0 unless it
    selected an instruction). *)

val ready_count : t -> int
(** Current ready-list size (0 when the ant is not [Active]); the
    wavefront driver uses it to compute a common [ready_limit]. *)

val kill : t -> unit
(** Mark the ant [Dead], keeping its {!work}: early wavefront termination
    (Section V-B), and the CPU colony's stop for an ant that can no
    longer win its iteration. *)

val run_to_completion : t -> pheromone:Pheromone.t -> unit
(** Step, flipping the ant's own coins, until it is no longer active
    (sequential driver). *)

val order : t -> int array
(** Issue order of the constructed schedule (complete once [Finished]):
    the instructions issued so far, sorted by the issue cycle the ready
    list recorded for each. *)

val schedule : t -> Sched.Schedule.t option
(** The validated schedule built from the recorded issue cycles
    ({!Sched.Schedule.of_cycles}), or [None] unless [Finished]. Pass-1
    schedules validate without latencies, pass-2 schedules with. *)

val rp_peaks : t -> int * int
(** (VGPR, SGPR) peak pressures of the construction so far. *)

val peak : t -> Ir.Reg.cls -> int
(** One class's entry of {!rp_peaks}, allocation-free. Peaks only grow
    while the ant runs. *)

val length : t -> int
(** Cycles used so far, stalls included. *)

val length_lb : t -> int
(** A lower bound on the length of every schedule this ant can still
    complete ({!Sched.Ready_list.length_lb} over the shared tails): the
    larger of the cycles so far plus the unscheduled instructions and,
    in the schedule pass, the maximum over ready and latency-pending
    instructions of max (current cycle, ready cycle) + tail + 1. Equals
    {!length} once the ant has [Finished]. The CPU colony stops an ant
    once its cost at this length and its running peaks reaches the best
    cost its iteration already has. *)

val optional_stalls : t -> int

val work : t -> int
(** Abstract work units accumulated since [start] (ready-list scans +
    successor updates + per-step constant) — the currency of the CPU and
    GPU time models. *)

val scored_candidates : t -> int
(** Cumulative fit-evaluated candidate count
    ({!Sched.Rp_tracker.scored_candidates}); not reset by {!start} —
    drivers snapshot it around a pass. *)
