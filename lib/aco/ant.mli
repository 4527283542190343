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
    scratch) is allocated once, when {!lanes} carves a colony's ants
    from one pooled {!Support.Arena} store, and reused across
    iterations, mirroring the paper's
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

val shared_of_region_ctx : beta:float -> Engine.Region_ctx.t -> shared
(** The shared state of the region context's analyses — no graph
    traversal, no closure recomputation. The critical-path and
    source-order eta^beta rows are built here, once per colony, raised
    to [beta]: every ant of the colony reads them in place instead of
    holding its own copy, so only ants whose params carry this [beta]
    may use the result ({!lanes} checks). Raises [Invalid_argument]
    when the context's register layout was built for another graph
    than the context's. *)

type t

val lanes : shared -> count:int -> Engine.Params.t -> t array
(** [count] ants carved from one pooled {!Support.Arena} store, taken
    with [count] times one lane's demand: [8n + ring + 3 * nregs + 4]
    ints (one ready list, {!Sched.Ready_list.int_demand}, whose pending
    ring has one bucket more than the largest edge weight, and one RP
    tracker, {!Sched.Rp_tracker.int_demand}; the step reads both in
    place, the tracker in O(1) per candidate) and two score rows of
    [ub + 2] columns, [ub] being the ready-list bound (the selection
    scratch row and the LUC eta scratch row). Lane [k] owns the [k]th
    tracker and ready-list segments and score rows [2k] and [2k + 1].
    All state is reused across iterations. Raises [Invalid_argument]
    when [shared] was built for a different [beta] than the params'. *)

val release : t array -> unit
(** Give the store of one {!lanes} call back to the pool, so the next
    colony on this domain reuses it. Call it once, with that call's
    ants; they are dead afterwards. *)

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

val run :
  t -> pheromone:Pheromone.t -> term:(vgpr:int -> sgpr:int -> int) -> cutoff:int -> unit
(** The CPU colony's ant in one call: step, flipping the ant's own
    coins, until the ant is no longer active or its cost bound reaches
    [cutoff]; then it is killed ({!kill}, keeping its {!work}). The
    ant's cost is its length (schedule pass only) plus [term] of its
    peaks, and the bound is that cost at {!length_lb} and the running
    peaks. [term] must be allocation-free and nondecreasing in each
    peak; it is called only when a peak rises. The exact {!length_lb}
    is scanned only when the cost at {!length_lb_hi} reaches the
    cutoff, so the ant dies at the step the exact per-step check would
    kill it at. With [cutoff = max_int] the ant runs to the end and
    [term] is never called. Allocates nothing. *)

val run_to_completion : t -> pheromone:Pheromone.t -> unit
(** {!run} without a cutoff. *)

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
    {!length} once the ant has [Finished]. {!run} stops an ant once its
    cost at this length and its running peaks reaches the cutoff. *)

val length_lb_hi : t -> int
(** The O(1) over-estimate of {!length_lb} that {!run} screens the
    exact bound with ({!Sched.Ready_list.length_lb_hi}): never below
    it, and equal to it right after a {!length_lb}. *)

val optional_stalls : t -> int

val work : t -> int
(** Abstract work units accumulated since [start] (ready-list scans +
    successor updates + per-step constant) — the currency of the CPU and
    GPU time models. *)

val scored_candidates : t -> int
(** Cumulative fit-evaluated candidate count
    ({!Sched.Rp_tracker.scored_candidates}); not reset by {!start} —
    drivers snapshot it around a pass. *)
