(** Incremental register-pressure tracking during schedule construction.

    RP computation follows Section II-A: a register becomes live when its
    defining instruction is scheduled and dies when its last use is
    scheduled, except that region live-in registers are live from cycle 0
    and live-out registers never die inside the region. The tracker
    maintains the current and peak pressure per register class; the test
    suite cross-checks it against a naive whole-profile recomputation.

    {2 Effects of the unscheduled instructions}

    Besides the pressure, the tracker keeps the effect issuing each
    unscheduled instruction would have now, so the per-candidate queries
    below ({!delta_if_scheduled}, {!peak_if_scheduled},
    {!peaks_if_scheduled}, {!fits_within}, {!filter_fits},
    {!closes_minus_opens}) are O(1) array reads. For an unscheduled
    instruction [i] and a register class [c], with [rem r] the use
    occurrences of [r] still unscheduled and [live r] its liveness:

    - [closes_c i] counts the distinct class-[c] registers [u] that [i]
      uses where [rem u] equals the occurrences of [u] in [i]'s uses (no
      other unscheduled instruction reads [u]), [live u] holds, and [u]
      is not live-out;
    - [opens_c i] counts [i]'s class-[c] defs [d] that are not live.

    The values hold for any region, SSA or not: duplicate uses, an
    instruction that uses and defines one register, redefinitions and
    redefined live-ins. {!schedule} maintains them in O(uses + defs) of
    the issued instruction, plus, per register whose liveness flips, its
    definers (one in SSA code). On an instruction already scheduled
    since the last {!reset} every query's answer is unspecified. *)

type t

type layout
(** The immutable, region-wide part of a tracker: interned register ids,
    per-instruction Def/Use id arrays, each register's definers, boundary
    liveness and the initial state (effects included) every {!reset}
    restores. Built once per region ([Engine.Region_ctx.rp_layout]) and
    shared by every scheduler, cost evaluation and ant of that region,
    so the interning hash pass runs once per region instead of once per
    consumer. *)

val layout_of_graph : Ddg.Graph.t -> layout
(** Build the layout of the region. *)

val layout_graph : layout -> Ddg.Graph.t
(** The graph the layout was built for. *)

val layout_count : unit -> int
(** Process-wide number of {!layout_of_graph} invocations (domain-safe,
    monotonic), counted like [Ddg.Closure.compute_count]: the compile
    service's analysis gate asserts one layout per distinct region. *)

val int_demand : layout -> int
(** Arena ints one tracker's mutable state needs (for exact
    pre-sizing): [3 * nregs + 2 * n + 4] for [nregs] registers and [n]
    instructions. *)

val create_in : Support.Arena.t -> layout -> t
(** Tracker whose mutable state lives in the given arena (the batched
    SoA colony allocation); live-in registers are already counted.
    Raises [Invalid_argument] when the arena lacks [int_demand layout]
    ints. *)

val create : ?layout:layout -> Ddg.Graph.t -> t
(** Fresh stand-alone tracker for the region of the graph (private
    backing); live-in registers are already counted. [layout] (built
    when omitted) lets every consumer of a region share the region's
    one layout.
    @raise Invalid_argument when [layout] was built for another graph. *)

val reset : t -> unit
(** Return to the initial state (ants reuse trackers across iterations to
    mirror the paper's no-dynamic-allocation rule). Allocates nothing. *)

val schedule : t -> int -> unit
(** Account for issuing the given instruction and update the effects of
    the unscheduled ones. Each instruction must be scheduled at most once
    per [reset] (unchecked; the schedulers guarantee it). Allocates
    nothing. *)

val current : t -> Ir.Reg.cls -> int
val peak : t -> Ir.Reg.cls -> int

val peak_if_scheduled : t -> int -> Ir.Reg.cls -> int
(** Peak pressure the class would have right after scheduling the
    unscheduled instruction — the larger of the peak and [current +
    opens_c - closes_c] — without mutating the tracker (used by greedy
    tie-breaks and the optional-stall heuristic). Unspecified on a
    scheduled instruction. *)

val peaks_if_scheduled : t -> int -> (vgpr:int -> sgpr:int -> 'a) -> 'a
(** [peaks_if_scheduled t i f] applies [f] to both class peaks
    {!peak_if_scheduled} would report for the unscheduled [i] (the AMD
    baseline's occupancy prediction). Unspecified on a scheduled
    instruction. *)

val delta_if_scheduled : t -> int -> Ir.Reg.cls -> int
(** Net change to the *current* pressure the unscheduled instruction
    would make: [opens_c - closes_c]. Unspecified on a scheduled
    instruction. *)

val fits_within : t -> int -> target_vgpr:int -> target_sgpr:int -> bool
(** Would scheduling the unscheduled instruction keep both class peaks
    within the given targets? Two reads (the pass-2 hot path).
    Unspecified on a scheduled instruction. *)

val filter_fits :
  t ->
  src:int array ->
  base:int ->
  n_cand:int ->
  into:int array ->
  target_vgpr:int ->
  target_sgpr:int ->
  int
(** Stable filter of the candidates [src.(base .. base + n_cand - 1)],
    all unscheduled: writes those for which {!fits_within} holds to the
    prefix of [into], in their order, and returns their count — one
    pass that reads the candidates where they live (the ready list's
    store, {!Ready_list.ready_store}). Branchless mask-and-select
    compaction over O(1) reads per candidate. Raises
    [Invalid_argument] unless the [n_cand] cells lie inside [src] and
    [into] holds [n_cand] cells. *)

val scored_candidates : t -> int
(** Cumulative count of candidates whose fit decision
    {!filter_fits} evaluated since the tracker was created (every
    candidate, unless a class peak already breaches its target). Not
    cleared by {!reset}: it meters work, not schedule state — drivers
    snapshot it around a pass. *)

val closes_minus_opens : t -> int -> int
(** Live ranges (any class) the unscheduled instruction would close
    minus those it would open — the Last-Use-Count heuristic's key
    (Section IV-A / reference [61]). Unspecified on a scheduled
    instruction. *)

(** {2 The state in place}

    The ant's step reads the tracker's state where it lives instead of
    calling a query per candidate or per step: class rank 0 is VGPR,
    1 SGPR. *)

val store : t -> int array
(** The int array the tracker's state lives in (the arena's, for a
    tracker made by {!create_in}). Read-only for callers. *)

val effects_base : t -> int
(** The effect (opens − closes) of issuing the unscheduled [i] on class
    rank [c] is [(store t).(effects_base t + 2 * i + c)]; so
    {!closes_minus_opens} is the negated sum of the pair. *)

val pressure_base : t -> int
(** The current pressure of class rank [c] is
    [(store t).(pressure_base t + c)], its peak
    [(store t).(pressure_base t + 2 + c)]. Fixed for the tracker's
    lifetime. *)

val naive_peaks : Ddg.Graph.t -> int array -> (Ir.Reg.cls -> int)
(** Reference implementation: peak pressures of a complete instruction
    order computed from scratch. Used by tests and as documentation of
    the liveness rules. *)
