(** Incremental register-pressure tracking during schedule construction.

    RP computation follows Section II-A: a register becomes live when its
    defining instruction is scheduled and dies when its last use is
    scheduled, except that region live-in registers are live from cycle 0
    and live-out registers never die inside the region. The tracker
    maintains the current and peak pressure per register class in O(defs
    + uses) per scheduled instruction; the test suite cross-checks it
    against a naive whole-profile recomputation. *)

type t

type layout
(** The immutable, region-wide part of a tracker: interned register ids,
    per-instruction Def/Use id arrays, total use counts and boundary
    liveness. Built once per region ([Engine.Region_ctx.rp_layout]) and
    shared by every scheduler, cost evaluation and ant of that region,
    so the interning hash pass runs once per region instead of once per
    consumer. *)

val layout_of_graph : Ddg.Graph.t -> layout
(** Build the layout of the region. *)

val layout_count : unit -> int
(** Process-wide number of {!layout_of_graph} invocations (domain-safe,
    monotonic), counted like [Ddg.Closure.compute_count]: the compile
    service's analysis gate asserts one layout per distinct region. *)

val int_demand : layout -> int
(** Arena ints one tracker's mutable state needs (for exact
    pre-sizing). *)

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
    mirror the paper's no-dynamic-allocation rule). *)

val copy : t -> t

val schedule : t -> int -> unit
(** Account for issuing the given instruction. Each instruction must be
    scheduled at most once per [reset] (unchecked; the schedulers
    guarantee it). *)

val current : t -> Ir.Reg.cls -> int
val peak : t -> Ir.Reg.cls -> int

val peak_excess : t -> target_vgpr:int -> target_sgpr:int -> int * int
(** Per-class peak pressure above the given targets (clamped at 0) —
    the raw-register excess a spill-aware objective prices
    (see {!Objective}). *)

val peak_if_scheduled : t -> int -> Ir.Reg.cls -> int
(** Peak pressure the class would have right after scheduling the
    instruction, without mutating the tracker (used by greedy tie-breaks
    and the optional-stall heuristic). *)

val peaks_if_scheduled : t -> int -> (vgpr:int -> sgpr:int -> 'a) -> 'a
(** [peaks_if_scheduled t i f] applies [f] to both class peaks
    {!peak_if_scheduled} would report for [i], from one effects scan
    instead of two (the AMD baseline's occupancy prediction). *)

val delta_if_scheduled : t -> int -> Ir.Reg.cls -> int
(** Net change to the *current* pressure: defs opening live ranges minus
    uses closing them. *)

val fits_within : t -> int -> target_vgpr:int -> target_sgpr:int -> bool
(** Would scheduling the instruction keep both class peaks within the
    given targets? Single pass over its Def/Use sets (the pass-2 hot
    path), with a scan-free fast path when even the def-count upper
    bound fits. *)

val filter_fits_prefix :
  t -> cand:int array -> n_cand:int -> target_vgpr:int -> target_sgpr:int -> int
(** Stable in-place filter of [cand.(0..n_cand-1)]: compacts the
    candidates for which {!fits_within} holds into the prefix (ready
    order preserved) and returns their count. Branchless mask-and-select
    compaction on the hot path. *)

val scored_candidates : t -> int
(** Cumulative count of candidates whose fit decision
    {!filter_fits_prefix} evaluated since the tracker was created (every
    candidate, unless a class peak already breaches its target). Not
    cleared by {!reset}: it meters work, not schedule state — drivers
    snapshot it around a pass. *)

val closes_count : t -> int -> int
(** Number of live ranges (any class) the instruction would close — the
    Last-Use-Count heuristic's key (Section IV-A / reference [61]). *)

val opens_count : t -> int -> int
(** Live ranges (any class) the instruction would open. *)

val closes_minus_opens : t -> int -> int
(** [closes_count t i - opens_count t i] in a single effects pass — the
    Last-Use-Count heuristic's key on the selection hot path. *)

val naive_peaks : Ddg.Graph.t -> int array -> (Ir.Reg.cls -> int)
(** Reference implementation: peak pressures of a complete instruction
    order computed from scratch. Used by tests and as documentation of
    the liveness rules. *)
