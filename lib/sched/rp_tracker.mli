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
(** Build the plain layout of the region: no candidate-pruning tables
    ({!with_pruning_tables} attaches them). *)

val layout_count : unit -> int
(** Process-wide number of {!layout_of_graph} invocations (domain-safe,
    monotonic), counted like [Ddg.Closure.compute_count]: the compile
    service's analysis gate asserts one layout per distinct region. *)

val with_pruning_tables : layout -> Ddg.Closure.t -> layout
(** The same layout (its interned ids and arrays are reused, not
    rebuilt) carrying the sound candidate-pruning tables: the min-delta
    bounds (certain opens minus potential closes per instruction and
    class) and the static Chen-style per-instruction minimum-pressure
    bounds ({!Ddg.Lower_bounds.min_reg_lb}) over the given closure. Only
    a tracker on such a layout can arm pruning ({!set_prune}); the
    pruning colony builds it in its prepare, the one place the tables
    are read. Does not count as a layout ({!layout_count}) and never
    computes a closure. *)

val min_reg_lb : layout -> Ir.Reg.cls -> int array option
(** A copy of the Chen table the layout carries for the class, [None]
    on a plain layout. *)

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
    compaction on the hot path. With pruning armed ({!set_prune}),
    candidates whose layout lower bounds already prove they cannot fit
    skip the per-register effects scan; the returned prefix and count
    are identical either way — pruning only removes provably-dead
    work. The pruning tables are read only with pruning armed. *)

val set_prune : t -> bool -> unit
(** Arm or disarm lower-bound candidate pruning in
    {!filter_fits_prefix}. Off by default; prefix contents and counts
    are unaffected either way (soundness), only the evaluation work and
    the {!scored_candidates}/{!pruned_candidates} meters change.
    @raise Invalid_argument when arming a tracker whose layout carries
    no pruning tables ({!with_pruning_tables}). *)

val prune_enabled : t -> bool

val scored_candidates : t -> int
(** Cumulative count of candidates whose fit decision was actually
    evaluated (fast defs-bound or full effects scan) in
    {!filter_fits_prefix} since the tracker was created. Not cleared by
    {!reset}: it meters work, not schedule state — drivers snapshot it
    around a pass. *)

val pruned_candidates : t -> int
(** Cumulative count of candidates dismissed by the lower-bound prune
    before any fit evaluation. Zero unless {!set_prune} armed it. *)

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
