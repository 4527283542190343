(** Lower bounds on schedule length and register pressure.

    ACO terminates a pass as soon as its best schedule reaches the
    pre-computed lower bound, and the compile pipeline skips a pass
    entirely when its input schedule is already at the bound
    (Section VI-A). Every bound here is sound; the tighter the length
    bound, the more searches it proves unnecessary. *)

val dependence_height : ?cp:Critpath.t -> Graph.t -> int
(** [max (critical path length + 1) n]: the longest latency-weighted
    dependence chain, or one cycle per instruction on the single-issue
    machine. The loosest bound here; the cycle-threshold filter's gap is
    measured against it (see [Pipeline.Filters]). [cp] (computed when
    omitted) reads it off the region's critical path. *)

val single_issue : Graph.t -> int
(** The single-issue relaxation (the Rim & Jain bound): each instruction
    is a unit job released at its longest path from the roots and
    delivered at its longest path to the leaves, every edge weighted
    [max latency 1] because a dependence can never issue in its source's
    cycle. Jackson's rule (always issue the released job with the
    largest delivery) solves the relaxation exactly in O(n log n).
    Dominates {!dependence_height}. *)

val schedule_length : ?upper:int -> Graph.t -> int
(** {!single_issue} with releases and deliveries strengthened once,
    recursively, in the style of Langevin & Cerny: a node's release is
    at least the relaxation's makespan over its ancestors, each delivered
    at its distance to the node minus one, and a node's delivery likewise
    over its descendants. One longest-path sweep and one Jackson run per
    node, [O(n (n + m) + n^2 log n)] without an n x n matrix. When
    [upper] (the length of a known schedule) is given and the plain
    relaxation already reaches it, the strengthening is skipped: the
    plain bound is then the optimum. *)

val tails : Graph.t -> int array
(** Entry [i] is [i]'s plain tail: the longest path from [i] to a leaf,
    every edge weighted [max latency 1] — how many cycles must follow
    [i]'s issue in any schedule, so a schedule issuing [i] at cycle [c]
    is at least [c + tails.(i) + 1] cycles long. *)

val schedule_length_tails : ?upper:int -> Graph.t -> int * int array
(** {!schedule_length} together with the tails its last relaxation ran
    on: the strengthened tails when the strengthening ran, the plain
    {!tails} otherwise. Both are sound in the sense of {!tails}. *)

val register_pressure : Graph.t -> Ir.Reg.cls -> int
(** A sound lower bound on the peak register pressure of any schedule for
    the given class: the maximum of the live-in count (all live-in
    registers are live together at entry), the live-out count (all live
    together at exit) and the largest def set of a single instruction
    (its defs are all live at its issue). *)

val min_reg_lb : Closure.t -> Graph.t -> Ir.Reg.cls -> int array
(** Per-instruction min-register lower bound (Chen et al., arXiv
    2303.06855): entry [i] is a sound lower bound on how many registers
    of the class are live at the point instruction [i] is issued, in
    every valid schedule. A register is counted iff it is certainly born
    by then (live-in, or a definer among [i]'s DDG ancestors or [i]
    itself) and certainly not yet dead (live-out, defined by [i], or
    used by a strict descendant of [i]). If the bound already exceeds
    the RP target, scheduling [i] breaches the target in any schedule —
    the soundness contract behind candidate pruning
    ({!Sched.Rp_tracker}). Takes a precomputed {!Closure.t}; never
    computes one itself. *)
