(** Thread-divergence accounting (Section V-B).

    Wavefront lanes execute in lockstep: when lanes take different
    control paths in a step, the paths execute one after another while
    the lanes not on the current path idle. The simulator therefore
    charges one lockstep step as the *sum over distinct paths* of the
    most expensive lane on each path — one path costs its maximum, two
    paths cost the sum of their maxima, and so on.

    The paths are the step kinds {!Aco.Ant.last_rank} reports:
    exploiting selection, exploring selection (a different formula,
    hence a different path — the motivation for wavefront-level
    unification), mandatory stall, optional stall, and death. The
    wavefront folds each lockstep step's lanes into a 5-entry array of
    per-path maxima, indexed by that rank; a path is present iff its
    entry is nonzero, since every step costs at least the fixed
    selection arithmetic. *)

val cost_of : ready_scanned:int -> succs_updated:int -> int
(** Lane-local compute cost of one step: ready-list scan + successor
    updates + fixed selection arithmetic. *)

val reads_of : ready_scanned:int -> succs_updated:int -> int
(** Lane-local memory accesses of one step (ready entries read, successor
    states touched, the schedule slot written). *)

val serialized_of_maxima : int array -> int
(** Divergence-serialized compute cost of one lockstep step: the sum of
    its per-path maxima (0 when no lane stepped). *)

val max_single_of_maxima : int array -> int
(** The same step's cost had every lane shared one path: the largest
    per-path maximum. Never above {!serialized_of_maxima}. *)
