(** Thread-divergence accounting (Section V-B).

    Wavefront lanes execute in lockstep: when lanes take different
    control paths in a step, the paths execute one after another while
    the lanes not on the current path idle. The simulator therefore
    charges one lockstep step as the *sum over distinct paths* of the
    most expensive lane on each path — one path costs its maximum, two
    paths cost the sum of their maxima, and so on.

    The paths are the operation kinds of {!Aco.Ant.step}: exploiting
    selection, exploring selection (a different formula, hence a
    different path — the motivation for wavefront-level unification),
    mandatory stall, optional stall, and death. *)

type path = Select_exploit | Select_explore | Mandatory_stall | Optional_stall | Death

val path_of_op : Aco.Ant.op -> path

val path_rank : path -> int
(** Dense rank 0..4 in declaration order; {!Aco.Ant.last_rank} reports
    the same encoding. *)

val op_cost : Aco.Ant.event -> int
(** Lane-local compute cost of one step: ready-list scan + successor
    updates + fixed selection arithmetic. *)

val lane_reads : Aco.Ant.event -> int
(** Lane-local memory accesses of one step (ready entries read, successor
    states touched, the schedule slot written). *)

val cost_of : ready_scanned:int -> succs_updated:int -> int
(** {!op_cost} from the raw step counters (no event record). *)

val reads_of : ready_scanned:int -> succs_updated:int -> int
(** {!lane_reads} from the raw step counters. *)

val serialized_of_maxima : int array -> int
(** Charge components from a 5-entry per-path-rank maxima array (the
    allocation-free accumulator the wavefront folds its lanes into; a
    path is present iff its entry is nonzero). Equal to
    [(step_charge events).serialized_ops] for the events the maxima
    summarize. *)

val max_single_of_maxima : int array -> int

type charge = {
  serialized_ops : int;  (** divergence-serialized compute cost *)
  distinct_paths : int;
  max_single_path_ops : int;  (** cost had all lanes shared one path *)
}

val step_charge : Aco.Ant.event list -> charge
(** Charge for one lockstep step over the active lanes' events. The empty
    list yields a zero charge. *)
