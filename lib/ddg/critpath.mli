(** Latency-weighted critical paths through the DDG.

    The backward critical path ("distance to the farthest leaf") is the
    classic Critical-Path guiding heuristic (Section IV-A); forward plus
    backward distances give the dependence height
    ({!Lower_bounds.dependence_height}), which the cycle-threshold
    filter's gap is measured against. The termination test uses the
    tighter {!Lower_bounds.schedule_length}. *)

type t

val compute : Graph.t -> t

val compute_count : unit -> int
(** Process-wide number of {!compute} invocations (domain-safe,
    monotonic), counted like {!Closure.compute_count}: the compile
    service computes one critical path per distinct region and hands it
    to every scheduler of that region. *)

val forward : t -> int -> int
(** [forward c i]: longest latency-weighted path from any root to [i]
    (0 at roots). Equals the earliest cycle at which [i] can issue. *)

val backward : t -> int -> int
(** Longest latency-weighted path from [i] to any leaf (0 at leaves). *)

val backward_distances : t -> int array
(** {!backward} of every instruction, as the array behind it (shared,
    not copied: callers read it and never write it). Hot loops index it
    instead of calling {!backward} per instruction. *)

val through : t -> int -> int
(** [forward + backward]: length of the longest path through [i]. *)

val critical_path_length : t -> int
(** Max over nodes of [through]. *)
