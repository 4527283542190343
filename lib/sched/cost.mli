(** Schedule cost functions.

    Pass 1 minimizes an occupancy-derived register-pressure cost built on
    APRP (Section II-A); pass 2 minimizes schedule length subject to the
    pass-1 RP cost as a constraint. RP costs are compared first by
    occupancy (more wavefronts is strictly better) and then by the sum of
    APRP values (a tie-break that prefers headroom within the same
    occupancy bucket). *)

type rp = { aprp_vgpr : int; aprp_sgpr : int; occupancy : int }

val rp_of_peaks : Machine.Occupancy.t -> vgpr:int -> sgpr:int -> rp
(** Apply APRP to each class peak and derive the occupancy. *)

val rp_of_tracker : Machine.Occupancy.t -> Rp_tracker.t -> rp

val compare_rp : rp -> rp -> int
(** Negative when the first cost is better. *)

val rp_scalar : rp -> int
(** Scalar encoding consistent with [compare_rp] (smaller is better),
    used where a single number is needed (pheromone deposit formula,
    statistics). *)

val rp_scalar_of_peaks : Machine.Occupancy.t -> vgpr:int -> sgpr:int -> int
(** [rp_scalar (rp_of_peaks occ ~vgpr ~sgpr)], allocation-free.
    Nondecreasing in each peak. *)

type t = { rp : rp; length : int }

val of_schedule : ?layout:Rp_tracker.layout -> Machine.Occupancy.t -> Schedule.t -> t
(** Measure a schedule: RP via {!Rp_tracker} over its issue order, length
    in cycles. [layout] (built when omitted) is the region's register
    layout. *)

val better_rp_then_length : t -> t -> bool
(** [better_rp_then_length a b]: is [a] strictly better under the
    two-pass objective (RP first, length as tie-break)? *)

val rp_to_string : rp -> string
val to_string : t -> string
