(** The pluggable register-pressure term of the two-pass objective.

    {!Cliff} is the paper's objective: {!Cost.rp_scalar} (occupancy
    dominates, APRP breaks ties) in pass 1 and the pass-1 APRP peaks as
    hard per-class ceilings in pass 2. {!Spill} prices excess pressure
    instead of forbidding it (RegDem, arXiv 1907.02894): at a fixed
    target occupancy, every register above a class's allowance is
    assumed spilled and charges a modeled round-trip memory cost; pass 2
    then runs unconstrained, because the spill term already paid for the
    pressure. {!Weighted} is the single-pass weighted sum the paper
    measured and rejected (Section II-A): no RP pass, and an
    unconstrained pass 2 whose cost is schedule length plus the RP
    scalar of the peaks. Backends declare their objective via
    [Engine.Backend.S.objective]; [Gpusim.Mem_model.spill_model] derives
    a {!spill_model} from a machine configuration.

    Every formulation costs a pass-2 schedule as its length plus
    {!pass2_term} of its per-class register peaks. *)

type spill_model = {
  target_occupancy : int;
      (** Waves/SIMD the model prices pressure against (the occupancy
          the compiler is told to hit, not the one a schedule happens to
          achieve). *)
  allow_vgpr : int;
      (** Per-class register allowance at [target_occupancy]
          ([Machine.Occupancy.max_pressure_for]); APRP above it counts
          as spilled. *)
  allow_sgpr : int;
  vgpr_spill_cycles : int;  (** Modeled cycles per spilled register. *)
  sgpr_spill_cycles : int;
}

type t = Cliff | Spill of spill_model | Weighted

val no_target : int
(** Pass-2 pressure target meaning "unconstrained" — far above any
    register-file size. *)

val rp_pass : t -> bool
(** Whether the formulation runs pass 1 (RP minimization): [false] only
    for {!Weighted}, which folds RP into its single pass. *)

val rp_scalar : t -> Cost.rp -> int
(** Pass-1 cost of an RP measurement. {!Cliff} (and {!Weighted}, whose
    RP term it is) is exactly {!Cost.rp_scalar}; {!Spill} is APRP sum
    plus the priced spill traffic of the per-class excess over the
    allowances. Smaller is better for all. *)

val rp_scalar_of_peaks : t -> Machine.Occupancy.t -> vgpr:int -> sgpr:int -> int
(** [rp_scalar t (Cost.rp_of_peaks occ ~vgpr ~sgpr)], allocation-free
    and nondecreasing in each peak: the pass-1 cost of an ant's running
    peaks is a lower bound on its final cost. *)

val breach_targets : t -> Cost.rp -> int * int
(** [(target_vgpr, target_sgpr)] pass 2 must respect, given the best
    pass-1 RP. {!Cliff} hands down the APRP peaks; {!Spill} and
    {!Weighted} return [(no_target, no_target)]. *)

val pass2_term : t -> Machine.Occupancy.t -> vgpr:int -> sgpr:int -> int
(** What pass 2 adds to a schedule's length for raw class peaks: 0
    under {!Cliff}, the priced spill traffic of the per-class excess
    over the allowances under {!Spill}, {!Cost.rp_scalar_of_peaks}
    under {!Weighted}. Allocation-free and nondecreasing in each peak,
    so an ant's running cost bounds its final cost. *)

val pass2_term_of_order :
  t -> ?layout:Rp_tracker.layout -> Machine.Occupancy.t -> Ddg.Graph.t -> int array -> int
(** {!pass2_term} at an order's peaks; {!Cliff} returns 0 without
    tracking the order. *)

val pass2_term_lb : t -> Machine.Occupancy.t -> Ddg.Graph.t -> int
(** {!pass2_term} at the region's per-class RP lower bounds
    ([Ddg.Lower_bounds.register_pressure]), so the length bound plus it
    bounds every pass-2 cost; {!Cliff} returns 0 without a bound. *)
