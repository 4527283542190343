(* The pluggable register-pressure term of the two-pass objective.

   The historical (and default) objective treats pass 1's RP scalar as a
   hard occupancy cliff: [Cost.rp_scalar] makes one lost wavefront worth
   more than any APRP saving, and pass 2 receives the pass-1 APRP peaks
   as hard per-class ceilings. [Spill] replaces the cliff with a model of
   what excess pressure actually costs at a fixed target occupancy:
   registers above the class allowance are assumed spilled, and each
   spilled register charges a modeled round-trip memory cost (RegDem,
   arXiv 1907.02894). Under [Spill] pass 2 is unconstrained — the spill
   traffic already priced the pressure, so clamping the schedule to the
   pass-1 peaks would double-charge it. *)

type spill_model = {
  target_occupancy : int;  (* waves/SIMD the model prices pressure against *)
  allow_vgpr : int;  (* register allowance per class at that occupancy *)
  allow_sgpr : int;
  vgpr_spill_cycles : int;  (* modeled cycles per spilled register *)
  sgpr_spill_cycles : int;
}

type t = Cliff | Spill of spill_model

(* Pass-2 target meaning "unconstrained": far above any register-file
   size, same sentinel the weighted backend uses for its single pass. *)
let no_target = 100000

let spill_scalar m ~aprp_vgpr ~aprp_sgpr =
  (max 0 (aprp_vgpr - m.allow_vgpr) * m.vgpr_spill_cycles)
  + (max 0 (aprp_sgpr - m.allow_sgpr) * m.sgpr_spill_cycles)
  + aprp_vgpr + aprp_sgpr

let rp_scalar t (r : Cost.rp) =
  match t with
  | Cliff -> Cost.rp_scalar r
  | Spill m -> spill_scalar m ~aprp_vgpr:r.Cost.aprp_vgpr ~aprp_sgpr:r.Cost.aprp_sgpr

let rp_scalar_of_peaks t occ ~vgpr ~sgpr =
  match t with
  | Cliff -> Cost.rp_scalar_of_peaks occ ~vgpr ~sgpr
  | Spill m ->
      spill_scalar m
        ~aprp_vgpr:(Machine.Occupancy.aprp occ Ir.Reg.Vgpr vgpr)
        ~aprp_sgpr:(Machine.Occupancy.aprp occ Ir.Reg.Sgpr sgpr)

let breach_targets t (r : Cost.rp) =
  match t with
  | Cliff -> (r.Cost.aprp_vgpr, r.Cost.aprp_sgpr)
  | Spill _ -> (no_target, no_target)

let spill_cycles t ~vgpr ~sgpr =
  match t with
  | Cliff -> 0
  | Spill m ->
      (max 0 (vgpr - m.allow_vgpr) * m.vgpr_spill_cycles)
      + (max 0 (sgpr - m.allow_sgpr) * m.sgpr_spill_cycles)
