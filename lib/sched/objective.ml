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
   pass-1 peaks would double-charge it. [Weighted] is the single-pass
   weighted sum the paper rejects (Section II-A): no RP pass, and an
   unconstrained pass 2 whose cost adds the RP scalar of the peaks to
   the schedule length. *)

type spill_model = {
  target_occupancy : int;  (* waves/SIMD the model prices pressure against *)
  allow_vgpr : int;  (* register allowance per class at that occupancy *)
  allow_sgpr : int;
  vgpr_spill_cycles : int;  (* modeled cycles per spilled register *)
  sgpr_spill_cycles : int;
}

type t = Cliff | Spill of spill_model | Weighted

(* Pass-2 target meaning "unconstrained": far above any register-file
   size. *)
let no_target = 100000

let rp_pass = function Cliff | Spill _ -> true | Weighted -> false

let spill_cycles m ~vgpr ~sgpr =
  (max 0 (vgpr - m.allow_vgpr) * m.vgpr_spill_cycles)
  + (max 0 (sgpr - m.allow_sgpr) * m.sgpr_spill_cycles)

let spill_scalar m ~aprp_vgpr ~aprp_sgpr =
  spill_cycles m ~vgpr:aprp_vgpr ~sgpr:aprp_sgpr + aprp_vgpr + aprp_sgpr

let rp_scalar t (r : Cost.rp) =
  match t with
  | Cliff | Weighted -> Cost.rp_scalar r
  | Spill m -> spill_scalar m ~aprp_vgpr:r.Cost.aprp_vgpr ~aprp_sgpr:r.Cost.aprp_sgpr

let rp_scalar_of_peaks t occ ~vgpr ~sgpr =
  match t with
  | Cliff | Weighted -> Cost.rp_scalar_of_peaks occ ~vgpr ~sgpr
  | Spill m ->
      spill_scalar m
        ~aprp_vgpr:(Machine.Occupancy.aprp occ Ir.Reg.Vgpr vgpr)
        ~aprp_sgpr:(Machine.Occupancy.aprp occ Ir.Reg.Sgpr sgpr)

let breach_targets t (r : Cost.rp) =
  match t with
  | Cliff -> (r.Cost.aprp_vgpr, r.Cost.aprp_sgpr)
  | Spill _ | Weighted -> (no_target, no_target)

let pass2_term t occ ~vgpr ~sgpr =
  match t with
  | Cliff -> 0
  | Spill m -> spill_cycles m ~vgpr ~sgpr
  | Weighted -> Cost.rp_scalar_of_peaks occ ~vgpr ~sgpr

let pass2_term_of_order t ?layout occ graph order =
  match t with
  | Cliff -> 0
  | Spill _ | Weighted ->
      let tracker = Rp_tracker.create ?layout graph in
      Array.iter (fun i -> Rp_tracker.schedule tracker i) order;
      pass2_term t occ ~vgpr:(Rp_tracker.peak tracker Ir.Reg.Vgpr)
        ~sgpr:(Rp_tracker.peak tracker Ir.Reg.Sgpr)

let pass2_term_lb t occ graph =
  match t with
  | Cliff -> 0
  | Spill _ | Weighted ->
      pass2_term t occ
        ~vgpr:(Ddg.Lower_bounds.register_pressure graph Ir.Reg.Vgpr)
        ~sgpr:(Ddg.Lower_bounds.register_pressure graph Ir.Reg.Sgpr)
