type rp = { aprp_vgpr : int; aprp_sgpr : int; occupancy : int }

let rp_of_peaks occ ~vgpr ~sgpr =
  {
    aprp_vgpr = Machine.Occupancy.aprp occ Ir.Reg.Vgpr vgpr;
    aprp_sgpr = Machine.Occupancy.aprp occ Ir.Reg.Sgpr sgpr;
    occupancy = Machine.Occupancy.of_pressures occ ~vgpr ~sgpr;
  }

let rp_of_tracker occ tracker =
  rp_of_peaks occ ~vgpr:(Rp_tracker.peak tracker Ir.Reg.Vgpr)
    ~sgpr:(Rp_tracker.peak tracker Ir.Reg.Sgpr)

let compare_rp a b =
  (* Higher occupancy first, then smaller APRP sum. *)
  let c = Int.compare b.occupancy a.occupancy in
  if c <> 0 then c
  else Int.compare (a.aprp_vgpr + a.aprp_sgpr) (b.aprp_vgpr + b.aprp_sgpr)

(* The scalar must order identically to [compare_rp]: occupancy dominates
   and APRP sums are bounded by the register-file sizes (256 + 800). *)
let scalar ~occupancy ~aprp_vgpr ~aprp_sgpr = ((10 - occupancy) * 4096) + aprp_vgpr + aprp_sgpr
let rp_scalar r = scalar ~occupancy:r.occupancy ~aprp_vgpr:r.aprp_vgpr ~aprp_sgpr:r.aprp_sgpr

(* [rp_scalar (rp_of_peaks ...)] without the record: ants are costed
   inside the colony's measured allocation window. *)
let rp_scalar_of_peaks occ ~vgpr ~sgpr =
  scalar
    ~occupancy:(Machine.Occupancy.of_pressures occ ~vgpr ~sgpr)
    ~aprp_vgpr:(Machine.Occupancy.aprp occ Ir.Reg.Vgpr vgpr)
    ~aprp_sgpr:(Machine.Occupancy.aprp occ Ir.Reg.Sgpr sgpr)

type t = { rp : rp; length : int }

let of_schedule ?layout occ schedule =
  let tracker = Rp_tracker.create ?layout (schedule : Schedule.t).graph in
  Array.iter (fun i -> Rp_tracker.schedule tracker i) (Schedule.order schedule);
  { rp = rp_of_tracker occ tracker; length = Schedule.length schedule }

let better_rp_then_length a b =
  let c = compare_rp a.rp b.rp in
  c < 0 || (c = 0 && a.length < b.length)

let rp_to_string r =
  Printf.sprintf "occ=%d aprp(v)=%d aprp(s)=%d" r.occupancy r.aprp_vgpr r.aprp_sgpr

let to_string t = Printf.sprintf "%s len=%d" (rp_to_string t.rp) t.length
