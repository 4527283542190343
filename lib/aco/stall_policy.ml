type decision = Schedule_from of int list | Optional_stall | Forced_breach

let fits rp ~target_vgpr ~target_sgpr i =
  Sched.Rp_tracker.fits_within rp i ~target_vgpr ~target_sgpr

let classify ~rng ~allow_optional ~base_probability ~rp ~target_vgpr ~target_sgpr ~ready
    ~has_semi_ready ~optional_stalls_so_far =
  let fitting = List.filter (fits rp ~target_vgpr ~target_sgpr) ready in
  match fitting with
  | [] ->
      (* Waiting is the only move that can keep the ant alive, but an ant
         in a no-optional-stall wavefront is not allowed to take it
         (Section V-B / Table 6: with 0% stalling wavefronts some regions
         cannot reach the target and the pass falls back to its input
         schedule). *)
      if allow_optional && has_semi_ready then Optional_stall else Forced_breach
  | _ :: _ ->
      (* Some candidates fit. Waiting can still be attractive when other
         candidates would breach and something is in flight: the fitting
         candidates may be the RP-hungry ones to defer. Probability is
         damped geometrically by the stalls already inserted. *)
      let some_breach = List.length fitting < List.length ready in
      if
        allow_optional && has_semi_ready && some_breach
        && Support.Rng.bool rng
             (base_probability *. (0.5 ** float_of_int optional_stalls_so_far))
      then Optional_stall
      else Schedule_from fitting
