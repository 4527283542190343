exception Cornered

let run ?cp ?layout graph ~target_vgpr ~target_sgpr =
  let rl = Ready_list.create ~latency_aware:true graph in
  let rp = Rp_tracker.create ?layout graph in
  let ctx = Heuristic.make_ctx ?cp graph rp in
  let rev_slots = ref [] in
  try
    while not (Ready_list.finished rl) do
      let fitting =
        List.filter
          (fun i -> Rp_tracker.fits_within rp i ~target_vgpr ~target_sgpr)
          (Ready_list.ready_list rl)
      in
      match fitting with
      | _ :: _ ->
          let i = Heuristic.best Heuristic.Critical_path ctx fitting in
          Ready_list.schedule rl i;
          Rp_tracker.schedule rp i;
          rev_slots := Schedule.Instr i :: !rev_slots
      | [] ->
          if Ready_list.min_semi_ready_cycle rl = None && Ready_list.ready_count rl > 0 then
            (* nothing fits and nothing will become ready by waiting *)
            raise Cornered
          else begin
            Ready_list.stall rl;
            rev_slots := Schedule.Stall :: !rev_slots
          end
    done;
    match Schedule.of_slots graph ~latency_aware:true (List.rev !rev_slots) with
    | Ok s -> Some s
    | Error _ -> None
  with Cornered -> None
