let run ?(latency_aware = true) ?cp ?layout graph kind =
  let rl = Ready_list.create ~latency_aware graph in
  let rp = Rp_tracker.create ?layout graph in
  let ctx = Heuristic.make_ctx ?cp graph rp in
  let rev_slots = ref [] in
  while not (Ready_list.finished rl) do
    if Ready_list.ready_count rl > 0 then begin
      let i = Heuristic.best kind ctx (Ready_list.ready_list rl) in
      Ready_list.schedule rl i;
      Rp_tracker.schedule rp i;
      rev_slots := Schedule.Instr i :: !rev_slots
    end
    else begin
      Ready_list.stall rl;
      rev_slots := Schedule.Stall :: !rev_slots
    end
  done;
  match Schedule.of_slots graph ~latency_aware (List.rev !rev_slots) with
  | Ok s -> s
  | Error v -> failwith ("List_scheduler.run: invalid schedule: " ^ Schedule.violation_to_string v)

let run_order ?cp ?layout graph kind =
  Schedule.order (run ~latency_aware:false ?cp ?layout graph kind)
