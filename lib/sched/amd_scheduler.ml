let run ?cp ?layout occ graph =
  let rl = Ready_list.create ~latency_aware:true graph in
  let rp = Rp_tracker.create ?layout graph in
  let ctx = Heuristic.make_ctx ?cp graph rp in
  let rev_slots = ref [] in
  let of_peaks = Machine.Occupancy.of_pressures occ in
  (* Each step predicts every candidate's occupancy once, from one
     effects scan, and the filter below reads it back by instruction. *)
  let predicted = Array.make graph.Ddg.Graph.n 0 in
  let predict acc i =
    let o = Rp_tracker.peaks_if_scheduled rp i of_peaks in
    predicted.(i) <- o;
    max acc o
  in
  while not (Ready_list.finished rl) do
    if Ready_list.ready_count rl > 0 then begin
      let candidates = Ready_list.ready_list rl in
      let best_occ = List.fold_left predict 1 candidates in
      let keep = List.filter (fun i -> predicted.(i) = best_occ) candidates in
      (* Like GCNMaxOccupancySchedStrategy, the baseline turns
         register-conservative well before the bucket boundary: once the
         live count passes 3/4 of the pressure that the current
         occupancy admits, candidates that do not grow pressure win over
         higher-critical-path ones. This sacrifices latency hiding for
         occupancy safety — the ILP the ACO search recovers. *)
      let keep =
        let current = Rp_tracker.current rp Ir.Reg.Vgpr in
        let admissible = Machine.Occupancy.max_pressure_for occ Ir.Reg.Vgpr ~occupancy:best_occ in
        if 4 * current >= 3 * admissible then
          match List.filter (fun i -> Rp_tracker.delta_if_scheduled rp i Ir.Reg.Vgpr <= 0) keep with
          | [] -> keep
          | conservative -> conservative
        else keep
      in
      let i = Heuristic.best Heuristic.Critical_path ctx keep in
      Ready_list.schedule rl i;
      Rp_tracker.schedule rp i;
      rev_slots := Schedule.Instr i :: !rev_slots
    end
    else begin
      Ready_list.stall rl;
      rev_slots := Schedule.Stall :: !rev_slots
    end
  done;
  match Schedule.of_slots graph ~latency_aware:true (List.rev !rev_slots) with
  | Ok s -> s
  | Error v -> failwith ("Amd_scheduler.run: invalid schedule: " ^ Schedule.violation_to_string v)

let run_with_cost occ graph =
  let s = run occ graph in
  (s, Cost.of_schedule occ s)
