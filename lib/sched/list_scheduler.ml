let schedule_with ?(latency_aware = true) ?cp ?layout graph ~pick =
  let rl = Ready_list.create ~latency_aware graph in
  let rp = Rp_tracker.create ?layout graph in
  let ctx = Heuristic.make_ctx ?cp graph rp in
  let rec loop () =
    if Ready_list.finished rl then true
    else if Ready_list.ready_count rl = 0 then begin
      Ready_list.stall rl;
      loop ()
    end
    else
      match pick ctx (Ready_list.ready_list rl) with
      | Some i ->
          Ready_list.schedule rl i;
          Rp_tracker.schedule rp i;
          loop ()
      | None when Ready_list.has_semi_ready rl ->
          Ready_list.stall rl;
          loop ()
      | None -> false
  in
  if loop () then
    Result.to_option
      (Schedule.of_cycles graph ~latency_aware
         (Array.init graph.Ddg.Graph.n (Ready_list.issue_cycle rl)))
  else None

let run ?latency_aware ?cp ?layout graph kind =
  Option.get
    (schedule_with ?latency_aware ?cp ?layout graph ~pick:(fun ctx ready ->
         Some (Heuristic.best kind ctx ready)))

let run_order ?cp ?layout graph kind =
  Schedule.order (run ~latency_aware:false ?cp ?layout graph kind)

let amd ?cp ?layout occ graph =
  let of_peaks = Machine.Occupancy.of_pressures occ in
  (* Each step predicts every candidate's occupancy once, from its
     tracked effects, and the filter below reads it back by
     instruction. *)
  let predicted = Array.make graph.Ddg.Graph.n 0 in
  let pick (ctx : Heuristic.ctx) candidates =
    let rp = ctx.Heuristic.rp in
    let predict acc i =
      let o = Rp_tracker.peaks_if_scheduled rp i of_peaks in
      predicted.(i) <- o;
      max acc o
    in
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
    Some (Heuristic.best Heuristic.Critical_path ctx keep)
  in
  Option.get (schedule_with ?cp ?layout graph ~pick)

let constrained ?cp ?layout graph ~target_vgpr ~target_sgpr =
  schedule_with ?cp ?layout graph ~pick:(fun ctx ready ->
      match
        List.filter
          (fun i -> Rp_tracker.fits_within ctx.Heuristic.rp i ~target_vgpr ~target_sgpr)
          ready
      with
      | [] -> None
      | fitting -> Some (Heuristic.best Heuristic.Critical_path ctx fitting))
