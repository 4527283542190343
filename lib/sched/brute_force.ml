(* Pressure of a downward-closed set S of scheduled instructions: a
   register is live after S when it is available (defined inside S or
   live-in) and still wanted (live-out or used by an instruction outside
   S). A def with no uses at all is counted only at the instant its
   instruction issues (the step cost below), matching Rp_tracker. *)

let min_peak_pressure (g : Ddg.Graph.t) cls =
  let n = g.n in
  if n > 20 then invalid_arg "Brute_force.min_peak_pressure: region too large";
  let region = g.region in
  let instrs = (region : Ir.Region.t).instrs in
  (* Collect the class's registers with their defining instruction and
     user set. *)
  let regs : (Ir.Reg.t, int option * int list) Hashtbl.t = Hashtbl.create 32 in
  let find r = Option.value (Hashtbl.find_opt regs r) ~default:(None, []) in
  Array.iteri
    (fun i (ins : Ir.Instr.t) ->
      List.iter
        (fun u ->
          if Ir.Reg.cls_equal (u : Ir.Reg.t).cls cls then
            let d, us = find u in
            Hashtbl.replace regs u (d, i :: us))
        ins.uses;
      List.iter
        (fun d ->
          if Ir.Reg.cls_equal (d : Ir.Reg.t).cls cls then
            let _, us = find d in
            Hashtbl.replace regs d (Some i, us))
        ins.defs)
    instrs;
  let reg_list = Hashtbl.fold (fun r v acc -> (r, v) :: acc) regs [] in
  let live_count s =
    List.fold_left
      (fun acc ((r : Ir.Reg.t), (def, users)) ->
        let available = match def with Some i -> s land (1 lsl i) <> 0 | None -> true in
        let wanted =
          Ir.Region.is_live_out region r
          || List.exists (fun u -> s land (1 lsl u) = 0) users
        in
        if available && wanted then acc + 1 else acc)
      0 reg_list
  in
  let dead_defs i =
    List.length
      (List.filter
         (fun (d : Ir.Reg.t) ->
           Ir.Reg.cls_equal d.cls cls
           &&
           let _, users = find d in
           users = [] && not (Ir.Region.is_live_out region d))
         instrs.(i).defs)
  in
  let pred_mask = Array.make n 0 in
  for i = 0 to n - 1 do
    for k = g.pred_start.(i) to g.pred_start.(i + 1) - 1 do
      pred_mask.(i) <- pred_mask.(i) lor (1 lsl g.pred_list.(k))
    done
  done;
  let full = (1 lsl n) - 1 in
  let f = Array.make (full + 1) max_int in
  f.(0) <- live_count 0;
  for s = 1 to full do
    (* Only downward-closed sets are reachable; others stay at max_int. *)
    let base = live_count s in
    for i = 0 to n - 1 do
      if s land (1 lsl i) <> 0 then begin
        let prev = s lxor (1 lsl i) in
        (* scheduling i last requires all of i's preds in prev *)
        if pred_mask.(i) land prev = pred_mask.(i) && f.(prev) < max_int then begin
          let step = base + dead_defs i in
          let candidate = max f.(prev) step in
          if candidate < f.(s) then f.(s) <- candidate
        end
      end
    done
  done;
  f.(full)

exception Pruned

let min_schedule_length (g : Ddg.Graph.t) =
  let n = g.n in
  if n > 12 then invalid_arg "Brute_force.min_schedule_length: region too large";
  let cp = Ddg.Critpath.compute g in
  let best = ref max_int in
  (* DFS over issue decisions; state: per-instruction issue cycle (-1 =
     unscheduled). At each step either issue a ready instruction at the
     current cycle or stall to the next cycle at which something new
     becomes ready. *)
  let cycle_of = Array.make n (-1) in
  let rec go scheduled cycle =
    if scheduled = n then best := min !best cycle
    else begin
      (* bound: every unscheduled instruction still needs its backward
         critical path *)
      let bound = ref (cycle + (n - scheduled)) in
      for i = 0 to n - 1 do
        if cycle_of.(i) < 0 then begin
          let earliest = ref cycle in
          for k = g.pred_start.(i) to g.pred_start.(i + 1) - 1 do
            let p = g.pred_list.(k) in
            if cycle_of.(p) >= 0 then
              earliest := max !earliest (cycle_of.(p) + max g.pred_lat.(k) 1)
          done;
          bound := max !bound (!earliest + Ddg.Critpath.backward cp i + 1)
        end
      done;
      if !bound >= !best then raise_notrace Pruned;
      let ready = ref [] in
      let next_event = ref max_int in
      for i = n - 1 downto 0 do
        if cycle_of.(i) < 0 then begin
          let all_sched = ref true in
          let earliest = ref 0 in
          for k = g.pred_start.(i) to g.pred_start.(i + 1) - 1 do
            let p = g.pred_list.(k) in
            if cycle_of.(p) < 0 then all_sched := false
            else earliest := max !earliest (cycle_of.(p) + max g.pred_lat.(k) 1)
          done;
          if !all_sched then
            if !earliest <= cycle then ready := i :: !ready
            else next_event := min !next_event !earliest
        end
      done;
      List.iter
        (fun i ->
          cycle_of.(i) <- cycle;
          (try go (scheduled + 1) (cycle + 1) with Pruned -> ());
          cycle_of.(i) <- -1)
        !ready;
      (* stalling is only useful to reach the next latency event *)
      if !next_event < max_int then try go scheduled !next_event with Pruned -> ()
    end
  in
  (try go 0 0 with Pruned -> ());
  !best
