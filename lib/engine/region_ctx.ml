(* The immutable analysis bundle of one scheduling region: everything a
   backend or the compile pipeline derives from the region alone, computed
   once and shared by every consumer — the two-pass orchestrator, each
   backend of a dispatch race, the ride-along sequential baseline, and
   the report synthesis. Nothing here is mutated after construction, so a
   value can be shared freely across domains and cached by content. *)

type t = {
  graph : Ddg.Graph.t;
  occ : Machine.Occupancy.t;
  amd_schedule : Sched.Schedule.t;
  amd_cost : Sched.Cost.t;
  pass1_initial_order : int array;
  pass1_initial_rp : Sched.Cost.rp;
  rp_lb : Sched.Cost.rp;
  length_lb : int;
  tails : int array;
  height_lb : int;
  pass1_needed : bool;
  closure : Ddg.Closure.t;
  critpath : Ddg.Critpath.t;
  ready_ub : int;
  rp_layout : Sched.Rp_tracker.layout;
  cp_schedule : Sched.Schedule.t;
  cp_cost : Sched.Cost.t;
  fingerprint : string;
}

let rp_of_order ?layout occ graph order =
  let tracker = Sched.Rp_tracker.create ?layout graph in
  Array.iter (fun i -> Sched.Rp_tracker.schedule tracker i) order;
  Sched.Cost.rp_of_tracker occ tracker

(* --- content addressing --------------------------------------------------- *)

(* Structural codes; instruction and region *names* are deliberately
   excluded — two regions that differ only in labels schedule
   identically, so they must share one cache entry. *)
let kind_code = function
  | Ir.Opcode.Valu -> 0
  | Ir.Opcode.Valu_trans -> 1
  | Ir.Opcode.Salu -> 2
  | Ir.Opcode.Vmem_load -> 3
  | Ir.Opcode.Vmem_store -> 4
  | Ir.Opcode.Smem_load -> 5
  | Ir.Opcode.Lds -> 6
  | Ir.Opcode.Branch -> 7
  | Ir.Opcode.Export -> 8

let add_reg buf (r : Ir.Reg.t) =
  Buffer.add_char buf (match r.Ir.Reg.cls with Ir.Reg.Vgpr -> 'v' | Ir.Reg.Sgpr -> 's');
  Buffer.add_string buf (string_of_int r.Ir.Reg.id)

let fingerprint_of_region (region : Ir.Region.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (string_of_int (Ir.Region.size region));
  Array.iter
    (fun (i : Ir.Instr.t) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (string_of_int (kind_code i.Ir.Instr.kind));
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int i.Ir.Instr.latency);
      Buffer.add_char buf 'd';
      List.iter (add_reg buf) i.Ir.Instr.defs;
      Buffer.add_char buf 'u';
      List.iter (add_reg buf) i.Ir.Instr.uses)
    region.Ir.Region.instrs;
  Buffer.add_char buf 'o';
  List.iter (add_reg buf) region.Ir.Region.live_out;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- construction --------------------------------------------------------- *)

let of_graph ?fingerprint occ graph =
  (* One critical path and one register layout serve every analysis
     below, and every consumer of the context after it. *)
  let cp = Ddg.Critpath.compute graph in
  let layout = Sched.Rp_tracker.layout_of_graph graph in
  let amd_schedule = Sched.List_scheduler.amd ~cp ~layout occ graph in
  let amd_order = Sched.Schedule.order amd_schedule in
  let amd_rp = rp_of_order ~layout occ graph amd_order in
  let rp_lb =
    Sched.Cost.rp_of_peaks occ
      ~vgpr:(Ddg.Lower_bounds.register_pressure graph Ir.Reg.Vgpr)
      ~sgpr:(Ddg.Lower_bounds.register_pressure graph Ir.Reg.Sgpr)
  in
  (* [rp_lb] bounds every order's RP, so once the AMD order meets it the
     Last-Use-Count order cannot be strictly better and is not built. *)
  let pass1_initial_order, pass1_initial_rp =
    if Sched.Cost.compare_rp amd_rp rp_lb <= 0 then (amd_order, amd_rp)
    else
      let luc_order =
        Sched.List_scheduler.run_order ~cp ~layout graph Sched.Heuristic.Last_use_count
      in
      let luc_rp = rp_of_order ~layout occ graph luc_order in
      if Sched.Cost.compare_rp luc_rp amd_rp < 0 then (luc_order, luc_rp) else (amd_order, amd_rp)
  in
  let closure = Ddg.Closure.compute graph in
  (* The recursive strengthening only runs where the AMD schedule sits
     above the plain relaxation; elsewhere that schedule is already
     optimal. *)
  let length_lb, tails =
    Ddg.Lower_bounds.schedule_length_tails ~upper:(Sched.Schedule.length amd_schedule) graph
  in
  let cp_schedule = Sched.List_scheduler.run ~cp ~layout graph Sched.Heuristic.Critical_path in
  {
    graph;
    occ;
    amd_schedule;
    amd_cost = { Sched.Cost.rp = amd_rp; length = Sched.Schedule.length amd_schedule };
    pass1_initial_order;
    pass1_initial_rp;
    rp_lb;
    length_lb;
    tails;
    height_lb = Ddg.Lower_bounds.dependence_height ~cp graph;
    pass1_needed = Sched.Cost.compare_rp pass1_initial_rp rp_lb > 0;
    closure;
    critpath = cp;
    ready_ub = Ddg.Closure.ready_list_upper_bound closure;
    rp_layout = layout;
    cp_schedule;
    cp_cost = Sched.Cost.of_schedule ~layout occ cp_schedule;
    fingerprint =
      (match fingerprint with
      | Some f -> f
      | None -> fingerprint_of_region graph.Ddg.Graph.region);
  }

let of_region ?fingerprint occ region = of_graph ?fingerprint occ (Ddg.Graph.build region)

(* Pass 2's input: stalls added to the best-RP order of pass 1
   (Section IV-C), improved upon when the RP-constrained greedy scheduler
   finds a shorter schedule that meets the same target. Both candidates
   respect the pass-1 RP outcome, so either is a sound fallback when
   pass 2 is filtered out or finds no improvement. A padded schedule
   already at [length_lb] has no strictly shorter rival, so the greedy
   one is not built. *)
let pass2_initial t ~best_pass1_order ~(rp_target : Sched.Cost.rp) =
  let padded = Sched.Schedule.latency_pad t.graph best_pass1_order in
  if Sched.Schedule.length padded <= t.length_lb then padded
  else
    match
      Sched.List_scheduler.constrained ~cp:t.critpath ~layout:t.rp_layout t.graph
        ~target_vgpr:rp_target.aprp_vgpr ~target_sgpr:rp_target.aprp_sgpr
    with
    | Some greedy when Sched.Schedule.length greedy < Sched.Schedule.length padded -> greedy
    | Some _ | None -> padded
