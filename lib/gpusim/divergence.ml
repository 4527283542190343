type path = Select_exploit | Select_explore | Mandatory_stall | Optional_stall | Death

let path_of_op = function
  | Aco.Ant.Selected { explored = false; _ } -> Select_exploit
  | Aco.Ant.Selected { explored = true; _ } -> Select_explore
  | Aco.Ant.Mandatory_stall -> Mandatory_stall
  | Aco.Ant.Optional_stall -> Optional_stall
  | Aco.Ant.Died -> Death

let path_rank = function
  | Select_exploit -> 0
  | Select_explore -> 1
  | Mandatory_stall -> 2
  | Optional_stall -> 3
  | Death -> 4

let cost_of ~ready_scanned ~succs_updated = ready_scanned + succs_updated + 3

let reads_of ~ready_scanned ~succs_updated = ready_scanned + succs_updated + 1

let op_cost (e : Aco.Ant.event) = cost_of ~ready_scanned:e.ready_scanned ~succs_updated:e.succs_updated

let lane_reads (e : Aco.Ant.event) = reads_of ~ready_scanned:e.ready_scanned ~succs_updated:e.succs_updated

(* Accumulator form for the allocation-free lockstep loop: the wavefront
   folds each lane's step into a 5-entry per-path-rank maxima array (a
   path is present iff its maximum is nonzero — every op costs at least
   the fixed 3) and these fold the array into the charge components. *)

let serialized_of_maxima maxima =
  let acc = ref 0 in
  for r = 0 to Array.length maxima - 1 do
    acc := !acc + maxima.(r)
  done;
  !acc

let max_single_of_maxima maxima =
  let acc = ref 0 in
  for r = 0 to Array.length maxima - 1 do
    if maxima.(r) > !acc then acc := maxima.(r)
  done;
  !acc

type charge = { serialized_ops : int; distinct_paths : int; max_single_path_ops : int }

let step_charge events =
  let maxima = Array.make 5 0 in
  let present = Array.make 5 false in
  List.iter
    (fun (e : Aco.Ant.event) ->
      let r = path_rank (path_of_op e.op) in
      present.(r) <- true;
      maxima.(r) <- max maxima.(r) (op_cost e))
    events;
  let serialized = ref 0 and paths = ref 0 and overall = ref 0 in
  Array.iteri
    (fun r p ->
      if p then begin
        serialized := !serialized + maxima.(r);
        incr paths;
        overall := max !overall maxima.(r)
      end)
    present;
  { serialized_ops = !serialized; distinct_paths = !paths; max_single_path_ops = !overall }
