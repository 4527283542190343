(* --- schedule length ---------------------------------------------------- *)

let dependence_height ?cp g =
  let cp = match cp with Some cp -> cp | None -> Critpath.compute g in
  max (Critpath.critical_path_length cp + 1) (Graph.size g)

(* Every dependence costs at least one cycle: [Sched.Schedule.check]
   rejects a destination issued in its source's cycle even at latency 0
   (anti edges). *)
let weight lat = max lat 1

(* Jackson's rule for unit jobs fed in nondecreasing release order: the
   machine always issues, among the released jobs, the one with the
   largest delivery (a max-heap of deliveries; the job's identity never
   matters). For unit jobs and integer releases this list schedule is
   optimal, so [finish] returns the exact minimum over single-issue
   schedules of max (issue cycle + 1 + delivery). *)
type machine = { ready : int Support.Pqueue.t; mutable now : int; mutable makespan : int }

let machine () = { ready = Support.Pqueue.create ~cmp:Int.compare; now = 0; makespan = 0 }

let reset m =
  Support.Pqueue.clear m.ready;
  m.now <- 0;
  m.makespan <- 0

(* Issue the released job with the largest delivery at [now]. *)
let issue m =
  match Support.Pqueue.pop m.ready with
  | Some del ->
      m.makespan <- max m.makespan (m.now + 1 + del);
      m.now <- m.now + 1
  | None -> ()

let admit m ~rel ~del =
  while (not (Support.Pqueue.is_empty m.ready)) && m.now < rel do
    issue m
  done;
  if m.now < rel then m.now <- rel;
  Support.Pqueue.push m.ready del

let finish m =
  while not (Support.Pqueue.is_empty m.ready) do
    issue m
  done;
  m.makespan

(* Heads and tails: [rel.(i)], the longest weighted path from a root to
   [i], is the earliest cycle [i] can issue; [del.(i)], the longest
   weighted path from [i] to a leaf, is how many cycles must follow it.
   Node ids are a topological order (every DDG edge points forward in
   program order), so one sweep each way suffices. *)
let heads_tails (g : Graph.t) =
  let n = g.n in
  let rel = Array.make n 0 and del = Array.make n 0 in
  for i = 0 to n - 1 do
    for k = g.pred_start.(i) to g.pred_start.(i + 1) - 1 do
      rel.(i) <- max rel.(i) (rel.(g.pred_list.(k)) + weight g.pred_lat.(k))
    done
  done;
  for i = n - 1 downto 0 do
    for k = g.succ_start.(i) to g.succ_start.(i + 1) - 1 do
      del.(i) <- max del.(i) (del.(g.succ_list.(k)) + weight g.succ_lat.(k))
    done
  done;
  (rel, del)

(* The relaxation over every node, fed in release order. *)
let relaxed m ~rel ~del =
  let by_rel = Array.init (Array.length rel) Fun.id in
  Array.stable_sort (fun a b -> Int.compare rel.(a) rel.(b)) by_rel;
  reset m;
  Array.iter (fun i -> admit m ~rel:rel.(i) ~del:del.(i)) by_rel;
  finish m

let single_issue g =
  let rel, del = heads_tails g in
  relaxed (machine ()) ~rel ~del

(* One recursive strengthening (Langevin & Cerny) of [heads], visiting
   the nodes in program order along the predecessor rows, or, with
   [~tails], in reverse program order along the successor rows: either
   way every node's row neighbours are visited before it. A node's
   ancestors along those rows are a single-issue instance of their own:
   ancestor [a] issues no earlier than [heads.(a)] and leaves
   [dist (a, v)] cycles before [v] can issue, so [v]'s head is at least
   Jackson's makespan over them with delivery [dist - 1]. Their heads
   are final by the time [v] is visited, and the visited nodes are kept
   sorted by head ([sorted]), so each node costs one longest-path sweep
   back over its ancestors and one Jackson run, with no sort and no
   n x n distance matrix.

   The same function strengthens tails: reversing time turns a node's
   descendants (release [dist - 1], delivery their tail) into jobs
   released at their tail and delivered at [dist - 1], which Jackson's
   rule schedules to the same makespan. *)
let strengthen m (g : Graph.t) ~tails heads =
  let n = g.n in
  let start, list, lat =
    if tails then (g.succ_start, g.succ_list, g.succ_lat)
    else (g.pred_start, g.pred_list, g.pred_lat)
  in
  let node k = if tails then n - 1 - k else k in
  let dist = Array.make n (-1) in
  let sorted = Array.make n 0 in
  for k = 0 to n - 1 do
    let v = node k in
    dist.(v) <- 0;
    for j = k downto 0 do
      let u = node j in
      if dist.(u) >= 0 then
        for e = start.(u) to start.(u + 1) - 1 do
          let a = list.(e) in
          dist.(a) <- max dist.(a) (dist.(u) + weight lat.(e))
        done
    done;
    reset m;
    for j = 0 to k - 1 do
      let a = sorted.(j) in
      if dist.(a) > 0 then admit m ~rel:heads.(a) ~del:(dist.(a) - 1)
    done;
    heads.(v) <- max heads.(v) (finish m);
    for j = 0 to k do
      dist.(node j) <- -1
    done;
    (* insert [v] into the head-sorted prefix *)
    let j = ref k in
    while !j > 0 && heads.(sorted.(!j - 1)) > heads.(v) do
      sorted.(!j) <- sorted.(!j - 1);
      decr j
    done;
    sorted.(!j) <- v
  done

let tails g = snd (heads_tails g)

let schedule_length_tails ?(upper = max_int) (g : Graph.t) =
  let rel, del = heads_tails g in
  let m = machine () in
  let plain = relaxed m ~rel ~del in
  if plain >= upper then (plain, del)
  else begin
    strengthen m g ~tails:false rel;
    strengthen m g ~tails:true del;
    (relaxed m ~rel ~del, del)
  end

let schedule_length ?upper g = fst (schedule_length_tails ?upper g)

(* --- register pressure ---------------------------------------------------- *)

let count_cls cls regs =
  List.length (List.filter (fun (r : Ir.Reg.t) -> Ir.Reg.cls_equal r.cls cls) regs)

let register_pressure (g : Graph.t) cls =
  let region = g.region in
  let live_in = count_cls cls (Ir.Region.live_in region) in
  let live_out = count_cls cls (region : Ir.Region.t).live_out in
  let max_defs =
    Array.fold_left
      (fun acc (i : Ir.Instr.t) -> max acc (count_cls cls i.defs))
      0 (region : Ir.Region.t).instrs
  in
  max live_in (max live_out max_defs)

(* Per-instruction min-register lower bound in the style of Chen et al.
   (arXiv 2303.06855): how many registers of the class are live at the
   point instruction [i] is issued, in *every* valid schedule. A register
   [r] is unavoidably live there iff

   - it is certainly born by then: [r] is live-in, or some definer of [r]
     is an ancestor of [i] in the DDG (ancestors precede [i] in any
     schedule) or [i] itself; and
   - it certainly has not died yet: [r] is live-out (never dies), or is
     defined by [i] (a def is counted at its own issue point even if it
     dies immediately), or some use of [r] is a strict descendant of [i]
     (descendants follow [i], so the use count cannot have reached zero).

   Both conditions are schedule-independent, so the bound is a pure
   region analysis; it is exactly a lower bound on the quantity
   [Sched.Rp_tracker.fits_within] compares against the RP target. *)
let min_reg_lb closure (g : Graph.t) cls =
  let region = g.region in
  let instrs = (region : Ir.Region.t).instrs in
  let n = g.n in
  (* definer / user instruction ids per register of the class *)
  let definers : (Ir.Reg.t, int list) Hashtbl.t = Hashtbl.create 64 in
  let users : (Ir.Reg.t, int list) Hashtbl.t = Hashtbl.create 64 in
  let push tbl r i =
    if Ir.Reg.cls_equal (r : Ir.Reg.t).cls cls then
      Hashtbl.replace tbl r (i :: Option.value (Hashtbl.find_opt tbl r) ~default:[])
  in
  Array.iter
    (fun (ins : Ir.Instr.t) ->
      List.iter (fun r -> push definers r ins.id) ins.defs;
      List.iter (fun r -> push users r ins.id) ins.uses)
    instrs;
  let regs : Ir.Reg.t list =
    let seen = Hashtbl.create 64 in
    let add acc r =
      if Ir.Reg.cls_equal (r : Ir.Reg.t).cls cls && not (Hashtbl.mem seen r) then begin
        Hashtbl.add seen r ();
        r :: acc
      end
      else acc
    in
    let acc = List.fold_left add [] (Ir.Region.live_in region) in
    let acc = List.fold_left add acc (region : Ir.Region.t).live_out in
    Array.fold_left
      (fun acc (ins : Ir.Instr.t) -> List.fold_left add (List.fold_left add acc ins.defs) ins.uses)
      acc instrs
  in
  let live_in_set = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace live_in_set r ()) (Ir.Region.live_in region);
  let lb = Array.make n 0 in
  for i = 0 to n - 1 do
    let count = ref 0 in
    List.iter
      (fun r ->
        let defs = Option.value (Hashtbl.find_opt definers r) ~default:[] in
        let born =
          Hashtbl.mem live_in_set r
          || List.exists (fun d -> d = i || Closure.reaches closure d i) defs
        in
        if born then begin
          let held =
            Ir.Region.is_live_out region r
            || List.exists (fun d -> d = i) defs
            || List.exists
                 (fun u -> Closure.reaches closure i u)
                 (Option.value (Hashtbl.find_opt users r) ~default:[])
          in
          if held then incr count
        end)
      regs;
    lb.(i) <- !count
  done;
  lb
