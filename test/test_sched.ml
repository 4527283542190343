let diamond_graph () = Ddg.Graph.build (Tu.diamond_region ())

let test_schedule_of_order () =
  let g = diamond_graph () in
  match Sched.Schedule.of_order g [| 0; 1; 2; 3; 4; 5 |] with
  | Ok s ->
      Alcotest.(check int) "length" 6 (Sched.Schedule.length s);
      Alcotest.(check int) "no stalls" 0 (Sched.Schedule.num_stalls s);
      Alcotest.(check int) "cycle of 3" 3 (Sched.Schedule.cycle s 3)
  | Error v -> Alcotest.failf "unexpected: %s" (Sched.Schedule.violation_to_string v)

let expect_violation name built pred =
  match built with
  | Ok _ -> Alcotest.failf "%s: expected violation" name
  | Error v ->
      Alcotest.(check bool) (name ^ ": right violation kind") true (pred v)

(* Issue cycles per instruction for the completeness, one-per-cycle,
   order and latency checks; orders for the ids only an order can
   repeat or invent. *)
let test_schedule_violations () =
  let g = diamond_graph () in
  let cycles c = Sched.Schedule.of_cycles g ~latency_aware:true c in
  expect_violation "missing"
    (cycles [| 0; 1; 2; 3; 4; -1 |])
    (function Sched.Schedule.Missing 5 -> true | _ -> false);
  expect_violation "same cycle"
    (cycles [| 0; 1; 2; 3; 4; 4 |])
    (function
      | Sched.Schedule.Same_cycle { first = 4; second = 5; cycle = 4 } -> true | _ -> false);
  expect_violation "duplicate"
    (Sched.Schedule.of_order g [| 0; 1; 2; 3; 4; 5; 5 |])
    (function Sched.Schedule.Duplicated 5 -> true | _ -> false);
  expect_violation "unknown"
    (Sched.Schedule.of_order g [| 0; 1; 2; 3; 4; 5; 17 |])
    (function Sched.Schedule.Unknown_instr 17 -> true | _ -> false);
  expect_violation "order violation"
    (cycles [| 1; 0; 2; 3; 4; 5 |])
    (function Sched.Schedule.Order_violation _ -> true | _ -> false);
  (* dependences in order but latencies ignored -> latency violation *)
  expect_violation "latency violation"
    (cycles [| 0; 1; 2; 3; 4; 5 |])
    (function Sched.Schedule.Latency_violation _ -> true | _ -> false)

let test_latency_pad_minimal () =
  let g = diamond_graph () in
  let s = Sched.Schedule.latency_pad g [| 0; 1; 2; 3; 4; 5 |] in
  Alcotest.(check bool) "valid with latencies" true (Tu.check_valid ~latency_aware:true s);
  let sl = Ir.Opcode.default_latency Ir.Opcode.Smem_load in
  let vl = Ir.Opcode.default_latency Ir.Opcode.Vmem_load in
  (* s_load at 0, v_load at sl, valus at sl+vl and +1, join, store *)
  Alcotest.(check int) "padded length" (sl + vl + 4) (Sched.Schedule.length s);
  Alcotest.(check int) "stalls" (sl + vl + 4 - 6) (Sched.Schedule.num_stalls s);
  Alcotest.(check (array int)) "order preserved" [| 0; 1; 2; 3; 4; 5 |] (Sched.Schedule.order s)

let prop_latency_pad_valid =
  QCheck.Test.make ~name:"latency_pad always yields valid schedules" ~count:80
    (Tu.arb_graph ()) (fun g ->
      let order = Array.init g.n Fun.id in
      let s = Sched.Schedule.latency_pad g order in
      Result.is_ok (Sched.Schedule.validate s ~latency_aware:true))

let prop_tracker_matches_naive =
  QCheck.Test.make ~name:"incremental RP = naive interval RP" ~count:80 (Tu.arb_graph ())
    (fun g ->
      let order = Array.init g.n Fun.id in
      let t = Sched.Rp_tracker.create g in
      Array.iter (Sched.Rp_tracker.schedule t) order;
      let naive = Sched.Rp_tracker.naive_peaks g order in
      Sched.Rp_tracker.peak t Ir.Reg.Vgpr = naive Ir.Reg.Vgpr
      && Sched.Rp_tracker.peak t Ir.Reg.Sgpr = naive Ir.Reg.Sgpr)

let prop_tracker_predictions =
  QCheck.Test.make ~name:"peak_if_scheduled predicts the next step" ~count:80
    (Tu.arb_graph ()) (fun g ->
      let t = Sched.Rp_tracker.create g in
      let rl = Sched.Ready_list.create ~latency_aware:false g in
      let ok = ref true in
      while not (Sched.Ready_list.finished rl) do
        let i = Sched.Ready_list.ready rl 0 in
        let pv = Sched.Rp_tracker.peak_if_scheduled t i Ir.Reg.Vgpr in
        let ps = Sched.Rp_tracker.peak_if_scheduled t i Ir.Reg.Sgpr in
        let dv = Sched.Rp_tracker.delta_if_scheduled t i Ir.Reg.Vgpr in
        let cur_v = Sched.Rp_tracker.current t Ir.Reg.Vgpr in
        (* the one-scan pair agrees with the per-class predictions *)
        if Sched.Rp_tracker.peaks_if_scheduled t i (fun ~vgpr ~sgpr -> (vgpr, sgpr)) <> (pv, ps)
        then ok := false;
        Sched.Rp_tracker.schedule t i;
        Sched.Ready_list.schedule rl i;
        if Sched.Rp_tracker.peak t Ir.Reg.Vgpr <> pv then ok := false;
        if Sched.Rp_tracker.peak t Ir.Reg.Sgpr <> ps then ok := false;
        (* current moves by delta, except immediate dead-def cleanup *)
        if Sched.Rp_tracker.current t Ir.Reg.Vgpr > cur_v + dv then ok := false
      done;
      !ok)

(* [filter_fits] against its definition: walking a random topological
   order under loose and punishing targets, the filter reads the ready
   prefix where the list keeps it and keeps exactly the candidates
   [fits_within] accepts, in ready order, and the meter counts every
   candidate unless a peak already breaches a target (then nothing is
   evaluated and nothing kept). *)
let prop_fit_filter =
  QCheck.Test.make ~name:"fit filter keeps exactly the candidates that fit" ~count:60
    (QCheck.pair (Tu.arb_graph ~max_size:20 ()) QCheck.small_int)
    (fun (g, seed) ->
      let t = Sched.Rp_tracker.create g in
      let rng = Support.Rng.create seed in
      let ready = Sched.Ready_list.create ~latency_aware:false g in
      let cand = Array.make g.Ddg.Graph.n 0 in
      let targets = [| (256, 800); (4, 4); (1, 1); (7, 2) |] in
      while not (Sched.Ready_list.finished ready) do
        let m = Sched.Ready_list.ready_count ready in
        let tv, ts = targets.(Support.Rng.int rng (Array.length targets)) in
        let fitting =
          List.filter
            (fun i -> Sched.Rp_tracker.fits_within t i ~target_vgpr:tv ~target_sgpr:ts)
            (Sched.Ready_list.ready_list ready)
        in
        let breached =
          Sched.Rp_tracker.peak t Ir.Reg.Vgpr > tv || Sched.Rp_tracker.peak t Ir.Reg.Sgpr > ts
        in
        let scored_before = Sched.Rp_tracker.scored_candidates t in
        let kept =
          Sched.Rp_tracker.filter_fits t ~src:(Sched.Ready_list.ready_store ready)
            ~base:(Sched.Ready_list.ready_offset ready) ~n_cand:m ~into:cand ~target_vgpr:tv
            ~target_sgpr:ts
        in
        Alcotest.(check (list int)) "kept prefix" fitting (Array.to_list (Array.sub cand 0 kept));
        Alcotest.(check int) "scored candidates"
          (if breached then 0 else m)
          (Sched.Rp_tracker.scored_candidates t - scored_before);
        let i = Sched.Ready_list.ready ready (Support.Rng.int rng m) in
        Sched.Ready_list.schedule ready i;
        Sched.Rp_tracker.schedule t i
      done;
      true)

(* The tracker's effects against their definitions on non-SSA regions,
   which the SSA generators never reach: redefinitions (a liveness flip
   moves the opens of every definer), an instruction that uses and
   defines one register, duplicate uses and redefined live-ins. The
   reference replays the liveness rules of Section II-A over the
   scheduled prefix with per-register use counts, then counts each
   effect from its definition; it shares no code with the tracker. *)
let nonssa_redef = ref 0
let nonssa_use_def = ref 0
let nonssa_dup_use = ref 0
let nonssa_live_in_redef = ref 0

let reference_effects (region : Ir.Region.t) prefix =
  let instrs = region.Ir.Region.instrs in
  let regs =
    List.sort_uniq Ir.Reg.compare
      (Array.fold_left
         (fun acc (ins : Ir.Instr.t) -> ins.Ir.Instr.defs @ ins.Ir.Instr.uses @ acc)
         [] instrs)
  in
  let count p l = List.length (List.filter p l) in
  let rem = Hashtbl.create 16 and live = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace rem r
        (Array.fold_left
           (fun acc (ins : Ir.Instr.t) -> acc + count (Ir.Reg.equal r) ins.Ir.Instr.uses)
           0 instrs);
      (* live-in: read before the first definition in program order *)
      let first p =
        Array.find_index (fun (ins : Ir.Instr.t) -> List.exists (Ir.Reg.equal r) (p ins)) instrs
      in
      Hashtbl.replace live r
        (match (first (fun ins -> ins.Ir.Instr.uses), first (fun ins -> ins.Ir.Instr.defs)) with
        | Some u, Some d -> u <= d
        | Some _, None -> true
        | None, _ -> false))
    regs;
  let live_out r = List.exists (Ir.Reg.equal r) region.Ir.Region.live_out in
  let dies r = Hashtbl.find rem r = 0 && (not (live_out r)) && Hashtbl.find live r in
  List.iter
    (fun i ->
      let ins = instrs.(i) in
      List.iter
        (fun u ->
          Hashtbl.replace rem u (Hashtbl.find rem u - 1);
          if dies u then Hashtbl.replace live u false)
        ins.Ir.Instr.uses;
      List.iter (fun d -> Hashtbl.replace live d true) ins.Ir.Instr.defs;
      List.iter (fun d -> if dies d then Hashtbl.replace live d false) ins.Ir.Instr.defs)
    prefix;
  let current cls =
    count (fun (r : Ir.Reg.t) -> Ir.Reg.cls_equal r.Ir.Reg.cls cls && Hashtbl.find live r) regs
  in
  let delta i cls =
    let ins = instrs.(i) in
    let of_cls (r : Ir.Reg.t) = Ir.Reg.cls_equal r.Ir.Reg.cls cls in
    let closes =
      count
        (fun u ->
          of_cls u
          && Hashtbl.find rem u = count (Ir.Reg.equal u) ins.Ir.Instr.uses
          && Hashtbl.find live u && not (live_out u))
        (List.sort_uniq Ir.Reg.compare ins.Ir.Instr.uses)
    in
    let opens = count (fun d -> of_cls d && not (Hashtbl.find live d)) ins.Ir.Instr.defs in
    opens - closes
  in
  (current, delta)

let witness_nonssa (region : Ir.Region.t) =
  let instrs = Array.to_list region.Ir.Region.instrs in
  let defs = List.concat_map (fun (ins : Ir.Instr.t) -> ins.Ir.Instr.defs) instrs in
  let bump w c = if c then incr w in
  bump nonssa_redef
    (List.length (List.sort_uniq Ir.Reg.compare defs) < List.length defs);
  bump nonssa_use_def
    (List.exists
       (fun (ins : Ir.Instr.t) ->
         List.exists (fun d -> List.exists (Ir.Reg.equal d) ins.Ir.Instr.uses) ins.Ir.Instr.defs)
       instrs);
  bump nonssa_dup_use
    (List.exists
       (fun (ins : Ir.Instr.t) ->
         let u = ins.Ir.Instr.uses in
         List.length (List.sort_uniq Ir.Reg.compare u) < List.length u)
       instrs);
  bump nonssa_live_in_redef
    (List.exists (fun r -> List.exists (Ir.Reg.equal r) defs) (Ir.Region.live_in region))

let prop_tracker_nonssa =
  QCheck.Test.make ~name:"tracker effects match their definitions on non-SSA regions"
    ~count:300
    (QCheck.pair Tu.arb_nonssa_region QCheck.small_int)
    (fun (region, seed) ->
      witness_nonssa region;
      let g = Ddg.Graph.build region in
      let n = g.Ddg.Graph.n in
      let t = Sched.Rp_tracker.create g in
      let rl = Sched.Ready_list.create ~latency_aware:false g in
      let rng = Support.Rng.create seed in
      let cand = Array.make n 0 in
      let prefix = ref [] in
      let classes = [ Ir.Reg.Vgpr; Ir.Reg.Sgpr ] in
      let check_step () =
        let current, delta = reference_effects region (List.rev !prefix) in
        List.iter
          (fun cls ->
            Alcotest.(check int) "current" (current cls) (Sched.Rp_tracker.current t cls);
            for i = 0 to n - 1 do
              if Sched.Ready_list.issue_cycle rl i < 0 then
                Alcotest.(check int)
                  (Printf.sprintf "delta of %d after [%s]" i
                     (String.concat " " (List.rev_map string_of_int !prefix)))
                  (delta i cls)
                  (Sched.Rp_tracker.delta_if_scheduled t i cls)
            done)
          classes
      in
      while not (Sched.Ready_list.finished rl) do
        check_step ();
        let m = Sched.Ready_list.ready_count rl in
        let target cls = Sched.Rp_tracker.current t cls + Support.Rng.int rng 3 - 1 in
        let tv = target Ir.Reg.Vgpr and ts = target Ir.Reg.Sgpr in
        let fitting =
          List.filter
            (fun i -> Sched.Rp_tracker.fits_within t i ~target_vgpr:tv ~target_sgpr:ts)
            (Sched.Ready_list.ready_list rl)
        in
        let kept =
          Sched.Rp_tracker.filter_fits t ~src:(Sched.Ready_list.ready_store rl)
            ~base:(Sched.Ready_list.ready_offset rl) ~n_cand:m ~into:cand ~target_vgpr:tv
            ~target_sgpr:ts
        in
        Alcotest.(check (list int)) "kept prefix" fitting (Array.to_list (Array.sub cand 0 kept));
        let i = Sched.Ready_list.ready rl (Support.Rng.int rng m) in
        Sched.Ready_list.schedule rl i;
        Sched.Rp_tracker.schedule t i;
        prefix := i :: !prefix
      done;
      check_step ();
      true)

(* A layout serves only the graph it was built for. *)
let test_layout_guards () =
  let g = Ddg.Graph.build (Tu.diamond_region ()) in
  let other = Ddg.Graph.build (Tu.diamond_region ()) in
  let layout = Sched.Rp_tracker.layout_of_graph g in
  Alcotest.check_raises "layout of another graph"
    (Invalid_argument "Rp_tracker.create: layout is for another graph") (fun () ->
      ignore (Sched.Rp_tracker.create ~layout other))

let prop_tracker_reset =
  QCheck.Test.make ~name:"reset restores the initial state" ~count:50 (Tu.arb_graph ())
    (fun g ->
      let t = Sched.Rp_tracker.create g in
      let v0 = Sched.Rp_tracker.current t Ir.Reg.Vgpr in
      for i = 0 to g.n - 1 do
        Sched.Rp_tracker.schedule t i
      done;
      Sched.Rp_tracker.reset t;
      Sched.Rp_tracker.current t Ir.Reg.Vgpr = v0
      && Sched.Rp_tracker.peak t Ir.Reg.Vgpr = v0)

let prop_fits_within_consistent =
  QCheck.Test.make ~name:"fits_within agrees with peak_if_scheduled" ~count:60
    (Tu.arb_graph ()) (fun g ->
      let t = Sched.Rp_tracker.create g in
      let rl = Sched.Ready_list.create ~latency_aware:false g in
      let ok = ref true in
      while not (Sched.Ready_list.finished rl) do
        let i = Sched.Ready_list.ready rl 0 in
        let pv = Sched.Rp_tracker.peak_if_scheduled t i Ir.Reg.Vgpr in
        let ps = Sched.Rp_tracker.peak_if_scheduled t i Ir.Reg.Sgpr in
        if
          Sched.Rp_tracker.fits_within t i ~target_vgpr:pv ~target_sgpr:ps = false
          || Sched.Rp_tracker.fits_within t i ~target_vgpr:(pv - 1) ~target_sgpr:ps
        then ok := false;
        Sched.Rp_tracker.schedule t i;
        Sched.Ready_list.schedule rl i
      done;
      !ok)

let test_ready_list_latency_promotion () =
  let g = diamond_graph () in
  let rl = Sched.Ready_list.create ~latency_aware:true g in
  let sl = Ir.Opcode.default_latency Ir.Opcode.Smem_load in
  Alcotest.(check (list int)) "only root ready" [ 0 ] (Sched.Ready_list.ready_list rl);
  Sched.Ready_list.schedule rl 0;
  (* v_load waits on the s_load latency *)
  Alcotest.(check int) "nothing ready yet" 0 (Sched.Ready_list.ready_count rl);
  Alcotest.(check (list (pair int int))) "semi-ready v_load" [ (1, sl) ]
    (Sched.Ready_list.semi_ready rl);
  Alcotest.(check (option int)) "next event" (Some sl) (Sched.Ready_list.min_semi_ready_cycle rl);
  for _ = 1 to sl - 1 do
    Sched.Ready_list.stall rl
  done;
  Alcotest.(check (list int)) "v_load promoted at its cycle" [ 1 ]
    (Sched.Ready_list.ready_list rl)

let test_ready_list_rejects_unready () =
  let g = diamond_graph () in
  let rl = Sched.Ready_list.create ~latency_aware:true g in
  Alcotest.check_raises "scheduling unready raises"
    (Invalid_argument "Ready_list: instruction is not ready") (fun () ->
      Sched.Ready_list.schedule rl 5)

(* The pending ring against a list model: the pre-ring sorted window,
   a list of (ready cycle, instr) where a new entry goes before every
   entry of its cycle, promoted from the front into a ready array that
   removes by swapping in its last entry. Random regions with explicit
   latencies: edges as heavy as the 1,024-cycle cap, regions whose
   largest edge weight is 1 (a two-bucket ring), and the latency-free
   list over the heavy ones. After every [schedule] and [stall] the
   ready order, [semi_ready] and its summaries must match the model. *)
let heavy_edges = ref 0
let unit_edges = ref 0
let latency_free_runs = ref 0

let timed_region ~heavy seed =
  let rng = Support.Rng.create seed in
  let b = Ir.Builder.create ~name:(Printf.sprintf "ring%d" seed) in
  let n = 2 + Support.Rng.int rng 34 in
  let lats = if heavy then [| 0; 1; 4; 40; 1024 |] else [| 0; 1 |] in
  let defs = ref [] in
  for k = 0 to n - 1 do
    let latency =
      if heavy && k = 0 then 1024 else lats.(Support.Rng.int rng (Array.length lats))
    in
    let pool = Array.of_list !defs in
    let uses =
      if k = 1 && heavy then [ pool.(0) ]
      else List.init (min (Array.length pool) (Support.Rng.int rng 3)) (fun _ ->
          pool.(Support.Rng.int rng (Array.length pool)))
    in
    let d = Ir.Builder.fresh_vgpr b in
    Ir.Builder.emit b ~latency Ir.Opcode.Valu ~defs:[ d ] ~uses:(List.sort_uniq Ir.Reg.compare uses);
    defs := d :: !defs
  done;
  Ir.Builder.finish b

let check_ring_against_model (g : Ddg.Graph.t) ~latency_aware seed =
  let n = g.n in
  let rl = Sched.Ready_list.create ~latency_aware g in
  let rng = Support.Rng.create seed in
  let unsched = Array.init n (Ddg.Graph.num_preds g) in
  let earliest = Array.make n 0 in
  let ready = Array.make (max n 1) 0 and pos = Array.make n (-1) and ready_n = ref 0 in
  let pending = ref [] and cycle = ref 0 in
  let push i =
    ready.(!ready_n) <- i;
    pos.(i) <- !ready_n;
    incr ready_n
  in
  let rec insert c i = function
    | (c', _) :: _ as l when c <= c' -> (c, i) :: l
    | e :: rest -> e :: insert c i rest
    | [] -> [ (c, i) ]
  in
  let rec promote () =
    match !pending with
    | (c, i) :: rest when c <= !cycle ->
        push i;
        pending := rest;
        promote ()
    | _ -> ()
  in
  let model_schedule i =
    let p = pos.(i) in
    let moved = ready.(!ready_n - 1) in
    ready.(p) <- moved;
    pos.(moved) <- p;
    decr ready_n;
    pos.(i) <- -1;
    for k = g.succ_start.(i) to g.succ_start.(i + 1) - 1 do
      let j = g.succ_list.(k) and lat = g.succ_lat.(k) in
      unsched.(j) <- unsched.(j) - 1;
      let lat = if latency_aware && lat > 1 then lat else 1 in
      earliest.(j) <- max earliest.(j) (!cycle + lat);
      if unsched.(j) = 0 then pending := insert earliest.(j) j !pending
    done;
    incr cycle;
    promote ()
  in
  for i = 0 to n - 1 do
    if unsched.(i) = 0 then push i
  done;
  let check what =
    Alcotest.(check (list int))
      (what ^ ": ready order")
      (Array.to_list (Array.sub ready 0 !ready_n))
      (Sched.Ready_list.ready_list rl);
    Alcotest.(check (list (pair int int)))
      (what ^ ": semi-ready")
      (List.map (fun (c, i) -> (i, c)) !pending)
      (Sched.Ready_list.semi_ready rl);
    Alcotest.(check (option int))
      (what ^ ": next ready cycle")
      (match !pending with (c, _) :: _ -> Some c | [] -> None)
      (Sched.Ready_list.min_semi_ready_cycle rl);
    Alcotest.(check bool)
      (what ^ ": has semi-ready") (!pending <> [])
      (Sched.Ready_list.has_semi_ready rl)
  in
  check "start";
  while not (Sched.Ready_list.finished rl) do
    if !ready_n = 0 || (!pending <> [] && Support.Rng.int rng 4 = 0) then begin
      Sched.Ready_list.stall rl;
      incr cycle;
      promote ();
      check (Printf.sprintf "stall at %d" !cycle)
    end
    else begin
      let i = ready.(Support.Rng.int rng !ready_n) in
      Sched.Ready_list.schedule rl i;
      model_schedule i;
      check (Printf.sprintf "issue %d at %d" i (!cycle - 1))
    end
  done

let prop_ready_ring =
  QCheck.Test.make ~name:"pending ring promotes like the sorted list" ~count:150
    QCheck.(pair small_nat bool)
    (fun (seed, heavy) ->
      let g = Ddg.Graph.build (timed_region ~heavy seed) in
      let weights = Array.map (fun lat -> max lat 1) g.succ_lat in
      if Array.exists (fun w -> w = 1024) weights then incr heavy_edges;
      if Array.length weights > 0 && Array.for_all (fun w -> w = 1) weights then incr unit_edges;
      check_ring_against_model g ~latency_aware:true seed;
      if heavy then begin
        incr latency_free_runs;
        check_ring_against_model g ~latency_aware:false seed
      end;
      true)

let prop_list_scheduler_valid =
  QCheck.Test.make ~name:"list scheduler output validates (all heuristics)" ~count:60
    (Tu.arb_graph ()) (fun g ->
      List.for_all
        (fun h ->
          let lat = Sched.List_scheduler.run ~latency_aware:true g h in
          let ord = Sched.List_scheduler.run ~latency_aware:false g h in
          Result.is_ok (Sched.Schedule.validate lat ~latency_aware:true)
          && Result.is_ok (Sched.Schedule.validate ord ~latency_aware:false)
          && Sched.Schedule.num_stalls ord = 0)
        Sched.Heuristic.all)

let prop_amd_scheduler_valid =
  QCheck.Test.make ~name:"AMD baseline output validates" ~count:60 (Tu.arb_graph ())
    (fun g ->
      let s = Sched.List_scheduler.amd Tu.occ g in
      Result.is_ok (Sched.Schedule.validate s ~latency_aware:true))

let test_heuristic_best_deterministic () =
  let g = diamond_graph () in
  let rp = Sched.Rp_tracker.create g in
  let ctx = Sched.Heuristic.make_ctx g rp in
  Alcotest.(check int) "tie goes to lower id" 2
    (Sched.Heuristic.best Sched.Heuristic.Critical_path ctx [ 3; 2 ]);
  Alcotest.check_raises "empty candidates"
    (Invalid_argument "Heuristic.best: empty candidate list") (fun () ->
      ignore (Sched.Heuristic.best Sched.Heuristic.Critical_path ctx []))

let prop_eta_positive =
  QCheck.Test.make ~name:"heuristic eta strictly positive" ~count:40 (Tu.arb_graph ())
    (fun g ->
      let rp = Sched.Rp_tracker.create g in
      let ctx = Sched.Heuristic.make_ctx g rp in
      List.for_all
        (fun h ->
          let ok = ref true in
          for i = 0 to g.Ddg.Graph.n - 1 do
            if Sched.Heuristic.eta h ctx i <= 0.0 then ok := false
          done;
          !ok)
        Sched.Heuristic.all)

(* The tracker queries on the ant hot path allocate nothing: each is
   measured over 10k calls, net of the measuring loop. Nothing is
   scheduled, so the live-in pressure is also the peak, and targets at
   that pressure make the fit filter and [fits_within] reject every
   candidate that would open a live range, so both outcomes of the fit
   decision are measured. *)
let test_rp_queries_allocation_free () =
  let g =
    Ddg.Graph.build (Workload.Shapes.transform (Support.Rng.create 3) ~unroll:10 ~chain:4)
  in
  let t = Sched.Rp_tracker.create g in
  let n = g.Ddg.Graph.n in
  let target_vgpr = Sched.Rp_tracker.current t Ir.Reg.Vgpr in
  let target_sgpr = Sched.Rp_tracker.current t Ir.Reg.Sgpr in
  let all = Array.init n Fun.id in
  let cand = Array.make n 0 in
  let fitting =
    Sched.Rp_tracker.filter_fits t ~src:all ~base:0 ~n_cand:n ~into:cand ~target_vgpr ~target_sgpr
  in
  Alcotest.(check bool) "targets reject a candidate" true (fitting < n);
  (* a candidate [fits_within] rejects *)
  let i =
    List.find
      (fun i -> not (Sched.Rp_tracker.fits_within t i ~target_vgpr ~target_sgpr))
      (List.init n Fun.id)
  in
  let cp = Ddg.Critpath.compute g in
  let mat = Support.Fmat.create ~rows:1 ~cols:n in
  let sink = ref 0 in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.0)) (name ^ ": minor words per call") 0.0
        (Tu.minor_words_per_call ~calls:10_000 f))
    [
      ( "filter_fits",
        fun () ->
          sink :=
            Sched.Rp_tracker.filter_fits t ~src:all ~base:0 ~n_cand:n ~into:cand ~target_vgpr
              ~target_sgpr );
      ( "fits_within",
        fun () ->
          if Sched.Rp_tracker.fits_within t i ~target_vgpr ~target_sgpr then incr sink );
      ("closes_minus_opens", fun () -> sink := Sched.Rp_tracker.closes_minus_opens t i);
      ( "delta_if_scheduled",
        fun () -> sink := Sched.Rp_tracker.delta_if_scheduled t i Ir.Reg.Vgpr );
      ( "fill_luc_eta_mat",
        fun () ->
          Sched.Heuristic.fill_luc_eta_mat t ~cp ~src:all ~base:0 ~n ~mat:mat.Support.Fmat.data
            ~dst:0 );
    ]

let test_cost_ordering () =
  let a = Sched.Cost.rp_of_peaks Tu.occ ~vgpr:24 ~sgpr:10 in
  let b = Sched.Cost.rp_of_peaks Tu.occ ~vgpr:28 ~sgpr:10 in
  Alcotest.(check bool) "higher occupancy is better" true (Sched.Cost.compare_rp a b < 0);
  Alcotest.(check bool) "scalar agrees" true (Sched.Cost.rp_scalar a < Sched.Cost.rp_scalar b);
  let c1 = { Sched.Cost.rp = a; length = 10 } in
  let c2 = { Sched.Cost.rp = a; length = 12 } in
  Alcotest.(check bool) "length tie-break" true (Sched.Cost.better_rp_then_length c1 c2);
  Alcotest.(check bool) "not better than itself" false (Sched.Cost.better_rp_then_length c1 c1)

let prop_cost_scalar_consistent =
  QCheck.Test.make ~name:"rp_scalar orders like compare_rp" ~count:200
    QCheck.(pair (pair (int_range 0 128) (int_range 0 128)) (pair (int_range 0 128) (int_range 0 128)))
    (fun ((v1, s1), (v2, s2)) ->
      let a = Sched.Cost.rp_of_peaks Tu.occ ~vgpr:v1 ~sgpr:s1 in
      let b = Sched.Cost.rp_of_peaks Tu.occ ~vgpr:v2 ~sgpr:s2 in
      compare (Sched.Cost.rp_scalar a) (Sched.Cost.rp_scalar b) = Sched.Cost.compare_rp a b
      || Sched.Cost.compare_rp a b = 0)

let test_amd_beats_pressure_trap () =
  (* The stencil trap: breadth-first orders keep every load live. AMD's
     greedy should do no worse on occupancy than the pure CP schedule. *)
  let rng = Support.Rng.create 11 in
  let g = Ddg.Graph.build (Workload.Shapes.stencil rng ~outputs:16 ~radius:4) in
  let amd = Sched.Cost.of_schedule Tu.occ (Sched.List_scheduler.amd Tu.occ g) in
  let cp =
    Sched.Cost.of_schedule Tu.occ (Sched.List_scheduler.run g Sched.Heuristic.Critical_path)
  in
  Alcotest.(check bool) "amd occ >= cp occ" true
    (amd.Sched.Cost.rp.Sched.Cost.occupancy >= cp.Sched.Cost.rp.Sched.Cost.occupancy)

let prop_constrained_scheduler_sound =
  QCheck.Test.make ~name:"constrained scheduler meets its targets" ~count:60
    (Tu.arb_graph ()) (fun g ->
      (* Target = the LUC order's peaks: always achievable. *)
      let luc = Sched.List_scheduler.run_order g Sched.Heuristic.Last_use_count in
      let peaks = Sched.Rp_tracker.naive_peaks g luc in
      let tv = peaks Ir.Reg.Vgpr and ts = peaks Ir.Reg.Sgpr in
      match Sched.List_scheduler.constrained g ~target_vgpr:tv ~target_sgpr:ts with
      | None -> true (* greedy may corner itself; padding is the fallback *)
      | Some s ->
          let p = Sched.Rp_tracker.naive_peaks g (Sched.Schedule.order s) in
          Result.is_ok (Sched.Schedule.validate s ~latency_aware:true)
          && p Ir.Reg.Vgpr <= tv
          && p Ir.Reg.Sgpr <= ts)

let test_constrained_scheduler_infeasible () =
  let g = diamond_graph () in
  (* A zero-VGPR budget is unsatisfiable: the scheduler must give up, not
     loop or emit a violating schedule. *)
  Alcotest.(check bool) "returns None" true
    (Sched.List_scheduler.constrained g ~target_vgpr:0 ~target_sgpr:0 = None)

let test_constrained_not_longer_than_padded () =
  let rng = Support.Rng.create 3 in
  let g = Ddg.Graph.build (Workload.Shapes.stencil rng ~outputs:16 ~radius:4) in
  let luc = Sched.List_scheduler.run_order g Sched.Heuristic.Last_use_count in
  let peaks = Sched.Rp_tracker.naive_peaks g luc in
  let padded = Sched.Schedule.latency_pad g luc in
  match
    Sched.List_scheduler.constrained g ~target_vgpr:(peaks Ir.Reg.Vgpr)
      ~target_sgpr:(peaks Ir.Reg.Sgpr)
  with
  | Some s ->
      Alcotest.(check bool) "greedy beats naive padding here" true
        (Sched.Schedule.length s <= Sched.Schedule.length padded)
  | None -> Alcotest.fail "expected the constrained greedy to succeed"

let prop_brute_force_brackets =
  QCheck.Test.make ~name:"LB <= exact optimum <= every heuristic" ~count:40
    (Tu.arb_graph ~max_size:10 ()) (fun g ->
      let opt_peak = Sched.Brute_force.min_peak_pressure g Ir.Reg.Vgpr in
      let opt_len = Sched.Brute_force.min_schedule_length g in
      let plain = Ddg.Lower_bounds.single_issue g in
      let tight = Ddg.Lower_bounds.schedule_length g in
      Ddg.Lower_bounds.register_pressure g Ir.Reg.Vgpr <= opt_peak
      && Ddg.Lower_bounds.dependence_height g <= plain
      && plain <= tight
      && tight <= opt_len
      && List.for_all
           (fun h ->
             let s = Sched.List_scheduler.run g h in
             Sched.Rp_tracker.naive_peaks g (Sched.Schedule.order s) Ir.Reg.Vgpr >= opt_peak
             && Sched.Schedule.length s >= opt_len)
           Sched.Heuristic.all)

let test_brute_force_diamond () =
  let g = diamond_graph () in
  (* the diamond needs at most 2 VGPRs live at once (a plus one of x/y,
     then x and y) and its optimal length equals the padded order *)
  Alcotest.(check int) "exact min peak" 2 (Sched.Brute_force.min_peak_pressure g Ir.Reg.Vgpr);
  let sl = Ir.Opcode.default_latency Ir.Opcode.Smem_load in
  let vl = Ir.Opcode.default_latency Ir.Opcode.Vmem_load in
  Alcotest.(check int) "exact min length" (sl + vl + 4) (Sched.Brute_force.min_schedule_length g)

(* Each length bound on fixed random regions: [(max_size, seed, n,
   height, plain, recursive, exact optimum)], the optimum where the brute
   force reaches. Seed 54 is closed only by the recursive step; 71 only
   by its delivery half and 3377 only by its release half; 1197's plain
   relaxation is exact only because its latency-0 anti dependence still
   costs a cycle (weighted 0 it reads 44). The diamond's plain relaxation
   is exact too: its two middle instructions cannot share a cycle, which
   the height misses. *)
let test_length_bounds_pinned () =
  let check name g ~height ~plain ~tight ~opt =
    Alcotest.(check int) (name ^ " dependence height") height (Ddg.Lower_bounds.dependence_height g);
    Alcotest.(check int) (name ^ " single-issue relaxation") plain (Ddg.Lower_bounds.single_issue g);
    Alcotest.(check int) (name ^ " recursive bound") tight (Ddg.Lower_bounds.schedule_length g);
    Option.iter
      (fun opt ->
        Alcotest.(check int) (name ^ " exact optimum") opt (Sched.Brute_force.min_schedule_length g))
      opt
  in
  List.iter
    (fun (max_size, seed, n, height, plain, tight, opt) ->
      let g = Ddg.Graph.build (Tu.random_region ~max_size seed) in
      let name = Printf.sprintf "random %d" seed in
      Alcotest.(check int) (name ^ " size") n g.Ddg.Graph.n;
      check name g ~height ~plain ~tight ~opt)
    [
      (12, 54, 10, 13, 16, 17, Some 17);
      (12, 71, 11, 13, 14, 15, Some 15);
      (16, 3377, 15, 18, 18, 19, None);
      (12, 1197, 8, 43, 45, 45, Some 45);
    ];
  let sl = Ir.Opcode.default_latency Ir.Opcode.Smem_load in
  let vl = Ir.Opcode.default_latency Ir.Opcode.Vmem_load in
  check "diamond" (diamond_graph ()) ~height:(sl + vl + 3) ~plain:(sl + vl + 4)
    ~tight:(sl + vl + 4) ~opt:(Some (sl + vl + 4))

let test_brute_force_rejects_large () =
  let g = Ddg.Graph.build (Workload.Shapes.reduction (Support.Rng.create 1) ~items:32) in
  Alcotest.check_raises "min_peak_pressure size guard"
    (Invalid_argument "Brute_force.min_peak_pressure: region too large") (fun () ->
      ignore (Sched.Brute_force.min_peak_pressure g Ir.Reg.Vgpr));
  Alcotest.check_raises "min_schedule_length size guard"
    (Invalid_argument "Brute_force.min_schedule_length: region too large") (fun () ->
      ignore (Sched.Brute_force.min_schedule_length g))

(* A random topological order of [g] and issue cycles for it: random
   stall gaps of 0-3 cycles, and in half the cases each instruction also
   waits out its sources' latencies. *)
let timed_order (g : Ddg.Graph.t) rng =
  let rl = Sched.Ready_list.create ~latency_aware:false g in
  let order =
    Array.init g.n (fun _ ->
        let i = Sched.Ready_list.ready rl (Support.Rng.int rng (Sched.Ready_list.ready_count rl)) in
        Sched.Ready_list.schedule rl i;
        i)
  in
  let wait = Support.Rng.bool rng 0.5 in
  let cycles = Array.make g.n (-1) in
  let next = ref 0 in
  Array.iter
    (fun i ->
      let c = ref (!next + Support.Rng.int rng 4) in
      if wait then
        for k = g.pred_start.(i) to g.pred_start.(i + 1) - 1 do
          c := max !c (cycles.(g.pred_list.(k)) + g.pred_lat.(k))
        done;
      cycles.(i) <- !c;
      next := !c + 1)
    order;
  (order, cycles)

let feasible_cases = ref 0
let infeasible_cases = ref 0

let prop_schedule_of_cycles =
  QCheck.Test.make ~name:"of_cycles follows the cycles it is given" ~count:120
    QCheck.(pair (Tu.arb_graph ()) small_nat)
    (fun ((g : Ddg.Graph.t), seed) ->
      let rng = Support.Rng.create seed in
      let order, cycles = timed_order g rng in
      let n = g.n in
      let build ?(latency_aware = false) c = Sched.Schedule.of_cycles g ~latency_aware c in
      let s =
        match build cycles with
        | Ok s -> s
        | Error v -> QCheck.Test.fail_reportf "rejected: %s" (Sched.Schedule.violation_to_string v)
      in
      let last = cycles.(order.(n - 1)) in
      let agrees =
        Sched.Schedule.order s = order
        && List.for_all (fun i -> Sched.Schedule.cycle s i = cycles.(i)) (List.init n Fun.id)
        && Sched.Schedule.length s = last + 1
        && Sched.Schedule.num_stalls s = last + 1 - n
      in
      (* latency-aware acceptance, decided here from the edges alone *)
      let feasible = ref true in
      for i = 0 to n - 1 do
        for k = g.succ_start.(i) to g.succ_start.(i + 1) - 1 do
          if cycles.(g.succ_list.(k)) - cycles.(i) < g.succ_lat.(k) then feasible := false
        done
      done;
      let feasible = !feasible in
      incr (if feasible then feasible_cases else infeasible_cases);
      let latency_checked = Result.is_ok (build ~latency_aware:true cycles) = feasible in
      let mutated f =
        let c = Array.copy cycles in
        f c;
        build c
      in
      let i = Support.Rng.int rng n in
      let j = (i + 1 + Support.Rng.int rng (n - 1)) mod n in
      let same_cycle =
        match mutated (fun c -> c.(j) <- c.(i)) with
        | Error (Sched.Schedule.Same_cycle _) -> true
        | Ok _ | Error _ -> false
      in
      let missing =
        match mutated (fun c -> c.(i) <- -1) with
        | Error (Sched.Schedule.Missing k) -> k = i
        | Ok _ | Error _ -> false
      in
      let edges = g.succ_start.(n) in
      let swapped =
        edges = 0
        ||
        let k = Support.Rng.int rng edges in
        let src = ref 0 in
        while g.succ_start.(!src + 1) <= k do
          incr src
        done;
        let src = !src and dst = g.succ_list.(k) in
        match
          mutated (fun c ->
              c.(src) <- cycles.(dst);
              c.(dst) <- cycles.(src))
        with
        | Error (Sched.Schedule.Order_violation _) -> true
        | Ok _ | Error _ -> false
      in
      (* ASAP: each instruction one cycle after the previous one, and
         after every source plus its latency (at least one cycle) *)
      let asap = Array.make n 0 in
      let prev = ref (-1) in
      Array.iter
        (fun i ->
          asap.(i) <- !prev + 1;
          for k = g.pred_start.(i) to g.pred_start.(i + 1) - 1 do
            asap.(i) <- max asap.(i) (asap.(g.pred_list.(k)) + max g.pred_lat.(k) 1)
          done;
          prev := asap.(i))
        order;
      let padded = Sched.Schedule.latency_pad g order in
      let pad_asap =
        List.for_all (fun i -> Sched.Schedule.cycle padded i = asap.(i)) (List.init n Fun.id)
        && Sched.Schedule.order padded = order
      in
      agrees && latency_checked && same_cycle && missing && swapped && pad_asap)

let suite =
  [
    Alcotest.test_case "schedule of order" `Quick test_schedule_of_order;
    Alcotest.test_case "schedule violations" `Quick test_schedule_violations;
    Alcotest.test_case "latency pad minimal" `Quick test_latency_pad_minimal;
    Alcotest.test_case "ready list promotion" `Quick test_ready_list_latency_promotion;
    Alcotest.test_case "ready list rejects unready" `Quick test_ready_list_rejects_unready;
    Alcotest.test_case "heuristic best" `Quick test_heuristic_best_deterministic;
    Alcotest.test_case "rp tracker queries allocation-free" `Quick
      test_rp_queries_allocation_free;
    Alcotest.test_case "layout guards" `Quick test_layout_guards;
    Alcotest.test_case "cost ordering" `Quick test_cost_ordering;
    Alcotest.test_case "amd vs pressure trap" `Quick test_amd_beats_pressure_trap;
    Alcotest.test_case "constrained scheduler infeasible" `Quick test_constrained_scheduler_infeasible;
    Alcotest.test_case "constrained beats padding" `Quick test_constrained_not_longer_than_padded;
    Alcotest.test_case "brute force diamond" `Quick test_brute_force_diamond;
    Alcotest.test_case "length bounds pinned" `Quick test_length_bounds_pinned;
    Alcotest.test_case "brute force size guards" `Quick test_brute_force_rejects_large;
  ]
  @ Tu.qtests
      [
        prop_latency_pad_valid;
        prop_tracker_matches_naive;
        prop_tracker_predictions;
        prop_fit_filter;
        prop_tracker_reset;
        prop_fits_within_consistent;
        prop_list_scheduler_valid;
        prop_amd_scheduler_valid;
        prop_constrained_scheduler_sound;
        prop_brute_force_brackets;
        prop_eta_positive;
        prop_cost_scalar_consistent;
      ]
  @ [
      Tu.qtest_witnessed_all
        [
          (nonssa_redef, "a redefined register");
          (nonssa_use_def, "an instruction using and defining one register");
          (nonssa_dup_use, "a register used twice by one instruction");
          (nonssa_live_in_redef, "a redefined live-in");
        ]
        prop_tracker_nonssa;
      Tu.qtest_witnessed_all
        [
          (heavy_edges, "an edge at the 1,024-cycle latency cap");
          (unit_edges, "a region whose largest edge weight is 1");
          (latency_free_runs, "a latency-free list");
        ]
        prop_ready_ring;
      Tu.qtest_witnessed_all
        [
          (feasible_cases, "cycles that wait out every latency");
          (infeasible_cases, "cycles that break a latency");
        ]
        prop_schedule_of_cycles;
    ]
