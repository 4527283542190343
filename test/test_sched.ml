let diamond_graph () = Ddg.Graph.build (Tu.diamond_region ())

let test_schedule_of_order () =
  let g = diamond_graph () in
  match Sched.Schedule.of_order g [| 0; 1; 2; 3; 4; 5 |] with
  | Ok s ->
      Alcotest.(check int) "length" 6 (Sched.Schedule.length s);
      Alcotest.(check int) "no stalls" 0 (Sched.Schedule.num_stalls s);
      Alcotest.(check int) "cycle of 3" 3 (Sched.Schedule.cycle s 3)
  | Error v -> Alcotest.failf "unexpected: %s" (Sched.Schedule.violation_to_string v)

let expect_violation name slots pred =
  let g = diamond_graph () in
  match Sched.Schedule.of_slots g ~latency_aware:true slots with
  | Ok _ -> Alcotest.failf "%s: expected violation" name
  | Error v ->
      Alcotest.(check bool) (name ^ ": right violation kind") true (pred v)

let test_schedule_violations () =
  let i k = Sched.Schedule.Instr k in
  expect_violation "missing"
    [ i 0; i 1; i 2; i 3; i 4 ]
    (function Sched.Schedule.Missing 5 -> true | _ -> false);
  expect_violation "duplicate"
    [ i 0; i 1; i 2; i 3; i 4; i 5; i 5 ]
    (function Sched.Schedule.Duplicated 5 -> true | _ -> false);
  expect_violation "unknown"
    [ i 0; i 1; i 2; i 3; i 4; i 5; i 17 ]
    (function Sched.Schedule.Unknown_instr 17 -> true | _ -> false);
  expect_violation "order violation"
    [ i 1; i 0; i 2; i 3; i 4; i 5 ]
    (function Sched.Schedule.Order_violation _ -> true | _ -> false);
  (* dependences in order but latencies ignored -> latency violation *)
  expect_violation "latency violation"
    [ i 0; i 1; i 2; i 3; i 4; i 5 ]
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
      let order = Ddg.Topo.order g in
      let s = Sched.Schedule.latency_pad g order in
      Result.is_ok (Sched.Schedule.validate s ~latency_aware:true))

let prop_tracker_matches_naive =
  QCheck.Test.make ~name:"incremental RP = naive interval RP" ~count:80 (Tu.arb_graph ())
    (fun g ->
      let order = Ddg.Topo.order g in
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

(* [filter_fits_prefix] against its definition: walking a random
   topological order under loose and punishing targets, the kept prefix
   is exactly the ready candidates [fits_within] accepts, in ready order,
   and the meter counts every candidate unless a peak already breaches a
   target (then nothing is evaluated and nothing kept). *)
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
        Sched.Ready_list.blit_ready ready cand m;
        let tv, ts = targets.(Support.Rng.int rng (Array.length targets)) in
        let fitting =
          List.filter
            (fun i -> Sched.Rp_tracker.fits_within t i ~target_vgpr:tv ~target_sgpr:ts)
            (Array.to_list (Array.sub cand 0 m))
        in
        let breached =
          Sched.Rp_tracker.peak t Ir.Reg.Vgpr > tv || Sched.Rp_tracker.peak t Ir.Reg.Sgpr > ts
        in
        let scored_before = Sched.Rp_tracker.scored_candidates t in
        let kept =
          Sched.Rp_tracker.filter_fits_prefix t ~cand ~n_cand:m ~target_vgpr:tv ~target_sgpr:ts
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
      Array.iter (Sched.Rp_tracker.schedule t) (Ddg.Topo.order g);
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
      let s = Sched.Amd_scheduler.run Tu.occ g in
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
   that pressure send every candidate with a def past the scan-free
   defs-bound fast path into the full effects scan — the slow path a
   closure in [compute_effects] would make allocate. *)
let test_rp_queries_allocation_free () =
  let g =
    Ddg.Graph.build (Workload.Shapes.transform (Support.Rng.create 3) ~unroll:10 ~chain:4)
  in
  let t = Sched.Rp_tracker.create g in
  let n = g.Ddg.Graph.n in
  let target_vgpr = Sched.Rp_tracker.current t Ir.Reg.Vgpr in
  let target_sgpr = Sched.Rp_tracker.current t Ir.Reg.Sgpr in
  let all = Array.init n Fun.id in
  let cand = Array.copy all in
  let fitting = Sched.Rp_tracker.filter_fits_prefix t ~cand ~n_cand:n ~target_vgpr ~target_sgpr in
  (* a rejected candidate can only come out of the effects scan *)
  Alcotest.(check bool) "targets reach the slow path" true (fitting < n);
  (* [fits_within] answers [false] only from the effects scan *)
  let i =
    List.find
      (fun i -> not (Sched.Rp_tracker.fits_within t i ~target_vgpr ~target_sgpr))
      (List.init n Fun.id)
  in
  let ctx = Sched.Heuristic.make_ctx g t in
  let mat = Support.Fmat.create ~rows:1 ~cols:n in
  let sink = ref 0 in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.0)) (name ^ ": minor words per call") 0.0
        (Tu.minor_words_per_call ~calls:10_000 f))
    [
      ( "filter_fits_prefix",
        fun () ->
          Array.blit all 0 cand 0 n;
          sink :=
            Sched.Rp_tracker.filter_fits_prefix t ~cand ~n_cand:n ~target_vgpr ~target_sgpr );
      ( "fits_within",
        fun () ->
          if Sched.Rp_tracker.fits_within t i ~target_vgpr ~target_sgpr then incr sink );
      ("closes_minus_opens", fun () -> sink := Sched.Rp_tracker.closes_minus_opens t i);
      ( "delta_if_scheduled",
        fun () -> sink := Sched.Rp_tracker.delta_if_scheduled t i Ir.Reg.Vgpr );
      ( "fill_luc_eta_mat",
        fun () -> Sched.Heuristic.fill_luc_eta_mat ctx ~cand:all ~n ~mat ~base:0 );
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
  let amd = Sched.Cost.of_schedule Tu.occ (Sched.Amd_scheduler.run Tu.occ g) in
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
      match Sched.Constrained_scheduler.run g ~target_vgpr:tv ~target_sgpr:ts with
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
    (Sched.Constrained_scheduler.run g ~target_vgpr:0 ~target_sgpr:0 = None)

let test_constrained_not_longer_than_padded () =
  let rng = Support.Rng.create 3 in
  let g = Ddg.Graph.build (Workload.Shapes.stencil rng ~outputs:16 ~radius:4) in
  let luc = Sched.List_scheduler.run_order g Sched.Heuristic.Last_use_count in
  let peaks = Sched.Rp_tracker.naive_peaks g luc in
  let padded = Sched.Schedule.latency_pad g luc in
  match
    Sched.Constrained_scheduler.run g ~target_vgpr:(peaks Ir.Reg.Vgpr)
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
