let test_pheromone_basics () =
  let p = Aco.Pheromone.create ~n:4 ~initial:1.0 in
  Alcotest.(check int) "size" 4 (Aco.Pheromone.size p);
  Alcotest.(check (float 1e-9)) "initial" 1.0 (Aco.Pheromone.get p ~src:0 ~dst:1);
  Alcotest.(check (float 1e-9)) "virtual start row" 1.0 (Aco.Pheromone.get p ~src:(-1) ~dst:2);
  Aco.Pheromone.deposit p ~src:0 ~dst:1 0.5;
  Alcotest.(check (float 1e-9)) "deposit" 1.5 (Aco.Pheromone.get p ~src:0 ~dst:1);
  Aco.Pheromone.decay p 0.8;
  Alcotest.(check (float 1e-9)) "decay" 1.2 (Aco.Pheromone.get p ~src:0 ~dst:1);
  Alcotest.(check (float 1e-9)) "decay others" 0.8 (Aco.Pheromone.get p ~src:1 ~dst:2);
  Aco.Pheromone.reset p ~initial:2.0;
  Alcotest.(check (float 1e-9)) "reset" 2.0 (Aco.Pheromone.get p ~src:0 ~dst:1);
  Alcotest.(check (float 1e-6)) "total" (20.0 *. 2.0) (Aco.Pheromone.total p)

let test_pheromone_path_deposit () =
  let p = Aco.Pheromone.create ~n:3 ~initial:0.0 in
  Aco.Pheromone.deposit_path p [| 2; 0; 1 |] 1.0;
  Alcotest.(check (float 1e-9)) "start link" 1.0 (Aco.Pheromone.get p ~src:(-1) ~dst:2);
  Alcotest.(check (float 1e-9)) "2 -> 0" 1.0 (Aco.Pheromone.get p ~src:2 ~dst:0);
  Alcotest.(check (float 1e-9)) "0 -> 1" 1.0 (Aco.Pheromone.get p ~src:0 ~dst:1);
  Alcotest.(check (float 1e-9)) "unused link untouched" 0.0 (Aco.Pheromone.get p ~src:1 ~dst:0)

let test_pheromone_bounds () =
  let p = Aco.Pheromone.create ~n:3 ~initial:0.0 in
  Alcotest.check_raises "dst out of range" (Invalid_argument "Pheromone: out of range")
    (fun () -> ignore (Aco.Pheromone.get p ~src:0 ~dst:3))

let test_params_categories () =
  Alcotest.(check int) "small" 0 (Engine.Params.size_category 49);
  Alcotest.(check int) "medium" 1 (Engine.Params.size_category 50);
  Alcotest.(check int) "large" 2 (Engine.Params.size_category 100);
  Alcotest.(check int) "termination small" 1 (Engine.Params.termination_condition 10);
  Alcotest.(check int) "termination medium" 2 (Engine.Params.termination_condition 70);
  Alcotest.(check int) "termination large" 3 (Engine.Params.termination_condition 500)

(* Stall-policy decision table on a crafted state: a region whose only
   ready instruction would blow the target while a semi-ready exists. *)
let stall_fixture () =
  let g = Ddg.Graph.build (Tu.diamond_region ()) in
  let rp = Sched.Rp_tracker.create g in
  (g, rp)

let test_stall_policy_fits () =
  let _, rp = stall_fixture () in
  let rng = Support.Rng.create 1 in
  match
    Ant_ref.Stall_policy.classify ~rng ~allow_optional:true ~base_probability:1.0 ~rp
      ~target_vgpr:10 ~target_sgpr:10 ~ready:[ 0 ] ~has_semi_ready:false
      ~optional_stalls_so_far:0
  with
  | Ant_ref.Stall_policy.Schedule_from [ 0 ] -> ()
  | Ant_ref.Stall_policy.Schedule_from _ | Ant_ref.Stall_policy.Optional_stall
  | Ant_ref.Stall_policy.Forced_breach ->
      Alcotest.fail "expected Schedule_from [0]"

let test_stall_policy_breach_paths () =
  let _, rp = stall_fixture () in
  let rng = Support.Rng.create 1 in
  (* target 0 VGPRs: everything breaches *)
  (match
     Ant_ref.Stall_policy.classify ~rng ~allow_optional:true ~base_probability:1.0 ~rp
       ~target_vgpr:(-1) ~target_sgpr:(-1) ~ready:[ 1 ] ~has_semi_ready:true
       ~optional_stalls_so_far:0
   with
  | Ant_ref.Stall_policy.Optional_stall -> ()
  | _ -> Alcotest.fail "expected Optional_stall when waiting can help");
  (match
     Ant_ref.Stall_policy.classify ~rng ~allow_optional:true ~base_probability:1.0 ~rp
       ~target_vgpr:(-1) ~target_sgpr:(-1) ~ready:[ 1 ] ~has_semi_ready:false
       ~optional_stalls_so_far:0
   with
  | Ant_ref.Stall_policy.Forced_breach -> ()
  | _ -> Alcotest.fail "expected Forced_breach when nothing is in flight");
  match
    Ant_ref.Stall_policy.classify ~rng ~allow_optional:false ~base_probability:1.0 ~rp
      ~target_vgpr:(-1) ~target_sgpr:(-1) ~ready:[ 1 ] ~has_semi_ready:true
      ~optional_stalls_so_far:0
  with
  | Ant_ref.Stall_policy.Forced_breach -> ()
  | _ -> Alcotest.fail "expected Forced_breach in a no-stall wavefront"

let run_ant mode g =
  let ant = Tu.lane g in
  let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
  Aco.Ant.start ant ~rng:(Support.Rng.create 5) ~heuristic:Sched.Heuristic.Critical_path
    ~allow_optional_stalls:true mode;
  Aco.Ant.run_to_completion ant ~pheromone;
  ant

let prop_ant_pass1_valid =
  QCheck.Test.make ~name:"pass-1 ants build valid orders" ~count:60 (Tu.arb_graph ())
    (fun g ->
      let ant = run_ant Aco.Ant.Rp_pass g in
      Aco.Ant.status ant = Aco.Ant.Finished
      &&
      match Aco.Ant.schedule ant with
      | Some s -> Result.is_ok (Sched.Schedule.validate s ~latency_aware:false)
      | None -> false)

let prop_ant_pass2_valid_and_within_target =
  QCheck.Test.make ~name:"pass-2 ants respect latencies and targets" ~count:60
    (Tu.arb_graph ()) (fun g ->
      (* A generous target lets every ant finish; validity still checked. *)
      let ant = run_ant (Aco.Ant.Ilp_pass { target_vgpr = 1000; target_sgpr = 1000 }) g in
      Aco.Ant.status ant = Aco.Ant.Finished
      &&
      match Aco.Ant.schedule ant with
      | Some s ->
          Result.is_ok (Sched.Schedule.validate s ~latency_aware:true)
          && fst (Aco.Ant.rp_peaks ant) <= 1000
      | None -> false)

let prop_ant_dead_or_within_target =
  QCheck.Test.make ~name:"pass-2 ants never exceed a tight target" ~count:60
    (Tu.arb_graph ()) (fun g ->
      (* Tight target: ants either die or stay within it. *)
      let lbv = Ddg.Lower_bounds.register_pressure g Ir.Reg.Vgpr in
      let target = lbv + 1 in
      let ant = run_ant (Aco.Ant.Ilp_pass { target_vgpr = target; target_sgpr = 1000 }) g in
      match Aco.Ant.status ant with
      | Aco.Ant.Dead -> true
      | Aco.Ant.Finished -> fst (Aco.Ant.rp_peaks ant) <= target
      | Aco.Ant.Active -> false)

(* The colony's cut-off stops an ant once its cost, evaluated at
   [Ant.length_lb] and the running peaks, reaches a finished ant's cost;
   that is exact only while both are lower bounds on the final values.
   Pass 2 under random RP targets: at every step of an ant that
   finishes, the length bound is at most the final length, and equal to
   it at the end, and after every step it equals its definition,
   recomputed from issue cycles the test records. The cut screens the
   exact bound with the O(1)
   [Ant.length_lb_hi], which must never fall below it: a twin ant on
   the same stream takes the same steps but is scanned only every
   [period] steps (every step, every second, every third, never), so
   its kept maxima drift between scans, and after every step its
   over-estimate is checked against the scanned ant's exact bound;
   right after a scan the two are equal. Pass 1: the RP cost of the
   running peaks never decreases, under the cliff and the spill
   objective. Ants share the region context's tails, as a colony's
   do. *)
let finished_pass2_ants = ref 0

let prop_ant_bounds_sound =
  QCheck.Test.make ~name:"ant length bound and running RP cost are lower bounds" ~count:40
    QCheck.(pair (Tu.arb_region ()) (triple small_int (int_bound 8) (int_bound 16)))
    (fun (region, (seed, slack_v, slack_s)) ->
      let rc = Engine.Region_ctx.of_region Tu.occ region in
      let g = rc.Engine.Region_ctx.graph in
      let params = Tu.test_params in
      let ants =
        Aco.Ant.lanes
          (Aco.Ant.shared_of_region_ctx ~beta:params.Engine.Params.beta rc)
          ~count:2 params
      in
      let ant = ants.(0) and twin = ants.(1) in
      let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
      let rng = Support.Rng.create seed in
      let start ?(twin_too = false) mode =
        let r = Support.Rng.split rng in
        let go a r =
          Aco.Ant.start a ~rng:r ~heuristic:params.Engine.Params.heuristic
            ~allow_optional_stalls:true mode
        in
        if twin_too then go twin (Support.Rng.copy r);
        go ant r
      in
      let step () = Aco.Ant.step ant ~pheromone ~force_explore:(-1) ~ready_limit:0 in
      let pass2 =
        Aco.Ant.Ilp_pass
          {
            target_vgpr = Ddg.Lower_bounds.register_pressure g Ir.Reg.Vgpr + slack_v;
            target_sgpr = Ddg.Lower_bounds.register_pressure g Ir.Reg.Sgpr + slack_s;
          }
      in
      let spill = Sched.Objective.Spill (Gpusim.Mem_model.spill_model Gpusim.Config.bench) in
      (* The bound from its definition, over issue cycles the test
         records itself: the larger of the cycles used plus one per
         unissued instruction and, over the unissued instructions whose
         predecessors are all issued, max (cycle, ready cycle) + tail +
         1. *)
      let n = g.Ddg.Graph.n and tails = rc.Engine.Region_ctx.tails in
      let issued = Array.make n (-1) in
      let reference () =
        let cycle = Aco.Ant.length ant in
        let lb = ref (cycle + Array.fold_left (fun k c -> if c < 0 then k + 1 else k) 0 issued) in
        for i = 0 to n - 1 do
          if issued.(i) < 0 then begin
            let preds_issued = ref true and ready = ref 0 in
            for k = g.Ddg.Graph.pred_start.(i) to g.Ddg.Graph.pred_start.(i + 1) - 1 do
              let p = g.Ddg.Graph.pred_list.(k) in
              if issued.(p) < 0 then preds_issued := false
              else ready := max !ready (issued.(p) + max g.Ddg.Graph.pred_lat.(k) 1)
            done;
            if !preds_issued then lb := max !lb (max cycle !ready + tails.(i) + 1)
          end
        done;
        !lb
      in
      let record_step () =
        let cycle = Aco.Ant.length ant in
        step ();
        if Aco.Ant.last_rank ant <= 1 then begin
          let order = Aco.Ant.order ant in
          issued.(order.(Array.length order - 1)) <- cycle
        end
      in
      (* the exact bound after a step, equal to its definition and
         checked against the twin's over-estimate; right after a scan
         an over-estimate equals it *)
      let exact ~scan_twin =
        let lb = Aco.Ant.length_lb ant in
        if lb <> reference () then
          QCheck.Test.fail_reportf "length bound %d, by its definition %d" lb (reference ());
        let equal a =
          if Aco.Ant.length_lb_hi a <> lb then
            QCheck.Test.fail_reportf "after a scan the over-estimate %d is not the bound %d"
              (Aco.Ant.length_lb_hi a) lb
        in
        if Aco.Ant.length_lb_hi twin < lb then
          QCheck.Test.fail_reportf "over-estimate %d below the length bound %d"
            (Aco.Ant.length_lb_hi twin) lb;
        equal ant;
        if scan_twin then begin
          ignore (Aco.Ant.length_lb twin);
          equal twin
        end;
        lb
      in
      for round = 1 to 4 do
        let period = if round = 4 then max_int else round in
        start ~twin_too:true pass2;
        Array.fill issued 0 n (-1);
        let bounds = ref [ exact ~scan_twin:false ] and steps = ref 0 in
        while Aco.Ant.status ant = Aco.Ant.Active do
          record_step ();
          Aco.Ant.step twin ~pheromone ~force_explore:(-1) ~ready_limit:0;
          incr steps;
          bounds := exact ~scan_twin:(!steps mod period = 0) :: !bounds
        done;
        if Aco.Ant.status ant = Aco.Ant.Finished then begin
          incr finished_pass2_ants;
          let len = Aco.Ant.length ant in
          if List.hd !bounds <> len then
            QCheck.Test.fail_reportf "finished at length %d with length bound %d" len
              (List.hd !bounds);
          List.iter
            (fun lb ->
              if lb > len then
                QCheck.Test.fail_reportf "length bound %d above the final length %d" lb len)
            !bounds
        end;
        start Aco.Ant.Rp_pass;
        let cost obj =
          Sched.Objective.rp_scalar_of_peaks obj Tu.occ ~vgpr:(Aco.Ant.peak ant Ir.Reg.Vgpr)
            ~sgpr:(Aco.Ant.peak ant Ir.Reg.Sgpr)
        in
        let cliff = ref (cost Sched.Objective.Cliff) and spilled = ref (cost spill) in
        while Aco.Ant.status ant = Aco.Ant.Active do
          step ();
          let c = cost Sched.Objective.Cliff and sp = cost spill in
          if c < !cliff || sp < !spilled then
            QCheck.Test.fail_report "the RP cost of the running peaks decreased";
          cliff := c;
          spilled := sp
        done
      done;
      true)

let test_ant_work_accumulates () =
  let g = Ddg.Graph.build (Tu.diamond_region ()) in
  let ant = run_ant Aco.Ant.Rp_pass g in
  Alcotest.(check bool) "work counted" true (Aco.Ant.work ant >= 3 * g.Ddg.Graph.n);
  Alcotest.(check int) "order complete" g.Ddg.Graph.n (Array.length (Aco.Ant.order ant))

let test_ant_step_requires_active () =
  let g = Ddg.Graph.build (Tu.diamond_region ()) in
  let ant = run_ant Aco.Ant.Rp_pass g in
  let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
  Alcotest.check_raises "stepping a finished ant" (Invalid_argument "Ant.step: ant is not active")
    (fun () -> Aco.Ant.step ant ~pheromone ~force_explore:(-1) ~ready_limit:0)

let test_ant_kill () =
  let g = Ddg.Graph.build (Tu.diamond_region ()) in
  let ant = Tu.lane g in
  Aco.Ant.start ant ~rng:(Support.Rng.create 1) ~heuristic:Sched.Heuristic.Critical_path
    ~allow_optional_stalls:true Aco.Ant.Rp_pass;
  Aco.Ant.kill ant;
  Alcotest.(check bool) "killed" true (Aco.Ant.status ant = Aco.Ant.Dead);
  Alcotest.(check bool) "no schedule from dead ant" true (Aco.Ant.schedule ant = None)

let prop_seq_aco_final_valid =
  QCheck.Test.make ~name:"sequential ACO emits valid schedules" ~count:25
    (Tu.arb_graph ~max_size:25 ()) (fun g ->
      let r = Aco.Seq_aco.run ~params:Tu.test_params ~seed:3 Tu.occ g in
      Result.is_ok (Sched.Schedule.validate r.Engine.Types.schedule ~latency_aware:true))

let prop_seq_aco_never_worse_rp =
  QCheck.Test.make ~name:"ACO RP never worse than the heuristic's" ~count:25
    (Tu.arb_graph ~max_size:25 ()) (fun g ->
      let r = Aco.Seq_aco.run ~params:Tu.test_params ~seed:4 Tu.occ g in
      Sched.Cost.compare_rp r.Engine.Types.cost.Sched.Cost.rp
        r.Engine.Types.heuristic_cost.Sched.Cost.rp
      <= 0)

let prop_seq_aco_lb_respected =
  QCheck.Test.make ~name:"final length >= LB; bound stop exact" ~count:25
    (Tu.arb_graph ~max_size:25 ()) (fun g ->
      let lb = (Engine.Region_ctx.of_graph Tu.occ g).Engine.Region_ctx.length_lb in
      let r = Aco.Seq_aco.run ~params:Tu.test_params ~seed:5 Tu.occ g in
      r.Engine.Types.cost.Sched.Cost.length >= lb
      && (r.Engine.Types.pass2.Engine.Types.stop <> Engine.Types.Lower_bound
         || r.Engine.Types.cost.Sched.Cost.length = lb))

let test_seq_aco_deterministic () =
  let g = Ddg.Graph.build (Tu.random_region 154) in
  let r1 = Aco.Seq_aco.run ~params:Tu.test_params ~seed:9 Tu.occ g in
  let r2 = Aco.Seq_aco.run ~params:Tu.test_params ~seed:9 Tu.occ g in
  Alcotest.(check bool) "pass 2 searched" true r1.Engine.Types.pass2.Engine.Types.invoked;
  Alcotest.(check int) "same final length" r1.Engine.Types.cost.Sched.Cost.length
    r2.Engine.Types.cost.Sched.Cost.length;
  Alcotest.(check int) "same iterations" r1.Engine.Types.pass2.Engine.Types.iterations
    r2.Engine.Types.pass2.Engine.Types.iterations

let test_seq_aco_improves_sort () =
  (* A latency-rich region where greedy leaves stalls on the table. *)
  let rng = Support.Rng.create 5 in
  let g = Ddg.Graph.build (Workload.Shapes.sort_pass rng ~items:8) in
  let params = { Tu.test_params with Engine.Params.ants_per_iteration = 64; max_iterations = 12 } in
  let r = Aco.Seq_aco.run ~params ~seed:3 Tu.occ g in
  Alcotest.(check bool) "pass 2 searched" true r.Engine.Types.pass2.Engine.Types.invoked;
  Alcotest.(check bool) "no worse than heuristic length at equal RP" true
    (r.Engine.Types.cost.Sched.Cost.length
     <= r.Engine.Types.heuristic_cost.Sched.Cost.length
    || Sched.Cost.compare_rp r.Engine.Types.cost.Sched.Cost.rp
         r.Engine.Types.heuristic_cost.Sched.Cost.rp
       < 0)

let test_setup_invariants () =
  let g = Ddg.Graph.build (Tu.random_region 123) in
  let s = Engine.Region_ctx.of_graph Tu.occ g in
  Alcotest.(check bool) "initial RP no worse than AMD's" true
    (Sched.Cost.compare_rp s.Engine.Region_ctx.pass1_initial_rp
       s.Engine.Region_ctx.amd_cost.Sched.Cost.rp
    <= 0);
  Alcotest.(check bool) "LB below initial" true
    (Sched.Cost.compare_rp s.Engine.Region_ctx.rp_lb s.Engine.Region_ctx.pass1_initial_rp <= 0);
  let padded =
    Engine.Region_ctx.pass2_initial s ~best_pass1_order:s.Engine.Region_ctx.pass1_initial_order
      ~rp_target:s.Engine.Region_ctx.pass1_initial_rp
  in
  Alcotest.(check bool) "padded initial valid" true (Tu.check_valid ~latency_aware:true padded);
  Alcotest.(check bool) "length LB holds" true
    (Sched.Schedule.length padded >= s.Engine.Region_ctx.length_lb)

let prop_aco_within_exact_bounds =
  QCheck.Test.make ~name:"ACO length between exact optimum and the CP schedule" ~count:20
    (Tu.arb_graph ~max_size:10 ()) (fun g ->
      let opt = Sched.Brute_force.min_schedule_length g in
      let r = Aco.Seq_aco.run ~params:Tu.test_params ~seed:6 Tu.occ g in
      r.Engine.Types.cost.Sched.Cost.length >= opt)

let test_aco_reaches_exact_optimum () =
  (* Deterministic small instances where the search provably lands on the
     brute-force optimum (fixed generator and search seeds). *)
  List.iter
    (fun seed ->
      let g = Ddg.Graph.build (Tu.random_region ~max_size:11 seed) in
      if g.Ddg.Graph.n <= 12 then begin
        let opt = Sched.Brute_force.min_schedule_length g in
        let params = { Tu.test_params with Engine.Params.ants_per_iteration = 32 } in
        let r = Aco.Seq_aco.run ~params ~seed Tu.occ g in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d searches" seed)
          true r.Engine.Types.pass2.Engine.Types.invoked;
        Alcotest.(check int)
          (Printf.sprintf "seed %d reaches the optimum" seed)
          opt r.Engine.Types.cost.Sched.Cost.length
      end)
    [ 266; 274; 287 ]


let prop_weighted_aco_valid =
  QCheck.Test.make ~name:"weighted-sum ACO emits valid schedules" ~count:20
    (Tu.arb_graph ~max_size:25 ()) (fun g ->
      let r = Aco.Weighted_aco.run ~params:Tu.test_params ~seed:7 Tu.occ g in
      Result.is_ok (Sched.Schedule.validate r.Aco.Weighted_aco.schedule ~latency_aware:true))

let test_weighted_vs_two_pass_on_pressure () =
  (* The design choice the paper made: on a register-hungry tile the
     two-pass search protects occupancy better than the weighted sum. *)
  let g = Ddg.Graph.build (Workload.Shapes.wide_accum (Support.Rng.create 5) ~accumulators:22 ~rounds:28) in
  let params = { Tu.test_params with Engine.Params.ants_per_iteration = 64 } in
  let two = Aco.Seq_aco.run ~params ~seed:3 Tu.occ g in
  let weighted = Aco.Weighted_aco.run ~params ~seed:3 Tu.occ g in
  Alcotest.(check bool) "two-pass occupancy at least matches weighted-sum" true
    (two.Engine.Types.cost.Sched.Cost.rp.Sched.Cost.occupancy
    >= weighted.Aco.Weighted_aco.cost.Sched.Cost.rp.Sched.Cost.occupancy)


(* The iteration loop's contract on its own: [Colony.run_pass] driven by
   a scripted iteration on an As table, against a plain model of the
   loop. Each scripted step is one iteration's outcome; a refused winner
   is one whose artifact does not build. Past the script every
   iteration is clean and winner-less. The artifact is the index of the
   step whose winner the pass emitted (-1: the initial artifact). *)
type step = Win of int | Refused of int * bool | Empty | Fault of bool

let arb_loop_script =
  let open QCheck in
  let step =
    Gen.frequency
      [
        (5, Gen.map (fun c -> Win c) (Gen.int_range 0 12));
        (1, Gen.map2 (fun c abort -> Refused (c, abort)) (Gen.int_range 0 12) Gen.bool);
        (2, Gen.return Empty);
        (2, Gen.map (fun abort -> Fault abort) (Gen.oneofl [ false; false; false; true ]));
      ]
  in
  let show = function
    | Win c -> Printf.sprintf "W%d" c
    | Refused (c, a) -> Printf.sprintf "R%d%s" c (if a then "!" else "")
    | Empty -> "E"
    | Fault a -> if a then "A" else "F"
  in
  make
    ~print:(fun (n, cap, initial, lb, budget, replace, steps) ->
      Printf.sprintf "n=%d cap=%d initial=%d lb=%d budget=%d replace=%b [%s]" n cap initial lb
        budget replace
        (String.concat ";" (List.map show steps)))
    Gen.(
      tup7 (oneofl [ 8; 60; 120 ]) (int_range 1 14) (int_range 4 12) (int_range 0 4)
        (int_range 0 16) bool
        (list_size (int_range 0 16) step))

(* One finished ant: the loop reads its order for the deposit, so every
   scripted winner reuses it. *)
let finished_ant =
  lazy
    (let g = Ddg.Graph.build (Tu.diamond_region ()) in
     let ant = Tu.lane g in
     Aco.Ant.start ant ~rng:(Support.Rng.create 1) ~heuristic:Sched.Heuristic.Critical_path
       ~allow_optional_stalls:false Aco.Ant.Rp_pass;
     Aco.Ant.run_to_completion ant ~pheromone:(Aco.Pheromone.create ~n:(Ddg.Graph.size g) ~initial:1.0);
     ant)

(* Witnesses: every stop reason, an equal-cost winner replacing the
   artifact, and a refused winner. *)
let stops_seen =
  List.map
    (fun (stop, what) -> (stop, (ref 0, "a stop on " ^ what)))
    Engine.Types.
      [
        (Faults, "faults");
        (Budget, "budget");
        (Lower_bound, "the bound");
        (Max_iterations, "the cap");
        (Patience, "patience");
      ]

let ties_replaced = ref 0
let refusals = ref 0

let prop_loop_contract =
  QCheck.Test.make ~count:400 ~name:"one iteration loop follows its contract" arb_loop_script
    (fun (n, max_iterations, initial_cost, lb_cost, budget, replace, steps) ->
      let ant = Lazy.force finished_ant in
      let params = { Tu.test_params with Engine.Params.max_iterations } in
      let search =
        Aco.Colony.search Aco.Pheromone_policy.As ~params ~n ~metrics:Obs.Metrics.null
      in
      let patience = Aco.Pheromone_policy.patience search.Aco.Colony.policy in
      let script = Array.of_list steps in
      let step k = if k < Array.length script then script.(k) else Empty in
      (* the scripted iteration; [budget] iterations exhaust the budget *)
      let ran = ref 0 in
      let settled = ref [] in
      let iteration =
        {
          Aco.Colony.run =
            (fun () ->
              incr ran;
              match step (!ran - 1) with
              | Win c | Refused (c, _) -> Aco.Colony.Winner (ant, c)
              | Empty -> Aco.Colony.No_winner
              | Fault _ -> Aco.Colony.Failed);
          settle =
            (fun outcome ~best_cost ->
              let kind =
                match outcome with
                | Aco.Colony.Winner _ -> "winner"
                | Aco.Colony.No_winner -> "empty"
                | Aco.Colony.Failed -> "failed"
              in
              settled := (kind, best_cost) :: !settled;
              match step (!ran - 1) with Refused (_, abort) | Fault abort -> not abort | _ -> true);
          exhausted = (fun () -> !ran >= budget);
          scored = (fun () -> 0);
          finish = (fun ~best_cost:_ stats -> stats);
        }
      in
      let artifact, cost, stats =
        Aco.Colony.run_pass search ~iteration
          ~ties:(if replace then Aco.Colony.Replace else Aco.Colony.Keep)
          ~artifact_of_ant:(fun _ ->
            match step (!ran - 1) with
            | Refused _ ->
                incr refusals;
                None
            | _ -> Some (!ran - 1))
          ~pass_label:"p" ~initial_cost ~initial_order:(Aco.Ant.order ant) ~initial_artifact:(-1)
          ~lb_cost
      in
      (* the model *)
      let best = ref initial_cost and art = ref (-1) and improved = ref false in
      let iterations = ref 0 and no_improve = ref 0 and aborted = ref false in
      let series = ref [ initial_cost ] and expect_settled = ref [] in
      while
        (not !aborted) && !iterations < budget && !best > lb_cost && !no_improve < patience
        && !iterations < max_iterations
      do
        let k = !iterations in
        incr iterations;
        let kind =
          match step k with
          | Win c ->
              if replace && c = !best then incr ties_replaced;
              if c < !best || (replace && c = !best) then art := k;
              if c < !best then begin
                best := c;
                improved := true;
                no_improve := 0
              end
              else incr no_improve;
              "winner"
          | Empty ->
              incr no_improve;
              "empty"
          | Refused (_, abort) | Fault abort ->
              if abort then aborted := true;
              "failed"
        in
        expect_settled := (kind, !best) :: !expect_settled;
        series := !best :: !series
      done;
      let expect_stop =
        Engine.Types.stop_of ~faults:!aborted ~budget:(!iterations >= budget)
          ~lower_bound:(!best <= lb_cost) ~capped:(!iterations >= max_iterations)
      in
      incr (fst (List.assoc expect_stop stops_seen));
      artifact = !art && cost = !best
      && stats.Engine.Types.invoked
      && stats.Engine.Types.iterations = !iterations
      && stats.Engine.Types.improved = !improved
      && stats.Engine.Types.stop = expect_stop
      && Array.to_list stats.Engine.Types.best_costs = List.rev !series
      && !settled = !expect_settled && !ran = !iterations)

let suite =
  [
    Alcotest.test_case "pheromone basics" `Quick test_pheromone_basics;
    Alcotest.test_case "pheromone path deposit" `Quick test_pheromone_path_deposit;
    Alcotest.test_case "pheromone bounds" `Quick test_pheromone_bounds;
    Alcotest.test_case "params categories" `Quick test_params_categories;
    Alcotest.test_case "stall policy: fits" `Quick test_stall_policy_fits;
    Alcotest.test_case "stall policy: breach paths" `Quick test_stall_policy_breach_paths;
    Alcotest.test_case "ant work accumulates" `Quick test_ant_work_accumulates;
    Alcotest.test_case "ant step requires active" `Quick test_ant_step_requires_active;
    Alcotest.test_case "ant kill" `Quick test_ant_kill;
    Alcotest.test_case "seq aco deterministic" `Quick test_seq_aco_deterministic;
    Alcotest.test_case "seq aco on sort region" `Quick test_seq_aco_improves_sort;
    Alcotest.test_case "setup invariants" `Quick test_setup_invariants;
    Alcotest.test_case "aco reaches exact optimum" `Quick test_aco_reaches_exact_optimum;
    Alcotest.test_case "weighted vs two-pass on pressure" `Quick test_weighted_vs_two_pass_on_pressure;
  ]
  @ Tu.qtests
      [
        prop_ant_pass1_valid;
        prop_ant_pass2_valid_and_within_target;
        prop_ant_dead_or_within_target;
        prop_seq_aco_final_valid;
        prop_seq_aco_never_worse_rp;
        prop_seq_aco_lb_respected;
        prop_aco_within_exact_bounds;
        prop_weighted_aco_valid;
      ]
  @ [
      Tu.qtest_witnessed ~witness:finished_pass2_ants ~what:"a finished pass-2 ant"
        prop_ant_bounds_sound;
      Tu.qtest_witnessed_all
        ((ties_replaced, "an equal-cost winner replacing the artifact")
        :: (refusals, "a refused winner")
        :: List.map snd stops_seen)
        prop_loop_contract;
    ]
