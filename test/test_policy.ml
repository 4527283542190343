(* Pheromone-policy layer tests.

   Two pillars: (1) the [As] policy is byte-identical to the historical
   inline pheromone code — proved at the table level against inline
   [Pheromone] ops and at the driver level against the frozen
   pre-refactor colony loop kept in [Ant_ref.colony_run_pass], comparing
   schedules, every stats field and the position of the RNG stream
   afterwards, with the loop's allocation bounded by the frozen loop's;
   (2) the [Mmas] policy keeps the trail inside [tau_min, tau_max] under
   arbitrary interleavings of init / winner updates / winner-less
   updates / evaporations, restarts to a uniform table at [tau_max]
   exactly when the mirror model says a restart must fire, and meters
   those restarts. *)

let params = Tu.test_params

let deposit = params.Engine.Params.deposit
let decay = params.Engine.Params.decay
let ident n = Array.init n (fun i -> i)

(* A deterministic valid order (any permutation works for deposits). *)
let order_of n c = Array.init n (fun i -> (i + abs c) mod n)

(* ------------------------------------------------------------------ *)
(* As byte-identity, table level: the policy vs inline ops. *)

let test_as_table_identity =
  QCheck.Test.make ~count:100 ~name:"As policy byte-identical to inline table ops"
    (QCheck.pair (QCheck.int_range 2 12) (QCheck.small_list (QCheck.int_bound 300)))
    (fun (n, costs) ->
      let p_policy = Aco.Pheromone.create ~n ~initial:params.Engine.Params.initial_pheromone in
      let p_inline = Aco.Pheromone.create ~n ~initial:params.Engine.Params.initial_pheromone in
      let policy =
        Aco.Pheromone_policy.make Aco.Pheromone_policy.As ~params ~n ~metrics:Obs.Metrics.null
      in
      policy.Aco.Pheromone_policy.init p_policy ~initial_order:(ident n) ~initial_cost:7;
      Aco.Pheromone.reset p_inline ~initial:params.Engine.Params.initial_pheromone;
      Aco.Pheromone.deposit_path p_inline (ident n) (deposit /. float_of_int (1 + 7));
      List.iter
        (fun c ->
          if c mod 3 = 0 then begin
            (* winner-less iteration *)
            policy.Aco.Pheromone_policy.update p_policy
              ~winner_order:Aco.Pheromone_policy.no_order ~winner_cost:max_int;
            Aco.Pheromone.decay p_inline decay
          end
          else begin
            policy.Aco.Pheromone_policy.update p_policy ~winner_order:(order_of n c)
              ~winner_cost:c;
            Aco.Pheromone.decay p_inline decay;
            Aco.Pheromone.deposit_path p_inline (order_of n c)
              (deposit /. float_of_int (1 + c))
          end)
        costs;
      policy.Aco.Pheromone_policy.evaporate p_policy;
      Aco.Pheromone.decay p_inline decay;
      if Aco.Pheromone.cells p_policy <> Aco.Pheromone.cells p_inline then
        QCheck.Test.fail_report "As policy diverged from inline pheromone ops";
      Aco.Pheromone_policy.restarts policy = 0)

(* ------------------------------------------------------------------ *)
(* As byte-identity, driver level: [Colony.run_pass] over the CPU
   iteration with the As policy vs the frozen pre-refactor loop in
   [Ant_ref.colony_run_pass]. *)

(* Allocation-free peak terms, so the measured window holds the loops'
   allocation alone: the frozen loop costs every ant, the colony only
   the ants it does not cut. A pass-2 cost adds the length. *)
let rp_term ~vgpr ~sgpr = Sched.Cost.rp_scalar_of_peaks Tu.occ ~vgpr ~sgpr
let no_term ~vgpr:_ ~sgpr:_ = 0

(* Every stats field but [work] and [minor_words]: the colony cuts ants
   the frozen loop runs to the end, so its work may only be lower, and
   its allocation is bounded by the frozen loop's, not equal to it. *)
let stats_key (s : Engine.Types.pass_stats) =
  ( s.Engine.Types.invoked,
    s.iterations,
    s.ants_simulated,
    s.improved,
    s.stop,
    Array.to_list s.best_costs )

type colony_driver = Policy_colony | Frozen_colony

let run_colony driver graph ~seed ~mode ~term =
  let n = Ddg.Graph.size graph in
  let colony =
    Aco.Colony.prepare ~policy:Aco.Pheromone_policy.As ~allow_optional_stalls:true
      { Engine.Backend.null_ctx with Engine.Backend.params; seed }
      (Engine.Region_ctx.of_graph Tu.occ graph)
  in
  let rng = colony.Aco.Colony.rng in
  let artifact_of_ant ant = Array.copy (Aco.Ant.order ant) in
  let termination = Engine.Params.termination_condition n in
  let common ~run =
    let best, cost, stats =
      run ~initial_cost:999 ~initial_order:(ident n) ~initial_artifact:(ident n)
    in
    Aco.Colony.teardown colony;
    ( (Array.to_list best, cost, stats_key stats, Support.Rng.int rng 1_000_000),
      (stats.Engine.Types.work, stats.Engine.Types.minor_words) )
  in
  match driver with
  | Policy_colony ->
      common ~run:(fun ~initial_cost ~initial_order ~initial_artifact ->
          Aco.Colony.run_pass colony.Aco.Colony.search
            ~iteration:(Aco.Colony.sequential colony ~mode ~term ~budget:Engine.Types.Unlimited)
            ~ties:Aco.Colony.Keep
            ~artifact_of_ant:(fun ant -> Some (artifact_of_ant ant))
            ~pass_label:"p" ~initial_cost ~initial_order ~initial_artifact ~lb_cost:0)
  | Frozen_colony ->
      let length_counts = match mode with Aco.Ant.Rp_pass -> false | Aco.Ant.Ilp_pass _ -> true in
      let cost_of_ant ant =
        (if length_counts then Aco.Ant.length ant else 0)
        + term ~vgpr:(Aco.Ant.peak ant Ir.Reg.Vgpr) ~sgpr:(Aco.Ant.peak ant Ir.Reg.Sgpr)
      in
      common ~run:(fun ~initial_cost ~initial_order ~initial_artifact ->
          Ant_ref.colony_run_pass ~params ~rng ~ants:colony.Aco.Colony.ants
            ~pheromone:colony.Aco.Colony.search.Aco.Colony.pheromone ~mode ~cost_of_ant
            ~artifact_of_ant ~allow_optional_stalls:true ~budget_work:max_int
            ~metrics:Obs.Metrics.null ~pass_label:"p" ~initial_cost ~initial_order
            ~initial_artifact ~lb_cost:0 ~termination)

(* First runs pay one-time module/lazy initialization inside the
   measured minor-words window; force both paths once so the qcheck
   comparisons below see steady-state allocation. *)
let warmup =
  lazy
    (let graph = Ddg.Graph.build (Tu.diamond_region ()) in
     ignore (run_colony Policy_colony graph ~seed:3 ~mode:Aco.Ant.Rp_pass ~term:rp_term);
     ignore (run_colony Frozen_colony graph ~seed:3 ~mode:Aco.Ant.Rp_pass ~term:rp_term))

(* Generated cases on which the colony spent strictly less work than the
   frozen loop: each identity property must see at least one. *)
let cut_cases = ref 0

let check_colony_identity region seed mode term =
  Lazy.force warmup;
  let graph = Ddg.Graph.build region in
  let a, (work_a, words_a) = run_colony Policy_colony graph ~seed ~mode ~term in
  let b, (work_b, words_b) = run_colony Frozen_colony graph ~seed ~mode ~term in
  if a <> b then begin
    let show (order, cost, (_, it, ants, _, _, bc), rng) =
      Printf.sprintf "cost=%d it=%d ants=%d bc=%d rng=%d order=%d" cost it ants
        (List.length bc) rng (List.length order)
    in
    QCheck.Test.fail_reportf
      "Colony.run_pass with the As policy diverged from the frozen pre-refactor loop (colony: \
       %s | frozen: %s)"
      (show a) (show b)
  end;
  if work_a > work_b then
    QCheck.Test.fail_reportf "the cut spent more work (%d) than the frozen loop (%d)" work_a
      work_b;
  if words_a > words_b then
    QCheck.Test.fail_reportf "the loop allocated more minor words (%.0f) than the frozen loop (%.0f)"
      words_a words_b;
  if work_a < work_b then incr cut_cases;
  true

let test_colony_identity_rp =
  QCheck.Test.make ~count:10 ~name:"colony As pass 1 byte-identical to frozen loop"
    (QCheck.pair (Tu.arb_region ~max_size:40 ()) QCheck.small_int)
    (fun (region, seed) -> check_colony_identity region seed Aco.Ant.Rp_pass rp_term)

let test_colony_identity_ilp =
  QCheck.Test.make ~count:10 ~name:"colony As pass 2 byte-identical to frozen loop"
    (QCheck.pair (Tu.arb_region ~max_size:40 ()) QCheck.small_int)
    (fun (region, seed) ->
      let mode = Aco.Ant.Ilp_pass { target_vgpr = 1000; target_sgpr = 1000 } in
      check_colony_identity region seed mode no_term)

(* ------------------------------------------------------------------ *)
(* MMAS invariants: mirror the policy's bookkeeping (best-so-far cost,
   stagnation counter, restart budget, tau bounds) in plain test code
   and assert after every op that each trail cell sits inside
   [tau_min, tau_max] — exactly, since [clamp] and the mirror use the
   same float expressions — and that a restart leaves the table uniform
   at tau_max. *)

type mmas_op = Winner of int | Winnerless | Evaporate

let arb_mmas_ops =
  let open QCheck in
  let op_gen =
    Gen.frequency
      [
        (4, Gen.map (fun c -> Winner c) (Gen.int_bound 200));
        (2, Gen.return Winnerless);
        (1, Gen.return Evaporate);
      ]
  in
  let print (n, c0, ops) =
    let op_to_string = function
      | Winner c -> Printf.sprintf "W%d" c
      | Winnerless -> "L"
      | Evaporate -> "E"
    in
    Printf.sprintf "n=%d init=%d [%s]" n c0 (String.concat ";" (List.map op_to_string ops))
  in
  make ~print
    (Gen.triple (Gen.int_range 2 10) (Gen.int_bound 200)
       (Gen.list_size (Gen.int_range 1 40) op_gen))

let test_mmas_bounds =
  QCheck.Test.make ~count:200 ~name:"mmas trail stays in [tau_min, tau_max]; restarts metered"
    arb_mmas_ops
    (fun (n, c0, ops) ->
      let metrics = Obs.Metrics.create () in
      let policy = Aco.Pheromone_policy.make Aco.Pheromone_policy.Mmas ~params ~n ~metrics in
      let pheromone =
        Aco.Pheromone.create ~n ~initial:params.Engine.Params.initial_pheromone
      in
      (* Mirror model — same float expressions as the policy. *)
      let rho =
        let r = 1.0 -. decay in
        if r > 0.0 then r else 1.0
      in
      let limit = Aco.Pheromone_policy.mmas_stagnation_limit ~n in
      let lo = ref 0.0 and hi = ref 1.0 in
      let best = ref max_int and stag = ref 0 in
      let r_pass = ref 0 and r_ever = ref 0 in
      let set_bounds cost =
        let tau_max = deposit /. float_of_int (1 + cost) /. rho in
        hi := tau_max;
        lo := tau_max /. float_of_int (2 * max 1 n)
      in
      let check_cells ~uniform =
        Array.iteri
          (fun i v ->
            if v < !lo || v > !hi then
              QCheck.Test.fail_reportf "cell %d = %.17g outside [%.17g, %.17g]" i v !lo !hi;
            if uniform && v <> !hi then
              QCheck.Test.fail_reportf "cell %d = %.17g <> tau_max %.17g right after restart"
                i v !hi)
          (Aco.Pheromone.cells pheromone)
      in
      let step winner_order winner_cost =
        policy.Aco.Pheromone_policy.update pheromone ~winner_order ~winner_cost;
        if winner_cost < !best then begin
          best := winner_cost;
          stag := 0;
          set_bounds winner_cost
        end
        else incr stag;
        let fired = !stag >= limit && !r_pass < Aco.Pheromone_policy.mmas_max_restarts in
        if fired then begin
          best := max_int;
          stag := 0;
          incr r_pass;
          incr r_ever
        end;
        check_cells ~uniform:fired
      in
      policy.Aco.Pheromone_policy.init pheromone ~initial_order:(ident n) ~initial_cost:c0;
      best := c0;
      stag := 0;
      r_pass := 0;
      set_bounds c0;
      check_cells ~uniform:false;
      List.iter
        (function
          | Winner c -> step (order_of n c) c
          | Winnerless -> step Aco.Pheromone_policy.no_order max_int
          | Evaporate ->
              policy.Aco.Pheromone_policy.evaporate pheromone;
              check_cells ~uniform:false)
        ops;
      if Aco.Pheromone_policy.restarts policy <> !r_ever then
        QCheck.Test.fail_reportf "restarts accessor %d <> mirror %d"
          (Aco.Pheromone_policy.restarts policy)
          !r_ever;
      let metered =
        match Obs.Metrics.get metrics "aco.mmas.restarts" with
        | Some m -> int_of_float (Obs.Metrics.value m)
        | None -> 0
      in
      metered = !r_ever)

(* Deterministic walk through one restart window: with n = 4 the
   stagnation limit is termination_condition 4 + 2 = 3, so three
   winner-less iterations force exactly one restart; the next genuine
   winner must re-anchor the bounds. *)
let test_mmas_restart_walk () =
  let n = 4 in
  let metrics = Obs.Metrics.create () in
  let policy = Aco.Pheromone_policy.make Aco.Pheromone_policy.Mmas ~params ~n ~metrics in
  let pheromone = Aco.Pheromone.create ~n ~initial:params.Engine.Params.initial_pheromone in
  Alcotest.(check int)
    "patience covers every restart window"
    (Aco.Pheromone_policy.mmas_patience ~n)
    (Aco.Pheromone_policy.patience policy);
  policy.Aco.Pheromone_policy.init pheromone ~initial_order:(ident n) ~initial_cost:10;
  let rho = 1.0 -. decay in
  let tau_max cost = deposit /. float_of_int (1 + cost) /. rho in
  let stagnate () =
    policy.Aco.Pheromone_policy.update pheromone
      ~winner_order:Aco.Pheromone_policy.no_order ~winner_cost:max_int
  in
  stagnate ();
  stagnate ();
  Alcotest.(check int) "no restart yet" 0 (Aco.Pheromone_policy.restarts policy);
  stagnate ();
  Alcotest.(check int) "restart fired" 1 (Aco.Pheromone_policy.restarts policy);
  Array.iter
    (fun v -> Alcotest.(check (float 0.0)) "uniform at tau_max" (tau_max 10) v)
    (Aco.Pheromone.cells pheromone);
  (* The next winner re-seeds the forgotten anchor. *)
  policy.Aco.Pheromone_policy.update pheromone ~winner_order:(order_of n 5) ~winner_cost:5;
  Array.iter
    (fun v ->
      if v > tau_max 5 then Alcotest.failf "cell %g above re-anchored tau_max %g" v (tau_max 5))
    (Aco.Pheromone.cells pheromone);
  Alcotest.(check int) "still one restart" 1 (Aco.Pheromone_policy.restarts policy)

(* ------------------------------------------------------------------ *)
(* MMAS drives a real colony pass to a sane result: valid permutation,
   never worse than the initial cost. *)

let test_mmas_colony_runs () =
  let graph = Ddg.Graph.build (Tu.random_region ~max_size:30 11) in
  let n = Ddg.Graph.size graph in
  let colony =
    Aco.Colony.prepare ~policy:Aco.Pheromone_policy.Mmas ~allow_optional_stalls:true
      { Engine.Backend.null_ctx with Engine.Backend.params; seed = 42 }
      (Engine.Region_ctx.of_graph Tu.occ graph)
  in
  let best, cost, stats =
    Aco.Colony.run_pass colony.Aco.Colony.search
      ~iteration:
        (Aco.Colony.sequential colony ~mode:Aco.Ant.Rp_pass ~term:rp_term
           ~budget:Engine.Types.Unlimited)
      ~ties:Aco.Colony.Keep
      ~artifact_of_ant:(fun a -> Some (Aco.Ant.order a))
      ~pass_label:"p1" ~initial_cost:max_int ~initial_order:(ident n)
      ~initial_artifact:(ident n) ~lb_cost:0
  in
  Aco.Colony.teardown colony;
  Alcotest.(check bool) "improved on the unreachable initial" true (cost < max_int);
  Alcotest.(check bool) "ran" true stats.Engine.Types.invoked;
  let seen = Array.make n false in
  Array.iter (fun i -> seen.(i) <- true) best;
  Alcotest.(check int) "order is a permutation" n (Array.length best);
  Array.iteri (fun i s -> if not s then Alcotest.failf "instruction %d missing" i) seen

(* ------------------------------------------------------------------ *)
(* The objectives' arithmetic, and the ant's one-call cut. *)

let spill_model =
  {
    Sched.Objective.target_occupancy = 8;
    allow_vgpr = 10;
    allow_sgpr = 5;
    vgpr_spill_cycles = 4;
    sgpr_spill_cycles = 2;
  }

let test_objective_arithmetic () =
  let r = { Sched.Cost.aprp_vgpr = 12; aprp_sgpr = 4; occupancy = 1 } in
  let spill = Sched.Objective.Spill spill_model in
  Alcotest.(check int)
    "spill scalar prices excess and keeps the pressure tie-break"
    (((12 - 10) * 4) + 12 + 4)
    (Sched.Objective.rp_scalar spill r);
  Alcotest.(check int)
    "cliff scalar unchanged" (Sched.Cost.rp_scalar r)
    (Sched.Objective.rp_scalar Sched.Objective.Cliff r);
  let unconstrained = (Sched.Objective.no_target, Sched.Objective.no_target) in
  List.iter
    (fun (what, obj, rp_pass, targets, term) ->
      Alcotest.(check bool) (what ^ ": RP pass") rp_pass (Sched.Objective.rp_pass obj);
      Alcotest.(check (pair int int))
        (what ^ ": pass-2 targets") targets
        (Sched.Objective.breach_targets obj r);
      Alcotest.(check int)
        (what ^ ": pass-2 term") term
        (Sched.Objective.pass2_term obj Tu.occ ~vgpr:12 ~sgpr:7))
    [
      (* the cliff targets the achieved APRP and never adds a term *)
      ("cliff", Sched.Objective.Cliff, true, (12, 4), 0);
      (* spill runs pass 2 unconstrained and prices per-class excess *)
      ("spill", spill, true, unconstrained, (2 * 4) + (2 * 2));
      (* the weighted sum has no RP pass and adds the RP scalar *)
      ( "weighted",
        Sched.Objective.Weighted,
        false,
        unconstrained,
        Sched.Cost.rp_scalar_of_peaks Tu.occ ~vgpr:12 ~sgpr:7 );
    ]

(* [Ant.run] against a cutoff kills an ant at the step where the exact
   per-step check would: a twin ant on the same stream, stepped by hand
   and killed once its cost at [Ant.length_lb] and the running peaks
   reaches the cutoff, ends with the same status, work, length, peaks
   and issued prefix. Cutoffs sweep from below the first step's bound
   to above the finished cost, over both passes, a zero and a peak term
   in pass 2, and tight and loose RP targets. *)
let test_ant_run_cut () =
  let kills = ref 0 and finishes = ref 0 in
  let spill = Sched.Objective.Spill (Gpusim.Mem_model.spill_model Gpusim.Config.bench) in
  for seed = 1 to 12 do
    let g = Ddg.Graph.build (Tu.random_region ~max_size:40 seed) in
    let ants = Aco.Ant.lanes (Tu.shared_of_graph g) ~count:2 params in
    let a = ants.(0) and b = ants.(1) in
    let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
    let lb cls = Ddg.Lower_bounds.register_pressure g cls in
    let passes =
      [
        (Aco.Ant.Rp_pass, rp_term);
        (Aco.Ant.Ilp_pass { target_vgpr = 1000; target_sgpr = 1000 }, no_term);
        ( Aco.Ant.Ilp_pass { target_vgpr = 1000; target_sgpr = 1000 },
          fun ~vgpr ~sgpr -> Sched.Objective.pass2_term spill Tu.occ ~vgpr ~sgpr );
        ( Aco.Ant.Ilp_pass
            { target_vgpr = lb Ir.Reg.Vgpr + 2; target_sgpr = lb Ir.Reg.Sgpr + 4 },
          no_term );
      ]
    in
    List.iter
      (fun (mode, term) ->
        let length_counts = match mode with Aco.Ant.Rp_pass -> false | _ -> true in
        let cost ant ~length =
          (if length_counts then length else 0)
          + term ~vgpr:(Aco.Ant.peak ant Ir.Reg.Vgpr) ~sgpr:(Aco.Ant.peak ant Ir.Reg.Sgpr)
        in
        let start ant =
          Aco.Ant.start ant ~rng:(Support.Rng.create seed)
            ~heuristic:Sched.Heuristic.Last_use_count ~allow_optional_stalls:true mode
        in
        start a;
        Aco.Ant.run_to_completion a ~pheromone;
        let completes = Aco.Ant.status a = Aco.Ant.Finished in
        let final = cost a ~length:(Aco.Ant.length a) in
        for cutoff = final - 12 to final + 1 do
          start a;
          Aco.Ant.run a ~pheromone ~term ~cutoff;
          start b;
          while Aco.Ant.status b = Aco.Ant.Active do
            Aco.Ant.step b ~pheromone ~force_explore:(-1) ~ready_limit:0;
            if
              Aco.Ant.status b = Aco.Ant.Active
              && cost b ~length:(Aco.Ant.length_lb b) >= cutoff
            then Aco.Ant.kill b
          done;
          let what = Printf.sprintf "region %d, cutoff %d: " seed cutoff in
          Alcotest.(check bool) (what ^ "status") true (Aco.Ant.status a = Aco.Ant.status b);
          Alcotest.(check int) (what ^ "work") (Aco.Ant.work b) (Aco.Ant.work a);
          Alcotest.(check int) (what ^ "length") (Aco.Ant.length b) (Aco.Ant.length a);
          Alcotest.(check (pair int int)) (what ^ "peaks") (Aco.Ant.rp_peaks b) (Aco.Ant.rp_peaks a);
          Alcotest.(check (array int)) (what ^ "issued") (Aco.Ant.order b) (Aco.Ant.order a);
          match Aco.Ant.status a with
          | Aco.Ant.Dead when completes -> incr kills
          | Aco.Ant.Finished -> incr finishes
          | Aco.Ant.Dead | Aco.Ant.Active -> ()
        done)
      passes;
    Aco.Ant.release ants
  done;
  Alcotest.(check bool) "some ant was cut" true (!kills > 0);
  Alcotest.(check bool) "some ant finished under a cutoff" true (!finishes > 0)

let test_mem_model_spill () =
  let m = Gpusim.Mem_model.spill_model Gpusim.Config.bench in
  Alcotest.(check bool) "vgpr spill costs cycles" true (m.Sched.Objective.vgpr_spill_cycles >= 1);
  Alcotest.(check bool) "sgpr spill costs cycles" true (m.Sched.Objective.sgpr_spill_cycles >= 1);
  Alcotest.(check bool)
    "vgpr spill at least as expensive as sgpr" true
    (m.Sched.Objective.vgpr_spill_cycles >= m.Sched.Objective.sgpr_spill_cycles);
  Alcotest.(check bool) "positive vgpr allowance" true (m.Sched.Objective.allow_vgpr > 0);
  Alcotest.(check bool) "positive target occupancy" true (m.Sched.Objective.target_occupancy > 0)

let suite =
  [
    Alcotest.test_case "mmas restart walk" `Quick test_mmas_restart_walk;
    Alcotest.test_case "mmas colony pass" `Quick test_mmas_colony_runs;
    Alcotest.test_case "objective arithmetic" `Quick test_objective_arithmetic;
    Alcotest.test_case "ant run cuts where the exact check does" `Quick test_ant_run_cut;
    Alcotest.test_case "mem_model spill model" `Quick test_mem_model_spill;
  ]
  @ Tu.qtests [ test_as_table_identity ]
  @ List.map (Tu.qtest_witnessed ~witness:cut_cases ~what:"a cut ant")
      [ test_colony_identity_rp; test_colony_identity_ilp ]
  @ Tu.qtests [ test_mmas_bounds ]
