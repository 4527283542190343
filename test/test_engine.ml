(* The engine layer: registry/dispatch/budget unit tests, the
   lazy-prepare contract of the pipeline, and the byte-identity
   differentials pinning the refactored backends to the frozen
   pre-engine drivers in Two_pass_ref. *)

module Ref = Two_pass_ref

let params = Tu.test_params
let gpu = Tu.test_gpu

(* --- registry ------------------------------------------------------------ *)

let test_registry () =
  Pipeline.Compile.ensure_backends ();
  List.iter
    (fun b -> Alcotest.(check bool) (b ^ " registered") true (Engine.Registry.mem b))
    [ "seq"; "par"; "weighted" ];
  Alcotest.(check string) "find_exn resolves" "par"
    (Engine.Backend.name (Engine.Registry.find_exn "par"));
  Alcotest.(check bool) "find on unknown" true (Engine.Registry.find "no-such" = None);
  (match Engine.Registry.find_exn "no-such" with
  | _ -> Alcotest.fail "find_exn accepted an unknown backend"
  | exception Invalid_argument _ -> ());
  (* Re-registration is idempotent: same names, same order. *)
  let before = Engine.Registry.names () in
  Pipeline.Compile.ensure_backends ();
  Alcotest.(check (list string)) "stable registration order" before (Engine.Registry.names ())

(* --- dispatch ------------------------------------------------------------ *)

let test_dispatch () =
  let open Engine.Dispatch in
  Alcotest.(check (list string)) "fixed" [ "par" ] (candidates default ~n:10);
  let auto = of_string ~auto_threshold:50 "auto" in
  Alcotest.(check (list string)) "auto small" [ "seq" ] (candidates auto ~n:49);
  Alcotest.(check (list string)) "auto large" [ "par" ] (candidates auto ~n:50);
  let auto9 = of_string ~auto_threshold:9 "auto" in
  Alcotest.(check (list string)) "auto threshold is configurable" [ "par" ]
    (candidates auto9 ~n:9);
  (match of_string "seq,par" with
  | Race [ "seq"; "par" ] -> ()
  | p -> Alcotest.failf "race parse: %s" (to_string p));
  (match of_string "par" with
  | Fixed "par" -> ()
  | p -> Alcotest.failf "fixed parse: %s" (to_string p));
  (match of_string "par," with
  | Fixed "par" -> ()
  | p -> Alcotest.failf "singleton race collapses: %s" (to_string p));
  (match of_string "" with
  | _ -> Alcotest.fail "empty spec accepted"
  | exception Invalid_argument _ -> ());
  (match of_string "seq,par,seq" with
  | _ -> Alcotest.fail "duplicate race entry accepted"
  | exception Duplicate_backend "seq" -> ());
  (match of_string "mmas, mmas" with
  | _ -> Alcotest.fail "duplicate race entry accepted after trimming"
  | exception Duplicate_backend "mmas" -> ());
  Alcotest.(check (list string)) "backend_names dedups" [ "par"; "seq" ]
    (backend_names (Race [ "seq"; "par"; "seq" ]))

(* --- budget arithmetic --------------------------------------------------- *)

let test_budget_minus () =
  let spent work time_ns = { Engine.Types.no_pass with Engine.Types.work; time_ns } in
  Alcotest.(check bool) "unlimited stays" true
    (Engine.Types.budget_minus Engine.Types.Unlimited (spent 1000 1e9) = Engine.Types.Unlimited);
  Alcotest.(check bool) "work deducts" true
    (Engine.Types.budget_minus (Engine.Types.Work 100) (spent 30 0.0) = Engine.Types.Work 70);
  Alcotest.(check bool) "work clamps at zero" true
    (Engine.Types.budget_minus (Engine.Types.Work 10) (spent 30 0.0) = Engine.Types.Work 0);
  Alcotest.(check bool) "time deducts" true
    (Engine.Types.budget_minus (Engine.Types.Time_ns 100.0) (spent 0 40.0)
    = Engine.Types.Time_ns 60.0);
  Alcotest.(check bool) "time clamps at zero" true
    (Engine.Types.budget_minus (Engine.Types.Time_ns 10.0) (spent 0 40.0)
    = Engine.Types.Time_ns 0.0)

(* --- lazy-prepare contract ------------------------------------------------ *)

(* A stub backend that records the fingerprint of every region it is
   prepared for and torn down on, and ships the initial schedule
   untouched. [Two_pass] prepares lazily: exactly the regions that run a
   pass pay for a backend — once each, shared kernels compiled once, not
   once per benchmark — and a region both gates skip never prepares
   it. *)
let prepared = ref []
let torn_down = ref []

module Counting_backend = struct
  let name = "counting"
  let caps = { Engine.Types.rp_pass = false; time_model = false }
  let objective = None

  type state = string

  let prepare _ctx (rc : Engine.Region_ctx.t) =
    let fp = rc.Engine.Region_ctx.fingerprint in
    prepared := fp :: !prepared;
    fp

  let run_order_pass _ (_ : Engine.Backend.order_request) =
    invalid_arg "counting backend has no RP pass"

  let run_schedule_pass _ (req : Engine.Backend.schedule_request) =
    ( req.Engine.Backend.s_initial,
      { Engine.Types.no_pass with Engine.Types.invoked = true; stop = Engine.Types.Patience } )

  let teardown fp = torn_down := fp :: !torn_down
end

let test_prepare_lazy () =
  Engine.Registry.register (module Counting_backend : Engine.Backend.S);
  let suite = Workload.Suite.generate Workload.Suite.test_scale in
  let instances =
    List.length suite.Workload.Suite.benchmarks
  in
  Alcotest.(check bool) "suite shares kernels across benchmarks" true
    (instances > List.length suite.Workload.Suite.kernels);
  let config =
    {
      (Pipeline.Compile.make_config ~gpu ()) with
      Pipeline.Compile.params;
      dispatch = Engine.Dispatch.Fixed "counting";
      run_sequential = false;
    }
  in
  prepared := [];
  torn_down := [];
  let report = Pipeline.Executor.run_suite config suite in
  (* Every compiled region, keyed by fingerprint, split by whether its
     product run invoked a pass. *)
  let searched, skipped =
    List.concat_map
      (fun (kr : Pipeline.Compile.kernel_report) ->
        List.combine kr.Pipeline.Compile.kernel.Workload.Suite.regions
          kr.Pipeline.Compile.regions)
      report.Pipeline.Compile.kernels
    |> List.partition_map (fun (region, (r : Pipeline.Compile.region_report)) ->
           Alcotest.(check string) "product backend" "counting"
             r.Pipeline.Compile.product_backend;
           let fp = Engine.Region_ctx.fingerprint_of_region region in
           if r.Pipeline.Compile.pass1_invoked || r.Pipeline.Compile.pass2_invoked then Left fp
           else Right fp)
  in
  Alcotest.(check bool) "some regions run a pass" true (searched <> []);
  Alcotest.(check bool) "some regions run no pass" true (skipped <> []);
  let sorted = List.sort compare in
  Alcotest.(check (list string)) "one prepare per region that runs a pass" (sorted searched)
    (sorted !prepared);
  Alcotest.(check (list string)) "one teardown per prepare" (sorted searched)
    (sorted !torn_down);
  List.iter
    (fun fp ->
      if List.mem fp !prepared then
        Alcotest.failf "region %s runs no pass but prepared the backend" fp)
    skipped

(* --- dispatch policies through the pipeline ------------------------------ *)

let small_compile_config dispatch =
  {
    (Pipeline.Compile.make_config ~gpu ()) with
    Pipeline.Compile.params;
    dispatch;
    run_sequential = false;
  }

let test_weighted_product () =
  let region = Tu.random_region ~max_size:30 36 in
  let r =
    Pipeline.Compile.run_region
      (small_compile_config (Engine.Dispatch.Fixed "weighted"))
      ~name:"w" region
  in
  Alcotest.(check bool) "weighted searched" true r.Pipeline.Compile.pass2_invoked;
  Alcotest.(check string) "weighted wins its own dispatch" "weighted"
    r.Pipeline.Compile.product_backend;
  Alcotest.(check bool) "weighted skips the RP pass" false r.Pipeline.Compile.pass1_invoked;
  Alcotest.(check int) "one run" 1 (List.length r.Pipeline.Compile.runs);
  (* the guard holds: the shipped order reconstructs into a valid
     schedule (dependency order; [of_order] drops the stall padding) *)
  let graph = Ddg.Graph.build region in
  match Sched.Schedule.of_order graph r.Pipeline.Compile.aco_order with
  | Ok s -> ignore (Tu.check_valid ~latency_aware:false s)
  | Error v -> Alcotest.failf "invalid product: %s" (Sched.Schedule.violation_to_string v)

let test_auto_dispatch () =
  let region = Tu.random_region ~max_size:20 3 in
  let n = Ir.Region.size region in
  let below =
    Pipeline.Compile.run_region
      (small_compile_config (Engine.Dispatch.of_string ~auto_threshold:(n + 1) "auto"))
      ~name:"a" region
  in
  Alcotest.(check string) "below threshold -> seq" "seq" below.Pipeline.Compile.product_backend;
  let above =
    Pipeline.Compile.run_region
      (small_compile_config (Engine.Dispatch.of_string ~auto_threshold:n "auto"))
      ~name:"a" region
  in
  Alcotest.(check string) "at threshold -> par" "par" above.Pipeline.Compile.product_backend

(* Races in which some candidate searched: on a region every bound
   closes, all three ship the heuristic schedule and the race decides
   nothing. *)
let races_searched = ref 0

let race_picks_best =
  QCheck.Test.make ~count:6 ~name:"race dispatch ships the best schedule of the portfolio"
    (Tu.arb_searched_region ~max_size:30 ())
    (fun region ->
      let r =
        Pipeline.Compile.run_region
          (small_compile_config (Engine.Dispatch.Race [ "par"; "seq"; "weighted" ]))
          ~name:"race" region
      in
      Alcotest.(check int) "all candidates ran" 3 (List.length r.Pipeline.Compile.runs);
      if
        List.exists
          (fun (run : Pipeline.Compile.backend_run) ->
            let res = run.Pipeline.Compile.result in
            res.Engine.Types.pass1.Engine.Types.invoked
            || res.Engine.Types.pass2.Engine.Types.invoked)
          r.Pipeline.Compile.runs
      then incr races_searched;
      let product = Pipeline.Compile.product_run r in
      List.iter
        (fun (run : Pipeline.Compile.backend_run) ->
          if
            Sched.Cost.better_rp_then_length run.Pipeline.Compile.result.Engine.Types.cost
              product.Pipeline.Compile.result.Engine.Types.cost
          then
            Alcotest.failf "run %s beats the product %s" run.Pipeline.Compile.backend
              r.Pipeline.Compile.product_backend)
        r.Pipeline.Compile.runs;
      true)

(* --- engine runs --------------------------------------------------------- *)

(* Every budget, watchdog and fault setting reaches a backend the way the
   pipeline hands it one: a context for [Engine.Two_pass.run]. The CPU
   colony ignores [ext]; the GPU model reads its configuration there and
   defaults to no watchdog and 2 retries. *)
let ctx ext ~seed budget = { Engine.Backend.null_ctx with Engine.Backend.params; seed; budget; ext }

let on_gpu = [ Gpusim.Par_aco.Gpu_config gpu ]

let watched ~iteration_deadline_ns ~max_retries config =
  [
    Gpusim.Par_aco.Gpu_config config;
    Gpusim.Par_aco.Watchdog { iteration_deadline_ns; max_retries };
  ]

let work_budget w = if w = max_int then Engine.Types.Unlimited else Engine.Types.Work w
let ns_budget ns = if ns = infinity then Engine.Types.Unlimited else Engine.Types.Time_ns ns

let stop_label = function
  | Engine.Types.Skipped -> "skipped"
  | Engine.Types.Patience -> "patience"
  | Engine.Types.Max_iterations -> "max-iterations"
  | Engine.Types.Lower_bound -> "lower-bound"
  | Engine.Types.Budget -> "budget"
  | Engine.Types.Faults -> "faults"

let stop = Alcotest.testable (fun ppf s -> Format.pp_print_string ppf (stop_label s)) ( = )

(* --- stop reasons ---------------------------------------------------------- *)

(* Every reason a pass loop reports, reached on purpose by seq and par
   through the engine, with the ledger rung it yields. The golden
   compiles only ever stop passes as skipped, on patience or on budget.
   Every case also holds [invoked = (stop <> Skipped)] on both passes. *)
let stop_cases () =
  let bound = Engine.Region_ctx.of_region Tu.occ (Tu.bound_region ()) in
  (* 51 instructions: patience is 2, so a 1-iteration cap binds first;
     pass 2 starts 19 cycles above the length bound *)
  let large =
    Engine.Region_ctx.of_region Tu.occ
      (Workload.Shapes.reduction (Support.Rng.create 1) ~items:24)
  in
  (* both passes gated off: the initial schedule sits on both bounds *)
  let gated = Engine.Region_ctx.of_region Tu.occ (Tu.random_region ~max_size:12 0) in
  let capped ext =
    {
      (ctx ext ~seed:1 Engine.Types.Unlimited) with
      Engine.Backend.params = { params with Engine.Params.max_iterations = 1 };
    }
  in
  (* Most lanes die at this rate, and a dropped reduction or a lost
     winner fails the iteration; under fault seed 3 the first pass-2
     iteration fails, and no retry is allowed. *)
  let no_retry =
    watched ~iteration_deadline_ns:infinity ~max_retries:0
      (Gpusim.Config.with_faults ~seed:3 gpu (Gpusim.Config.uniform_faults 0.9))
  in
  let seq = Aco.Seq_aco.backend and par = Gpusim.Par_aco.backend in
  let open Engine.Types in
  let u = Unlimited and clean = Pipeline.Robust.Clean in
  let over = Pipeline.Robust.Budget_exceeded and fallback = Pipeline.Robust.Faulted_fallback in
  [
    ("seq bound", seq, ctx [] ~seed:1 u, bound, Lower_bound, clean);
    ("par bound", par, ctx on_gpu ~seed:12 u, bound, Lower_bound, clean);
    ("seq patience", seq, ctx [] ~seed:2 u, bound, Patience, clean);
    ("par patience", par, ctx on_gpu ~seed:1 u, bound, Patience, clean);
    ("seq cap", seq, capped [], large, Max_iterations, clean);
    ("par cap", par, capped on_gpu, large, Max_iterations, clean);
    ("seq budget", seq, ctx [] ~seed:1 (Work 0), large, Budget, over);
    ("par budget", par, ctx on_gpu ~seed:1 (Time_ns 1.0), large, Budget, over);
    ("par faults", par, ctx no_retry ~seed:1 u, large, Faults, fallback);
    (* the failed iteration also overran the budget: faults outrank it *)
    ("par faults over budget", par, ctx no_retry ~seed:1 (Time_ns 1.0), large, Faults, fallback);
    ("seq skipped", seq, ctx [] ~seed:1 u, gated, Skipped, clean);
    ("par skipped", par, ctx on_gpu ~seed:1 u, gated, Skipped, clean);
  ]

let test_stop_reasons () =
  List.iter
    (fun (name, backend, ctx, rc, expected, expected_rung) ->
      let r = Engine.Two_pass.run backend ctx rc in
      let p1 = r.Engine.Types.pass1 and p2 = r.Engine.Types.pass2 in
      List.iter
        (fun (p : Engine.Types.pass_stats) ->
          Alcotest.(check bool)
            (name ^ ": invoked iff not skipped")
            (p.Engine.Types.stop <> Engine.Types.Skipped)
            p.Engine.Types.invoked)
        [ p1; p2 ];
      let decisive = max p1.Engine.Types.stop p2.Engine.Types.stop in
      Alcotest.check stop (name ^ ": stop reason") expected decisive;
      Alcotest.check Tu.rung (name ^ ": ledger rung") expected_rung
        (Pipeline.Robust.classify ~fell_back:false ~stop:decisive
           ~retries:(p1.Engine.Types.retries + p2.Engine.Types.retries)))
    (stop_cases ())

(* --- byte-identity differentials ----------------------------------------- *)

(* Warm up both code paths once so one-time lazy allocations (library
   initialization and the like) cannot land inside exactly one side's
   measured minor-words window. *)
let warmup =
  lazy
    (let rc = Engine.Region_ctx.of_region Tu.occ (Tu.diamond_region ()) in
     ignore (Ref.Seq_ref.run_from_setup ~params rc);
     ignore (Engine.Two_pass.run Aco.Seq_aco.backend (ctx [] ~seed:1 Engine.Types.Unlimited) rc);
     ignore (Ref.Par_ref.run_from_setup ~params gpu rc);
     ignore
       (Engine.Two_pass.run Gpusim.Par_aco.backend (ctx on_gpu ~seed:1 Engine.Types.Unlimited) rc))

(* Every field but [work], which the colony's cut-off may only lower
   (it stops ants the frozen loop runs to the end), and [minor_words],
   which may not exceed the frozen loop's: allocation is bounded, not
   replayed. *)
let check_seq_stats label (g : Engine.Types.pass_stats) (e : Engine.Types.pass_stats) =
  let key (s : Engine.Types.pass_stats) =
    ( (s.invoked, s.iterations, s.ants_simulated, s.improved),
      (s.stop, Array.to_list s.best_costs) )
  in
  let show (s : Engine.Types.pass_stats) =
    Printf.sprintf "it=%d ants=%d work=%d imp=%b stop=%s mw=%.0f bc=%d" s.iterations
      s.ants_simulated s.work s.improved (stop_label s.stop) s.minor_words
      (Array.length s.best_costs)
  in
  if
    key g <> key e
    || e.Engine.Types.work > g.Engine.Types.work
    || e.Engine.Types.minor_words > g.Engine.Types.minor_words
  then
    Alcotest.failf "%s: pass stats diverged from the frozen driver (golden: %s | engine: %s)"
      label (show g) (show e);
  (* fields the sequential colony never touches stay at their defaults *)
  if
    e.Engine.Types.time_ns <> 0.0 || e.Engine.Types.retries <> 0
    || e.Engine.Types.fault_counts <> Engine.Types.fault_counts_zero
  then Alcotest.failf "%s: sequential pass carries parallel-only stats" label

(* The frozen GPU-model driver still reports the three flags the engine
   folded into one stop reason: rank them by the same precedence. Its
   iteration count, compared alongside, tells patience from the cap. *)
let stop_of_ref_flags (g : Ref.Par_ref.pass_stats) =
  if not g.Ref.Par_ref.invoked then Engine.Types.Skipped
  else if g.Ref.Par_ref.aborted_faults then Engine.Types.Faults
  else if g.Ref.Par_ref.aborted_budget then Engine.Types.Budget
  else if g.Ref.Par_ref.hit_lower_bound then Engine.Types.Lower_bound
  else if g.Ref.Par_ref.iterations >= params.Engine.Params.max_iterations then
    Engine.Types.Max_iterations
  else Engine.Types.Patience

(* Every field exactly but [minor_words], which may not exceed the
   frozen driver's. *)
let check_par_stats label (g : Ref.Par_ref.pass_stats) (e : Engine.Types.pass_stats) =
  let gt =
    ( ( g.Ref.Par_ref.invoked,
        g.Ref.Par_ref.iterations,
        g.Ref.Par_ref.ants_simulated,
        g.Ref.Par_ref.work,
        g.Ref.Par_ref.time_ns,
        g.Ref.Par_ref.improved ),
      ( stop_of_ref_flags g,
        g.Ref.Par_ref.serialized_ops,
        g.Ref.Par_ref.single_path_ops,
        g.Ref.Par_ref.lockstep_steps,
        g.Ref.Par_ref.ant_steps,
        g.Ref.Par_ref.selections ),
      ( Array.to_list g.Ref.Par_ref.best_costs,
        g.Ref.Par_ref.retries,
        g.Ref.Par_ref.fault_counts ) )
  in
  let et =
    ( ( e.Engine.Types.invoked,
        e.Engine.Types.iterations,
        e.Engine.Types.ants_simulated,
        e.Engine.Types.work,
        e.Engine.Types.time_ns,
        e.Engine.Types.improved ),
      ( e.Engine.Types.stop,
        e.Engine.Types.serialized_ops,
        e.Engine.Types.single_path_ops,
        e.Engine.Types.lockstep_steps,
        e.Engine.Types.ant_steps,
        e.Engine.Types.selections ),
      ( Array.to_list e.Engine.Types.best_costs,
        e.Engine.Types.retries,
        e.Engine.Types.fault_counts ) )
  in
  if gt <> et then Alcotest.failf "%s: pass stats diverged from the frozen driver" label;
  if e.Engine.Types.minor_words > g.Ref.Par_ref.minor_words then
    Alcotest.failf "%s: %.0f minor words, above the frozen driver's %.0f" label
      e.Engine.Types.minor_words g.Ref.Par_ref.minor_words

(* Cases on which the engine spent strictly less work than the frozen
   driver: the differential must see at least one. *)
let cut_cases = ref 0

let is_prefix a b =
  Array.length a <= Array.length b && Array.for_all2 ( = ) a (Array.sub b 0 (Array.length a))

(* Under a finite budget the cut changes the search: a pass spends no
   more work per iteration than the frozen driver's, so it runs at least
   its iterations, the same ones first. *)
let check_budgeted label (g : Engine.Types.result) (e : Engine.Types.result) =
  let series (r : Engine.Types.result) pass = (pass r).Engine.Types.best_costs in
  let p1 (r : Engine.Types.result) = r.Engine.Types.pass1 in
  let p2 (r : Engine.Types.result) = r.Engine.Types.pass2 in
  if not (is_prefix (series g p1) (series e p1)) then
    Alcotest.failf "%s: the frozen pass-1 series is not a prefix of the engine's" label;
  if
    Sched.Schedule.order g.Engine.Types.pass2_initial
    = Sched.Schedule.order e.Engine.Types.pass2_initial
  then begin
    if not (is_prefix (series g p2) (series e p2)) then
      Alcotest.failf "%s: the frozen pass-2 series is not a prefix of the engine's" label;
    if Sched.Cost.better_rp_then_length g.Engine.Types.cost e.Engine.Types.cost then
      Alcotest.failf "%s: the engine shipped a worse schedule than the frozen driver" label
  end
  else begin
    (* pass 1 ran further and found a strictly better order *)
    let last a = a.(Array.length a - 1) in
    if last (series e p1) >= last (series g p1) then
      Alcotest.failf "%s: pass-2 seeds diverged without a better pass-1 order" label
  end

let seq_differential =
  QCheck.Test.make ~count:10
    ~name:"seq backend through the engine replays the frozen driver byte for byte"
    (QCheck.pair (Tu.arb_searched_region ~max_size:40 ()) QCheck.small_int)
    (fun (region, seed) ->
      Lazy.force warmup;
      let rc = Engine.Region_ctx.of_region Tu.occ region in
      List.iter
        (fun budget_work ->
          let label = Printf.sprintf "seq seed=%d budget=%d" seed budget_work in
          let g = Ref.Seq_ref.run_from_setup ~params ~seed ~budget_work rc in
          let e =
            Engine.Two_pass.run Aco.Seq_aco.backend (ctx [] ~seed (work_budget budget_work)) rc
          in
          if budget_work < max_int then check_budgeted label g e
          else begin
            if
              Sched.Schedule.order g.Engine.Types.schedule
              <> Sched.Schedule.order e.Engine.Types.schedule
            then Alcotest.failf "%s: schedules diverged" label;
            if g.Engine.Types.cost <> e.Engine.Types.cost then
              Alcotest.failf "%s: costs diverged" label;
            if g.Engine.Types.rp_target <> e.Engine.Types.rp_target then
              Alcotest.failf "%s: RP targets diverged" label;
            if
              Sched.Schedule.order g.Engine.Types.pass2_initial
              <> Sched.Schedule.order e.Engine.Types.pass2_initial
            then Alcotest.failf "%s: pass-2 seeds diverged" label;
            check_seq_stats (label ^ " pass1") g.Engine.Types.pass1 e.Engine.Types.pass1;
            check_seq_stats (label ^ " pass2") g.Engine.Types.pass2 e.Engine.Types.pass2;
            let work (r : Engine.Types.result) =
              r.Engine.Types.pass1.Engine.Types.work + r.Engine.Types.pass2.Engine.Types.work
            in
            if work e < work g then incr cut_cases
          end)
        [ max_int; 40_000; 500 ];
      true)

(* Cases on which the GPU model ran a pass: the differential must see
   at least one. It draws only regions the bounds leave open, as the seq
   differential does: on arbitrary random regions both passes are
   skipped and the GPU loop never runs. *)
let par_searched = ref 0

let par_differential =
  QCheck.Test.make ~count:8
    ~name:"par backend through the engine replays the frozen driver byte for byte"
    (QCheck.pair (Tu.arb_searched_region ~max_size:40 ()) QCheck.small_int)
    (fun (region, seed) ->
      Lazy.force warmup;
      let rc = Engine.Region_ctx.of_region Tu.occ region in
      List.iter
        (fun (fault_rate, budget_ns, iteration_deadline_ns, max_retries) ->
          let label =
            Printf.sprintf "par seed=%d rate=%.2f budget=%.0f" seed fault_rate budget_ns
          in
          let config =
            if fault_rate > 0.0 then
              Gpusim.Config.with_faults ~seed:(seed + 13) gpu
                (Gpusim.Config.uniform_faults fault_rate)
            else gpu
          in
          let g =
            Ref.Par_ref.run_from_setup ~params ~seed ~budget_ns ~iteration_deadline_ns
              ~max_retries config rc
          in
          let e =
            Engine.Two_pass.run Gpusim.Par_aco.backend
              (ctx
                 (watched ~iteration_deadline_ns ~max_retries config)
                 ~seed (ns_budget budget_ns))
              rc
          in
          if
            Sched.Schedule.order g.Ref.Par_ref.schedule
            <> Sched.Schedule.order e.Engine.Types.schedule
          then Alcotest.failf "%s: schedules diverged" label;
          if g.Ref.Par_ref.cost <> e.Engine.Types.cost then
            Alcotest.failf "%s: costs diverged" label;
          if g.Ref.Par_ref.rp_target <> e.Engine.Types.rp_target then
            Alcotest.failf "%s: RP targets diverged" label;
          if
            Sched.Schedule.order g.Ref.Par_ref.pass2_initial
            <> Sched.Schedule.order e.Engine.Types.pass2_initial
          then Alcotest.failf "%s: pass-2 seeds diverged" label;
          check_par_stats (label ^ " pass1") g.Ref.Par_ref.pass1 e.Engine.Types.pass1;
          check_par_stats (label ^ " pass2") g.Ref.Par_ref.pass2 e.Engine.Types.pass2;
          if e.Engine.Types.pass1.Engine.Types.invoked || e.Engine.Types.pass2.Engine.Types.invoked
          then incr par_searched)
        [
          (0.0, infinity, infinity, 2);
          (0.2, infinity, infinity, 2);
          (0.5, 2e6, infinity, 1);
          (0.0, 1e5, infinity, 2);
          (0.9, infinity, 1e4, 3);
        ];
      true)

(* --- the region context against its definitions ------------------------- *)

(* Each field is checked against its documented definition, computed
   here with the public schedulers on the bare graph, so neither the
   shared layout and critical path nor the work the gates skip can
   change what the context holds. The witnesses make every branch of
   the shortcuts show at least once; below about 80 instructions random
   regions almost never take the LUC or greedy branch, hence the larger
   regions. *)

let rp_lb_of graph =
  Sched.Cost.rp_of_peaks Tu.occ
    ~vgpr:(Ddg.Lower_bounds.register_pressure graph Ir.Reg.Vgpr)
    ~sgpr:(Ddg.Lower_bounds.register_pressure graph Ir.Reg.Sgpr)

let luc_wins = ref 0
let luc_skipped = ref 0

let pass1_initial_spec =
  QCheck.Test.make ~count:60 ~name:"pass-1 initial order is the better of AMD and LUC"
    (Tu.arb_region ~max_size:150 ())
    (fun region ->
      let graph = Ddg.Graph.build region in
      let rc = Engine.Region_ctx.of_graph Tu.occ graph in
      let rp order = Engine.Region_ctx.rp_of_order Tu.occ graph order in
      let amd = Sched.Schedule.order (Sched.List_scheduler.amd Tu.occ graph) in
      let luc = Sched.List_scheduler.run_order graph Sched.Heuristic.Last_use_count in
      let expected =
        if Sched.Cost.compare_rp (rp luc) (rp amd) < 0 then begin
          incr luc_wins;
          luc
        end
        else amd
      in
      if Sched.Cost.compare_rp (rp amd) (rp_lb_of graph) <= 0 then incr luc_skipped;
      rc.Engine.Region_ctx.pass1_initial_order = expected
      && rc.Engine.Region_ctx.pass1_initial_rp = rp expected)

let analyses_spec =
  QCheck.Test.make ~count:100 ~name:"region context costs and height match their definitions"
    (Tu.arb_region ())
    (fun region ->
      let graph = Ddg.Graph.build region in
      let rc = Engine.Region_ctx.of_graph Tu.occ graph in
      let amd = rc.Engine.Region_ctx.amd_schedule and cp = rc.Engine.Region_ctx.cp_schedule in
      Sched.Schedule.order amd = Sched.Schedule.order (Sched.List_scheduler.amd Tu.occ graph)
      && Sched.Schedule.order cp
         = Sched.Schedule.order (Sched.List_scheduler.run graph Sched.Heuristic.Critical_path)
      && rc.Engine.Region_ctx.amd_cost = Sched.Cost.of_schedule Tu.occ amd
      && rc.Engine.Region_ctx.cp_cost = Sched.Cost.of_schedule Tu.occ cp
      && rc.Engine.Region_ctx.height_lb = Ddg.Lower_bounds.dependence_height graph)

let greedy_wins = ref 0
let greedy_skipped = ref 0

(* A schedule as its issue cycles, instruction by instruction. *)
let cycles s = Array.init (Array.length (Sched.Schedule.order s)) (Sched.Schedule.cycle s)

let pass2_initial_spec =
  QCheck.Test.make ~count:60
    ~name:"pass-2 input is the padded schedule or a strictly shorter greedy one"
    QCheck.(triple (Tu.arb_region ~max_size:150 ()) (int_bound 12) (int_bound 12))
    (fun (region, dv, ds) ->
      let graph = Ddg.Graph.build region in
      let rc = Engine.Region_ctx.of_graph Tu.occ graph in
      let order = rc.Engine.Region_ctx.pass1_initial_order in
      (* targets from the pressure bound up, so that the greedy
         scheduler both corners itself and succeeds *)
      let rp_target =
        Sched.Cost.rp_of_peaks Tu.occ
          ~vgpr:(Ddg.Lower_bounds.register_pressure graph Ir.Reg.Vgpr + dv)
          ~sgpr:(Ddg.Lower_bounds.register_pressure graph Ir.Reg.Sgpr + ds)
      in
      let padded = Sched.Schedule.latency_pad graph order in
      let expected =
        match
          Sched.List_scheduler.constrained graph ~target_vgpr:rp_target.Sched.Cost.aprp_vgpr
            ~target_sgpr:rp_target.Sched.Cost.aprp_sgpr
        with
        | Some greedy when Sched.Schedule.length greedy < Sched.Schedule.length padded ->
            incr greedy_wins;
            greedy
        | Some _ | None -> padded
      in
      if Sched.Schedule.length padded <= Ddg.Lower_bounds.schedule_length graph then
        incr greedy_skipped;
      let got = Engine.Region_ctx.pass2_initial rc ~best_pass1_order:order ~rp_target in
      cycles got = cycles expected && Sched.Schedule.length got = Sched.Schedule.length expected)

(* A backend whose pass 1 returns the source order (a valid order whose
   RP usually differs from the initial one) and whose pass 2 keeps its
   input: the orchestrator's RP target must be the RP of whatever order
   pass 1 returned, and the initial order's when pass 1 did not run. *)
module Source_order_pass = struct
  let name = "source-order-pass"

  let caps = { Engine.Types.rp_pass = true; time_model = false }

  let objective = None

  type state = int

  let prepare _ctx (rc : Engine.Region_ctx.t) = rc.Engine.Region_ctx.graph.Ddg.Graph.n

  let run_order_pass n (_ : Engine.Backend.order_request) =
    (Array.init n Fun.id, { Engine.Types.no_pass with Engine.Types.invoked = true })

  let run_schedule_pass _ (req : Engine.Backend.schedule_request) =
    (req.Engine.Backend.s_initial, { Engine.Types.no_pass with Engine.Types.invoked = true })

  let teardown _ = ()
end

let target_after_pass1 = ref 0
let target_without_pass1 = ref 0

let rp_target_spec =
  QCheck.Test.make ~count:40 ~name:"the RP target is the RP of the order pass 1 returns"
    (Tu.arb_region ~max_size:150 ())
    (fun region ->
      let graph = Ddg.Graph.build region in
      let rc = Engine.Region_ctx.of_graph Tu.occ graph in
      let r =
        Engine.Two_pass.run (module Source_order_pass) Engine.Backend.null_ctx rc
      in
      let initial = rc.Engine.Region_ctx.pass1_initial_rp in
      let expected =
        if r.Engine.Types.pass1.Engine.Types.invoked then
          Engine.Region_ctx.rp_of_order Tu.occ graph (Array.init graph.Ddg.Graph.n Fun.id)
        else initial
      in
      if expected <> initial then incr target_after_pass1;
      if not r.Engine.Types.pass1.Engine.Types.invoked then incr target_without_pass1;
      r.Engine.Types.rp_target = expected)

(* A region's analyses allocate by its instructions, not by the cycles
   its schedules span: a 256-link chain at the per-instruction latency
   cap, whose schedules stall for 1,023 cycles per link, allocates at
   most twice the words of the same chain at latency 1. Counted are the
   minor words plus the words allocated directly in the major heap
   (major minus promoted). The minor words come from [Gc.minor_words],
   which is exact: the minor count of [Gc.counters] advances only at
   minor collections on OCaml 5, so a reading from it depends on where
   a collection happens to fall. *)
let test_region_ctx_allocation_by_instructions () =
  let chain latency =
    Ir.Region.create_exn ~name:"chain"
      (List.init 256 (fun id ->
           Ir.Instr.make ~id ~latency ~kind:Ir.Opcode.Valu ~defs:[ Ir.Reg.vgpr id ]
             ~uses:(if id = 0 then [] else [ Ir.Reg.vgpr (id - 1) ])
             ()))
  in
  let words latency =
    let region = chain latency in
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Engine.Region_ctx.of_region Tu.occ region));
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let slow = words 1024 and fast = words 1 in
  if slow > 2.0 *. fast then
    Alcotest.failf "of_region: %.0f words at latency 1024, %.0f at latency 1" slow fast

let suite =
  [
    ("backend registry", `Quick, test_registry);
    ("dispatch policies", `Quick, test_dispatch);
    ("budget arithmetic", `Quick, test_budget_minus);
    ("run_suite prepares each backend once per searched region", `Quick, test_prepare_lazy);
    ("weighted backend ships a valid product", `Quick, test_weighted_product);
    ("auto dispatch follows the size threshold", `Quick, test_auto_dispatch);
    ("every stop reason and its ledger rung", `Quick, test_stop_reasons);
  ]
  @ [ Tu.qtest_witnessed ~witness:races_searched ~what:"a race that searched" race_picks_best ]
  @ [ Tu.qtest_witnessed ~witness:cut_cases ~what:"a cut ant" seq_differential ]
  @ [ Tu.qtest_witnessed ~witness:par_searched ~what:"a searched pass" par_differential ]
  @ Tu.qtests [ analyses_spec ]
  @ [
      Tu.qtest_witnessed_all
        [ (luc_wins, "the LUC order winning"); (luc_skipped, "the LUC order skipped") ]
        pass1_initial_spec;
      Tu.qtest_witnessed_all
        [
          (greedy_wins, "the greedy schedule winning");
          (greedy_skipped, "the greedy schedule skipped");
        ]
        pass2_initial_spec;
      Tu.qtest_witnessed_all
        [
          (target_after_pass1, "pass 1 moving the RP target");
          (target_without_pass1, "pass 1 skipped");
        ]
        rp_target_spec;
      ( "region analyses allocate by instructions, not cycles",
        `Quick,
        test_region_ctx_allocation_by_instructions );
    ]
