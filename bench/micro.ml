(* Bechamel micro-benchmarks of the core operations: the data the cost
   models abstract over. One Test.make per primitive. *)

open Bechamel
open Toolkit

let region = lazy (Workload.Shapes.transform (Support.Rng.create 9) ~unroll:16 ~chain:4)
let graph = lazy (Ddg.Graph.build (Lazy.force region))

let test_ddg_build =
  Test.make ~name:"ddg_build"
    (Staged.stage (fun () -> ignore (Ddg.Graph.build (Lazy.force region))))

let test_closure =
  Test.make ~name:"transitive_closure"
    (Staged.stage (fun () -> ignore (Ddg.Closure.compute (Lazy.force graph))))

let test_critpath =
  Test.make ~name:"critical_path"
    (Staged.stage (fun () -> ignore (Ddg.Critpath.compute (Lazy.force graph))))

let test_rp_tracking =
  Test.make ~name:"rp_tracking"
    (Staged.stage (fun () ->
         let g = Lazy.force graph in
         let t = Sched.Rp_tracker.create g in
         Array.iter (Sched.Rp_tracker.schedule t) (Ddg.Topo.order g)))

let test_list_schedule =
  Test.make ~name:"list_schedule_cp"
    (Staged.stage (fun () ->
         ignore (Sched.List_scheduler.run (Lazy.force graph) Sched.Heuristic.Critical_path)))

let test_one_ant =
  Test.make ~name:"one_ant_pass2"
    (Staged.stage
       (let g = Lazy.force graph in
        let params = Engine.Params.default in
        let ant = Aco.Ant.create g params in
        let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
        let rng = Support.Rng.create 4 in
        fun () ->
          Aco.Ant.start ant ~rng:(Support.Rng.split rng) ~heuristic:Sched.Heuristic.Critical_path
            ~allow_optional_stalls:true
            (Aco.Ant.Ilp_pass { target_vgpr = 256; target_sgpr = 800 });
          Aco.Ant.run_to_completion ant ~pheromone))

let test_wavefront_iteration =
  Test.make ~name:"wavefront_iteration"
    (Staged.stage
       (let g = Lazy.force graph in
        let config = { Gpusim.Config.bench with Gpusim.Config.num_wavefronts = 1 } in
        let w =
          Gpusim.Wavefront.create config g Engine.Params.default
            ~heuristic:Sched.Heuristic.Critical_path ~allow_optional_stalls:true
        in
        let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
        let rng = Support.Rng.create 4 in
        fun () ->
          ignore
            (Gpusim.Wavefront.run_iteration w ~rng ~mode:Aco.Ant.Rp_pass ~pheromone)))

let tests =
  Test.make_grouped ~name:"core"
    [
      test_ddg_build;
      test_closure;
      test_critpath;
      test_rp_tracking;
      test_list_schedule;
      test_one_ant;
      test_wavefront_iteration;
    ]

type row = { name : string; ns_per_run : float; minor_words_per_run : float }

(* One benchmark run measured against two responders: wall clock and
   minor-heap allocation. Bechamel samples both from the same raw runs,
   so the columns describe the same executions. *)
let measure () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock; Instance.minor_allocated ] tests in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some ols -> (
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> nan)
    | None -> nan
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols Instance.minor_allocated raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) times [] in
  List.map
    (fun name ->
      {
        name;
        ns_per_run = estimate times name;
        minor_words_per_run = estimate allocs name;
      })
    (List.sort compare names)

(* Allocation budget of the construct-schedule inner loop, per pass and
   per wavefront heuristic role (Section V-B: critical path,
   Last-Use-Count, source order). With the unboxed data plane (scores
   and roulette state in pooled [Support.Fmat] rows, eta^beta rows
   shared by the colony, RP effects scanned by counted loops) the loop
   allocates only per-iteration bookkeeping — outcome record, finished
   list, the 5-word RNG split per lane — amortized over every ant step
   of the iteration: under 1 minor word per step. Pass 2 runs at the targets
   [Engine.Two_pass] would hand over from the pass-1 initial order, so
   its candidates leave the fits fast path and LUC scores run the
   effects scan. The ceiling applies to the worst row and keeps
   generous headroom so it trips on a real regression (a boxed float or
   a closure sneaking back into the selection loop costs several words
   per step on its own), not on noise. *)
let alloc_ceiling = 16.0

type alloc_row = {
  ag_pass : int;  (** 1 (RP, latencies ignored) or 2 (ILP under the RP target) *)
  ag_heuristic : Sched.Heuristic.kind;
  ag_per_step : float;  (** minor words per ant step *)
  ag_steps : int;
  ag_words : float;
}

let alloc_row ~pass ~mode heuristic =
  let g = Lazy.force graph in
  let config = { Gpusim.Config.bench with Gpusim.Config.num_wavefronts = 1 } in
  let w =
    Gpusim.Wavefront.create config g Engine.Params.default ~heuristic
      ~allow_optional_stalls:true
  in
  let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
  let rng = Support.Rng.create 4 in
  (* Warm-up iteration so one-time setup is not charged to the loop. *)
  ignore (Gpusim.Wavefront.run_iteration w ~rng ~mode ~pheromone);
  let steps = ref 0 in
  let before = Support.Perfcount.minor_words () in
  for _ = 1 to 20 do
    let o = Gpusim.Wavefront.run_iteration w ~rng ~mode ~pheromone in
    steps := !steps + o.Gpusim.Wavefront.ant_steps
  done;
  let words = Support.Perfcount.minor_words () -. before in
  let per_step = if !steps = 0 then 0.0 else words /. float_of_int !steps in
  {
    ag_pass = pass;
    ag_heuristic = heuristic;
    ag_per_step = per_step;
    ag_steps = !steps;
    ag_words = words;
  }

(* Rows in pass order, heuristics in [Sched.Heuristic.all] order; the
   first (pass 1, critical path) is the historical headline figure. *)
let alloc_gate () =
  let rc = Engine.Region_ctx.of_graph Machine.Occupancy.default (Lazy.force graph) in
  let rp_target =
    Engine.Region_ctx.rp_of_order rc.Engine.Region_ctx.occ rc.Engine.Region_ctx.graph
      rc.Engine.Region_ctx.pass1_initial_order
  in
  let target_vgpr, target_sgpr = Sched.Objective.breach_targets Sched.Objective.Cliff rp_target in
  List.concat_map
    (fun (pass, mode) ->
      List.map (fun h -> alloc_row ~pass ~mode h) Sched.Heuristic.all)
    [ (1, Aco.Ant.Rp_pass); (2, Aco.Ant.Ilp_pass { target_vgpr; target_sgpr }) ]

let alloc_worst rows =
  List.fold_left
    (fun acc r -> if r.ag_per_step > acc.ag_per_step then r else acc)
    (List.hd rows) rows

(* Cycles per scheduled instruction of the wavefront hot loop: the
   run_iteration batch timed on the monotonic clock and normalized per
   ant step (one ant step schedules exactly one instruction). At the
   1 GHz reference clock the cost models already use, nanoseconds read
   directly as cycles, so the per-step figure *is* the ROADMAP's
   cycles-per-scheduled-instruction series; `bench check` tracks it
   against the committed history. Min-of-trials, like the obs gate, so
   scheduler noise does not read as regression. *)
let hot_loop () =
  let g = Lazy.force graph in
  let config = { Gpusim.Config.bench with Gpusim.Config.num_wavefronts = 1 } in
  let w =
    Gpusim.Wavefront.create config g Engine.Params.default
      ~heuristic:Sched.Heuristic.Critical_path ~allow_optional_stalls:true
  in
  let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
  let rng = Support.Rng.create 4 in
  (* Warm-up iteration so one-time setup is not charged to the loop. *)
  ignore (Gpusim.Wavefront.run_iteration w ~rng ~mode:Aco.Ant.Rp_pass ~pheromone);
  let best_per_step = ref infinity and best_per_iter = ref infinity in
  let steps_seen = ref 0 in
  for _ = 1 to 8 do
    let steps = ref 0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 10 do
      let o = Gpusim.Wavefront.run_iteration w ~rng ~mode:Aco.Ant.Rp_pass ~pheromone in
      steps := !steps + o.Gpusim.Wavefront.ant_steps
    done;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    if !steps > 0 then begin
      let per_step = ns /. float_of_int !steps in
      if per_step < !best_per_step then best_per_step := per_step;
      let per_iter = ns /. 10.0 in
      if per_iter < !best_per_iter then best_per_iter := per_iter;
      steps_seen := !steps
    end
  done;
  let finite v = if v = infinity then 0.0 else v in
  (finite !best_per_step, finite !best_per_iter, !steps_seen)

(* Observability overhead on the wavefront hot loop: the same batch of
   run_iteration calls timed with everything off and with the full
   stack on — flight recorder, metrics registry, a live structured-log
   entry and a wall-clock span per iteration — min-of-trials so
   scheduler noise does not read as overhead. The ceiling is the
   observability contract: the whole stack must cost less than 10% of
   the loop it instruments. *)
let obs_ceiling_pct = 10.0

let obs_overhead () =
  let g = Lazy.force graph in
  let config = { Gpusim.Config.bench with Gpusim.Config.num_wavefronts = 1 } in
  let make ~traced =
    let w =
      Gpusim.Wavefront.create config g Engine.Params.default
        ~heuristic:Sched.Heuristic.Critical_path ~allow_optional_stalls:true
    in
    let trace = if traced then Obs.Trace.create () else Obs.Trace.null in
    let log = if traced then Obs.Log.create () else Obs.Log.null in
    if traced then
      Gpusim.Wavefront.set_obs w ~trace ~metrics:(Obs.Metrics.create ()) ~track:2
        ~obs_cursor:(Array.make 2 0.0) ~simd_cursor:(Array.make 1 0.0) ~simd:0;
    let pheromone = Aco.Pheromone.create ~n:g.Ddg.Graph.n ~initial:1.0 in
    let rng = Support.Rng.create 4 in
    (* Warm-up iteration so one-time setup is not charged to the loop. *)
    ignore (Gpusim.Wavefront.run_iteration w ~rng ~mode:Aco.Ant.Rp_pass ~pheromone);
    let batch () =
      let t0 = Unix.gettimeofday () in
      for i = 1 to 10 do
        if traced then begin
          let wt0 = Obs.Trace.wall_now trace in
          ignore
            (Gpusim.Wavefront.run_iteration w ~rng ~mode:Aco.Ant.Rp_pass ~pheromone);
          Obs.Trace.span trace ~track:Obs.Trace.wall_track_base ~name:"iteration"
            ~ts:wt0
            ~dur:(Obs.Trace.wall_now trace -. wt0);
          Obs.Log.debug log "bench.iteration" [ ("i", Obs.Log.Int i) ]
        end
        else
          ignore
            (Gpusim.Wavefront.run_iteration w ~rng ~mode:Aco.Ant.Rp_pass ~pheromone)
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. 10.0
    in
    batch
  in
  (* Interleave the trials: timing one full mode after the other reads
     cache/frequency warm-up as 20%+ "overhead" in either direction. *)
  let run_untraced = make ~traced:false and run_traced = make ~traced:true in
  let untraced_ns = ref infinity and traced_ns = ref infinity in
  for _ = 1 to 8 do
    let u = run_untraced () in
    if u < !untraced_ns then untraced_ns := u;
    let t = run_traced () in
    if t < !traced_ns then traced_ns := t
  done;
  let overhead_pct =
    if !untraced_ns > 0.0 then (!traced_ns /. !untraced_ns -. 1.0) *. 100.0 else 0.0
  in
  (!untraced_ns, !traced_ns, overhead_pct)

(* Prune gate: the "seq-prune" backend must be observationally identical
   to "seq" — same schedules, same costs — while demonstrably skipping
   fit evaluations via the min-register lower bounds. Each row runs the
   full two-pass engine over one region shape with both backends on
   identical contexts (same params, seed, budget) and checks three
   contracts:
   - byte-identical final schedules and costs (soundness: the bounds
     only dismiss candidates whose fit evaluation would have failed, so
     the constructed schedules and the RNG streams never diverge);
   - meter conservation: every pass-2 candidate is either fit-evaluated
     or pruned, so scored(off) = scored(on) + pruned(on);
   - the pruner actually fires across the suite (pruned > 0 in
     aggregate), i.e. the capability is not silently a no-op. *)
type prune_row = {
  pg_name : string;
  pg_identical : bool;
  pg_scored_off : int;
  pg_scored_on : int;
  pg_pruned : int;
}

(* Tight-target phase. The engine derives pass-2 targets from its own
   pass-1 winner, whose APRP rounding leaves slack, so the bounds rarely
   bind inside a two-pass run. To prove the pruner is {e live} (not a
   silently disarmed no-op), drive single ants under externally tight
   ILP targets — one VGPR below the critical-path list schedule's peak —
   where the fit filter engages on most steps. Twin RNG streams, prune
   off vs on: the constructed orders and statuses must match run for
   run, and the prune-on ant must actually dismiss candidates. *)
let tight_row name graph seed ~mode =
  let params = Engine.Params.default in
  (* Stand-alone ants default to a plain layout, which cannot prune:
     attach the pruning tables. *)
  let layout =
    Sched.Rp_tracker.with_pruning_tables
      (Sched.Rp_tracker.layout_of_graph graph)
      (Ddg.Closure.compute graph)
  in
  let shared = Aco.Ant.prepare_shared ~layout ~beta:params.Engine.Params.beta graph in
  let runs = 64 in
  let run ~prune =
    let ant = Aco.Ant.create ~shared graph params in
    Aco.Ant.set_prune ant prune;
    let pheromone = Aco.Pheromone.create ~n:graph.Ddg.Graph.n ~initial:1.0 in
    let rng = Support.Rng.create seed in
    let outcomes = ref [] in
    for _ = 1 to runs do
      Aco.Ant.start ant ~rng:(Support.Rng.split rng)
        ~heuristic:Sched.Heuristic.Critical_path ~allow_optional_stalls:true mode;
      Aco.Ant.run_to_completion ant ~pheromone;
      outcomes := (Aco.Ant.status ant, Array.copy (Aco.Ant.order ant)) :: !outcomes
    done;
    (!outcomes, Aco.Ant.scored_candidates ant, Aco.Ant.pruned_candidates ant)
  in
  let outcomes_off, scored_off, pruned_off = run ~prune:false in
  let outcomes_on, scored_on, pruned_on = run ~prune:true in
  {
    pg_name = name;
    pg_identical = outcomes_off = outcomes_on && pruned_off = 0;
    pg_scored_off = scored_off;
    pg_scored_on = scored_on;
    pg_pruned = pruned_on;
  }

(* A producer-heavy region where the bounds genuinely bind: [items]
   loads addressed off the scalar base alone — each certainly opens a
   VGPR and can close nothing, so its [min_delta] is +1 — feeding a fold
   chain whose every step closes two values. Under a VGPR target a few
   registers wide, an ant must interleave loads with folds; whenever
   pressure sits at the target, every still-ready load fails the defs
   fast path and the dynamic bound dismisses it before any
   [compute_effects] scan. Real workload shapes close registers almost
   everywhere (their loads consume a VGPR lane address), which is
   exactly why the pruner needs this shape to prove it is live. *)
let producer_burst ~items =
  let b = Ir.Builder.create ~name:"producer_burst" in
  let base = Ir.Builder.sload b ~name:"s_load_args" ~addr:[] () in
  let loads = List.init items (fun _ -> Ir.Builder.vload b ~addr:[ base ] ()) in
  let acc =
    List.fold_left
      (fun acc x -> Ir.Builder.valu b [ acc; x ])
      (List.hd loads) (List.tl loads)
  in
  Ir.Builder.vstore b ~data:[ acc ] ~addr:[ base ] ();
  Ir.Builder.finish b

let prune_gate () =
  let shapes =
    [
      (* Most transform regions start at the length bound and never
         search; this one starts a cycle above it. *)
      ("transform", Workload.Shapes.transform (Support.Rng.create 3) ~unroll:3 ~chain:6);
      ( "wide_accum",
        Workload.Shapes.wide_accum (Support.Rng.create 11) ~accumulators:24 ~rounds:6 );
      ("matmul_tile", Workload.Shapes.matmul_tile (Support.Rng.create 7) ~m:6 ~k:8);
    ]
  in
  (* Smaller colony than the compile default: the gate exercises the
     same code paths at a fraction of the wall time. *)
  let params = { Engine.Params.default with ants_per_iteration = 32; max_iterations = 8 } in
  let ctx = { Engine.Backend.null_ctx with Engine.Backend.params; seed = 5 } in
  let tight_rows =
    List.map
      (fun (name, items, tv) ->
        tight_row name (Ddg.Graph.build (producer_burst ~items)) 17
          ~mode:(Aco.Ant.Ilp_pass { target_vgpr = tv; target_sgpr = 4 }))
      [ ("burst16+tight", 16, 4); ("burst32+tight", 32, 6) ]
  in
  tight_rows
  @ List.map
    (fun (name, region) ->
      let rc = Engine.Region_ctx.of_region Machine.Occupancy.default region in
      let off = Engine.Two_pass.run Aco.Seq_aco.backend ctx rc in
      let on = Engine.Two_pass.run Aco.Seq_aco.prune_backend ctx rc in
      let same_schedule (a : Sched.Schedule.t) (b : Sched.Schedule.t) =
        a.Sched.Schedule.slots = b.Sched.Schedule.slots
        && a.Sched.Schedule.cycle_of = b.Sched.Schedule.cycle_of
      in
      let identical =
        same_schedule off.Engine.Types.schedule on.Engine.Types.schedule
        && off.Engine.Types.cost = on.Engine.Types.cost
        && off.Engine.Types.rp_target = on.Engine.Types.rp_target
        && same_schedule off.Engine.Types.pass2_initial on.Engine.Types.pass2_initial
        && off.Engine.Types.pass1.Engine.Types.best_costs
           = on.Engine.Types.pass1.Engine.Types.best_costs
        && off.Engine.Types.pass2.Engine.Types.best_costs
           = on.Engine.Types.pass2.Engine.Types.best_costs
      in
      let scored p = p.Engine.Types.scored_candidates in
      {
        pg_name = name;
        pg_identical = identical;
        pg_scored_off =
          scored off.Engine.Types.pass1 + scored off.Engine.Types.pass2;
        pg_scored_on = scored on.Engine.Types.pass1 + scored on.Engine.Types.pass2;
        pg_pruned =
          on.Engine.Types.pass1.Engine.Types.pruned_candidates
          + on.Engine.Types.pass2.Engine.Types.pruned_candidates;
      })
    shapes

let run () =
  print_endline "Micro-benchmarks (bechamel; monotonic clock, minor words):";
  let rows = measure () in
  List.iter
    (fun r ->
      Printf.printf "  %-28s %12.0f ns/run %12.1f mnr-words/run\n" r.name r.ns_per_run
        r.minor_words_per_run)
    rows;
  print_newline ();
  rows
