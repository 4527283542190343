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
