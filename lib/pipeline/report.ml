type table1 = {
  num_benchmarks : int;
  num_kernels : int;
  num_regions : int;
  pass1_regions : int;
  pass2_regions : int;
  avg_pass1_size : float;
  avg_pass2_size : float;
  max_pass1_size : int;
  max_pass2_size : int;
}

let sensitive_benchmarks (report : Compile.suite_report) =
  List.filter (Perf_model.sensitive report) report.Compile.suite.Workload.Suite.benchmarks

(* Regions seen by the build: one occurrence per benchmark instance, as a
   template-instantiating build schedules shared kernels repeatedly. *)
let instance_regions report benchmarks =
  List.concat_map
    (fun b -> (Compile.find_kernel report b).Compile.regions)
    benchmarks

let pass1_kept filters (r : Compile.region_report) =
  r.Compile.pass1_invoked && Filters.region_kept filters r

let pass2_kept filters (r : Compile.region_report) =
  r.Compile.pass2_invoked && Filters.region_kept filters r

let table1 filters report =
  let benchmarks = sensitive_benchmarks report in
  let regions = instance_regions report benchmarks in
  let unique_kernels =
    List.sort_uniq String.compare
      (List.map
         (fun (b : Workload.Suite.benchmark) -> b.Workload.Suite.kernel.Workload.Suite.kernel_name)
         benchmarks)
  in
  let p1 = List.filter (pass1_kept filters) regions in
  let p2 = List.filter (pass2_kept filters) regions in
  let sizes rs = List.map (fun (r : Compile.region_report) -> r.Compile.n) rs in
  let avg = function
    | [] -> 0.0
    | xs -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
  in
  {
    num_benchmarks = List.length benchmarks;
    num_kernels = List.length unique_kernels;
    num_regions = List.length regions;
    pass1_regions = List.length p1;
    pass2_regions = List.length p2;
    avg_pass1_size = avg (sizes p1);
    avg_pass2_size = avg (sizes p2);
    max_pass1_size = List.fold_left max 0 (sizes p1);
    max_pass2_size = List.fold_left max 0 (sizes p2);
  }

type table2 = {
  t2_pass1_regions : int;
  t2_pass2_regions : int;
  overall_occupancy_increase_pct : float;
  max_occupancy_increase_pct : float;
  overall_length_reduction_pct : float;
  max_length_reduction_pct : float;
}

let table2 filters report =
  let benchmarks = sensitive_benchmarks report in
  let regions = instance_regions report benchmarks in
  let p1 = List.filter (pass1_kept filters) regions in
  let p2 = List.filter (pass2_kept filters) regions in
  (* Occupancy is a kernel-level property; aggregate over the kernels of
     the included benchmarks (each kernel once). *)
  let kernel_reports =
    List.sort_uniq
      (fun (a : Compile.kernel_report) b ->
        String.compare a.Compile.kernel.Workload.Suite.kernel_name
          b.Compile.kernel.Workload.Suite.kernel_name)
      (List.map (Compile.find_kernel report) benchmarks)
  in
  let occ_pairs =
    List.map
      (fun kr ->
        ( Perf_model.kernel_occupancy Perf_model.Heuristic kr,
          Perf_model.kernel_occupancy (Perf_model.Final filters) kr ))
      kernel_reports
  in
  let sum_h = List.fold_left (fun acc (h, _) -> acc + h) 0 occ_pairs in
  let sum_f = List.fold_left (fun acc (_, f) -> acc + f) 0 occ_pairs in
  let max_occ_pct =
    List.fold_left
      (fun acc (h, f) -> Float.max acc (float_of_int (f - h) /. float_of_int h *. 100.0))
      0.0 occ_pairs
  in
  (* Length is a region-level property over ACO-processed regions. *)
  let processed = List.sort_uniq compare (p1 @ p2) in
  let len_pairs =
    List.map
      (fun (r : Compile.region_report) ->
        ( r.Compile.heuristic_cost.Sched.Cost.length,
          (Perf_model.final_for filters r).Perf_model.cost.Sched.Cost.length ))
      processed
  in
  let sum_lh = List.fold_left (fun acc (h, _) -> acc + h) 0 len_pairs in
  let sum_lf = List.fold_left (fun acc (_, f) -> acc + f) 0 len_pairs in
  let max_len_pct =
    List.fold_left
      (fun acc (h, f) -> Float.max acc (float_of_int (h - f) /. float_of_int h *. 100.0))
      0.0 len_pairs
  in
  {
    t2_pass1_regions = List.length p1;
    t2_pass2_regions = List.length p2;
    overall_occupancy_increase_pct =
      float_of_int (sum_f - sum_h) /. float_of_int (max sum_h 1) *. 100.0;
    max_occupancy_increase_pct = max_occ_pct;
    overall_length_reduction_pct =
      float_of_int (sum_lh - sum_lf) /. float_of_int (max sum_lh 1) *. 100.0;
    max_length_reduction_pct = max_len_pct;
  }

type speedup_row = {
  category : int;
  processed : int;
  comparable : int;
  geomean : float;
  max_speedup : float;
  min_speedup : float;
}

(* Sequential over parallel simulated time of one pass, where both
   backends ran it for the same number of iterations. *)
let region_speedup ~pass (r : Compile.region_report) =
  let of_pass (run : Compile.backend_run) =
    match pass with
    | `One -> (run.Compile.result.Engine.Types.pass1, run.Compile.run_pass1_time_ns)
    | `Two -> (run.Compile.result.Engine.Types.pass2, run.Compile.run_pass2_time_ns)
  in
  let invoked =
    match pass with `One -> r.Compile.pass1_invoked | `Two -> r.Compile.pass2_invoked
  in
  match (Compile.find_run r "seq", Compile.find_run r "par") with
  | Some seq, Some par ->
      let s, seq_ns = of_pass seq and p, par_ns = of_pass par in
      if
        s.Engine.Types.invoked && invoked
        && s.Engine.Types.iterations = p.Engine.Types.iterations
        && par_ns > 0.0
      then Some (seq_ns /. par_ns)
      else None
  | _ -> None

let processed_for_pass ~pass filters (r : Compile.region_report) =
  match pass with `One -> pass1_kept filters r | `Two -> pass2_kept filters r

let speedups ~pass filters report =
  let benchmarks = sensitive_benchmarks report in
  let regions = instance_regions report benchmarks in
  List.filter_map
    (fun (r : Compile.region_report) ->
      if processed_for_pass ~pass filters r then
        Option.map (fun s -> (r.Compile.size_category, s)) (region_speedup ~pass r)
      else None)
    regions

let table3 ~pass filters report =
  let benchmarks = sensitive_benchmarks report in
  let regions = instance_regions report benchmarks in
  List.map
    (fun category ->
      let in_cat =
        List.filter (fun (r : Compile.region_report) -> r.Compile.size_category = category) regions
      in
      let processed = List.filter (processed_for_pass ~pass filters) in_cat in
      let ratios = List.filter_map (region_speedup ~pass) processed in
      match ratios with
      | [] ->
          {
            category;
            processed = List.length processed;
            comparable = 0;
            geomean = 0.0;
            max_speedup = 0.0;
            min_speedup = 0.0;
          }
      | _ :: _ ->
          let lo, hi = Support.Stats.min_max ratios in
          {
            category;
            processed = List.length processed;
            comparable = List.length ratios;
            geomean = Support.Stats.geomean ratios;
            max_speedup = hi;
            min_speedup = lo;
          })
    [ 0; 1; 2 ]

type fig4 = {
  rows : (string * float) list;
  geomean_improvement_pct : float;
  improved_ge_5pct : int;
  improved_ge_10pct : int;
  max_regression_pct : float;
}

let fig4 filters report =
  let benchmarks = sensitive_benchmarks report in
  let all =
    List.map
      (fun (b : Workload.Suite.benchmark) ->
        (b.Workload.Suite.bench_name, Perf_model.speedup_pct filters report b))
      benchmarks
  in
  let significant =
    List.filter (fun (_, pct) -> Float.abs pct >= 1.0) all
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let improvements = List.filter (fun (_, pct) -> pct >= 1.0) significant in
  let geo =
    match improvements with
    | [] -> 0.0
    | _ :: _ ->
        (Support.Stats.geomean (List.map (fun (_, pct) -> 1.0 +. (pct /. 100.0)) improvements)
        -. 1.0)
        *. 100.0
  in
  let max_reg =
    List.fold_left (fun acc (_, pct) -> Float.max acc (-.pct)) 0.0 all
  in
  {
    rows = significant;
    geomean_improvement_pct = geo;
    improved_ge_5pct = List.length (List.filter (fun (_, p) -> p >= 5.0) all);
    improved_ge_10pct = List.length (List.filter (fun (_, p) -> p >= 10.0) all);
    max_regression_pct = max_reg;
  }

type table7_row = {
  threshold : int;
  imps_ge_3 : int;
  imps_ge_5 : int;
  imps_ge_10 : int;
  regs_ge_3 : int;
  regs_ge_5 : int;
  regs_ge_10 : int;
  max_regression : float;
}

let table7 ~thresholds report =
  let benchmarks = sensitive_benchmarks report in
  List.map
    (fun threshold ->
      let filters = { Filters.default with Filters.cycle_threshold = threshold } in
      let pcts = List.map (Perf_model.speedup_pct filters report) benchmarks in
      let count p = List.length (List.filter p pcts) in
      {
        threshold;
        imps_ge_3 = count (fun x -> x >= 3.0);
        imps_ge_5 = count (fun x -> x >= 5.0);
        imps_ge_10 = count (fun x -> x >= 10.0);
        regs_ge_3 = count (fun x -> x <= -3.0);
        regs_ge_5 = count (fun x -> x <= -5.0);
        regs_ge_10 = count (fun x -> x <= -10.0);
        max_regression = List.fold_left (fun acc x -> Float.max acc (-.x)) 0.0 pcts;
      })
    thresholds

type degradation_row = {
  d_backend : string;
  d_category : int;
  d_tally : Robust.tally;
  d_faults : Engine.Types.fault_counts;
}

(* The ledger is about the compile itself, so it aggregates over compiled
   kernels (each compiled once), not per-benchmark instances. *)
let compiled_regions (report : Compile.suite_report) =
  List.concat_map (fun (kr : Compile.kernel_report) -> kr.Compile.regions) report.Compile.kernels

(* Backends in first-encounter order over the compiled regions, so the
   dispatch's product backends lead and ride-along baselines follow. *)
let degradation_backends (report : Compile.suite_report) =
  List.fold_left
    (fun acc (r : Compile.region_report) ->
      List.fold_left
        (fun acc (run : Compile.backend_run) ->
          if List.mem run.Compile.backend acc then acc else acc @ [ run.Compile.backend ])
        acc r.Compile.runs)
    [] (compiled_regions report)

(* Each backend is attributed its own run's ledger entry: a region where
   the parallel backend degraded but the sequential baseline finished
   clean tallies under "par" only. *)
let degradation_row_of ~backend regions cat =
  let runs =
    List.filter_map (fun (r : Compile.region_report) -> Compile.find_run r backend) regions
  in
  {
    d_backend = backend;
    d_category = cat;
    d_tally =
      Robust.tally_of_list
        (List.map (fun (run : Compile.backend_run) -> run.Compile.run_degradation) runs);
    d_faults =
      List.fold_left
        (fun acc (run : Compile.backend_run) ->
          Engine.Types.fault_counts_add acc run.Compile.run_fault_counts)
        Engine.Types.fault_counts_zero runs;
  }

let degradation_table report =
  let regions = compiled_regions report in
  List.concat_map
    (fun backend ->
      List.map
        (fun cat ->
          degradation_row_of ~backend
            (List.filter
               (fun (r : Compile.region_report) -> r.Compile.size_category = cat)
               regions)
            cat)
        [ 0; 1; 2 ])
    (degradation_backends report)

let degradation_total report =
  let regions = compiled_regions report in
  List.map
    (fun backend -> degradation_row_of ~backend regions (-1))
    (degradation_backends report)

type perf_row = {
  p_category : int;
  p_regions : int;
  p_lockstep_steps : int;
  p_ant_steps : int;
  p_selections : int;
  p_scored_candidates : int;
  p_minor_words : float;
  p_words_per_ant_step : float;
}

(* Allocation-discipline counters of the parallel driver, both passes
   summed: how many construction steps the colonies executed and how
   much OCaml minor-heap allocation they cost. The arena refactor's
   budget is minor words per ant step. *)
let perf_row_of regions cat =
  let passes =
    List.concat_map
      (fun (r : Compile.region_report) ->
        match Compile.find_run r "par" with
        | Some run ->
            [ run.Compile.result.Engine.Types.pass1; run.Compile.result.Engine.Types.pass2 ]
        | None -> [])
      regions
  in
  let add f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let addf f = List.fold_left (fun acc p -> acc +. f p) 0.0 passes in
  let steps = add (fun (p : Engine.Types.pass_stats) -> p.Engine.Types.ant_steps) in
  let words = addf (fun (p : Engine.Types.pass_stats) -> p.Engine.Types.minor_words) in
  {
    p_category = cat;
    p_regions = List.length regions;
    p_lockstep_steps =
      add (fun (p : Engine.Types.pass_stats) -> p.Engine.Types.lockstep_steps);
    p_ant_steps = steps;
    p_selections = add (fun (p : Engine.Types.pass_stats) -> p.Engine.Types.selections);
    p_scored_candidates =
      add (fun (p : Engine.Types.pass_stats) -> p.Engine.Types.scored_candidates);
    p_minor_words = words;
    p_words_per_ant_step = (if steps = 0 then 0.0 else words /. float_of_int steps);
  }

let perf_table report =
  let regions = compiled_regions report in
  List.map
    (fun cat ->
      perf_row_of
        (List.filter (fun (r : Compile.region_report) -> r.Compile.size_category = cat) regions)
        cat)
    [ 0; 1; 2 ]

let perf_total report = perf_row_of (compiled_regions report) (-1)

(* --- convergence telemetry ---------------------------------------------- *)

type convergence_row = {
  c_region : string;
  c_backend : string;
  c_pass : string;
  c_iterations : int;
  c_retries : int;
  c_initial : int;
  c_final : int;
  c_first_improvement : int;
  c_series : int array;
}

let convergence_row ~region ~backend ~pass ~retries (series : int array) =
  let len = Array.length series in
  if len = 0 then None
  else begin
    let first = ref 0 in
    (try
       for k = 1 to len - 1 do
         if series.(k) < series.(0) then begin
           first := k;
           raise Exit
         end
       done
     with Exit -> ());
    Some
      {
        c_region = region;
        c_backend = backend;
        c_pass = pass;
        c_iterations = len - 1;
        c_retries = retries;
        c_initial = series.(0);
        c_final = series.(len - 1);
        c_first_improvement = !first;
        c_series = series;
      }
  end

let convergence_rows_of_region (r : Compile.region_report) =
  let name = r.Compile.region_name in
  List.concat_map
    (fun (run : Compile.backend_run) ->
      let of_pass pass (p : Engine.Types.pass_stats) =
        convergence_row ~region:name ~backend:run.Compile.backend ~pass
          ~retries:p.Engine.Types.retries p.Engine.Types.best_costs
      in
      List.filter_map Fun.id
        [
          of_pass "pass1" run.Compile.result.Engine.Types.pass1;
          of_pass "pass2" run.Compile.result.Engine.Types.pass2;
        ])
    r.Compile.runs

let convergence_table report =
  List.concat_map convergence_rows_of_region (compiled_regions report)

(* Compact rendering of a cost series: distinct plateaus joined by ">",
   each as cost(xrepeat), so "33>31(x2)>30(x5)" reads as one improvement
   at iteration 1 and another at 3 that held for the last five. *)
let series_to_string (series : int array) =
  let buf = Buffer.create 64 in
  let n = Array.length series in
  let i = ref 0 in
  while !i < n do
    let v = series.(!i) in
    let j = ref !i in
    while !j + 1 < n && series.(!j + 1) = v do
      incr j
    done;
    if !i > 0 then Buffer.add_char buf '>';
    Buffer.add_string buf (string_of_int v);
    let run = !j - !i + 1 in
    if run > 1 then Buffer.add_string buf (Printf.sprintf "(x%d)" run);
    i := !j + 1
  done;
  Buffer.contents buf

let render_convergence rows =
  let improvement r =
    if r.c_initial = 0 then 0.0
    else float_of_int (r.c_initial - r.c_final) /. float_of_int r.c_initial *. 100.0
  in
  Support.Tablefmt.render ~title:"Convergence (best cost per iteration)"
    ~header:
      [ "region"; "backend"; "pass"; "iters"; "retries"; "initial"; "final"; "gain";
        "first imp"; "series" ]
    ~aligns:
      Support.Tablefmt.[ Left; Left; Left; Right; Right; Right; Right; Right; Right; Left ]
    (List.map
       (fun r ->
         [
           r.c_region;
           r.c_backend;
           r.c_pass;
           string_of_int r.c_iterations;
           string_of_int r.c_retries;
           string_of_int r.c_initial;
           string_of_int r.c_final;
           Support.Tablefmt.pctf (improvement r);
           (if r.c_first_improvement = 0 then "-" else string_of_int r.c_first_improvement);
           series_to_string r.c_series;
         ])
       rows)
