(* Printers that regenerate each table and figure of the paper's
   evaluation section from a compiled suite. *)

module T = Support.Tablefmt

type ctx = {
  report : Pipeline.Compile.suite_report;
  filters : Pipeline.Filters.config;
  config : Pipeline.Compile.config;
}

let category_label = Engine.Params.size_category_label

let table1 ctx =
  let t = Pipeline.Report.table1 ctx.filters ctx.report in
  print_string
    (T.render ~title:"TABLE 1 — BENCHMARK STATISTICS"
       ~header:[ "Stat"; "Value" ]
       [
         [ "Number of benchmarks"; T.int t.Pipeline.Report.num_benchmarks ];
         [ "Number of kernels"; T.int t.Pipeline.Report.num_kernels ];
         [ "Number of scheduling regions"; T.int t.Pipeline.Report.num_regions ];
         [ "Regions processed by ACO in pass 1"; T.int t.Pipeline.Report.pass1_regions ];
         [ "Regions processed by ACO in pass 2"; T.int t.Pipeline.Report.pass2_regions ];
         [ "Avg. processed region size in pass 1"; T.f2 t.Pipeline.Report.avg_pass1_size ];
         [ "Avg. processed region size in pass 2"; T.f2 t.Pipeline.Report.avg_pass2_size ];
         [ "Max. processed region size in pass 1"; T.int t.Pipeline.Report.max_pass1_size ];
         [ "Max. processed region size in pass 2"; T.int t.Pipeline.Report.max_pass2_size ];
       ]);
  print_newline ()

let table2 ctx =
  let t = Pipeline.Report.table2 ctx.filters ctx.report in
  print_string
    (T.render ~title:"TABLE 2 — IMPROVEMENT OF ACO RELATIVE TO AMD SCHEDULER"
       ~header:[ "Stat"; "Value" ]
       [
         [ "Regions processed by ACO in pass 1"; T.int t.Pipeline.Report.t2_pass1_regions ];
         [ "Regions processed by ACO in pass 2"; T.int t.Pipeline.Report.t2_pass2_regions ];
         [ "Overall occupancy increase"; T.pctf t.Pipeline.Report.overall_occupancy_increase_pct ];
         [ "Max. occupancy increase in any kernel"; T.pctf t.Pipeline.Report.max_occupancy_increase_pct ];
         [ "Overall schedule length reduction"; T.pctf t.Pipeline.Report.overall_length_reduction_pct ];
         [ "Max. schedule length reduction"; T.pctf t.Pipeline.Report.max_length_reduction_pct ];
       ]);
  print_newline ()

let table3 ~pass ~title ctx =
  let rows = Pipeline.Report.table3 ~pass ctx.filters ctx.report in
  let col f = List.map f rows in
  print_string
    (T.render ~title
       ~header:("Inst. count range" :: List.map (fun (r : Pipeline.Report.speedup_row) -> category_label r.Pipeline.Report.category) rows)
       [
         "Regions processed by ACO" :: col (fun r -> T.int r.Pipeline.Report.processed);
         "Comparable regions" :: col (fun r -> T.int r.Pipeline.Report.comparable);
         "Geometric mean speedup" :: col (fun r -> T.f2 r.Pipeline.Report.geomean);
         "Max. speedup" :: col (fun r -> T.f2 r.Pipeline.Report.max_speedup);
         "Min. speedup" :: col (fun r -> T.f2 r.Pipeline.Report.min_speedup);
       ]);
  print_newline ()

let table3a = table3 ~pass:`One ~title:"TABLE 3.a — PARALLEL SPEEDUP IN THE FIRST PASS"
let table3b = table3 ~pass:`Two ~title:"TABLE 3.b — PARALLEL SPEEDUP IN THE SECOND PASS"

let speedup_figure ~pass ~title ctx =
  let data = Pipeline.Report.speedups ~pass ctx.filters ctx.report in
  let edges = [| 0.0; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |] in
  let label i =
    if i = Array.length edges - 2 then Printf.sprintf ">=%.1fx" edges.(i)
    else Printf.sprintf "%.1f-%.1fx" edges.(i) edges.(i + 1)
  in
  List.iter
    (fun cat ->
      let xs = List.filter_map (fun (c, s) -> if c = cat then Some s else None) data in
      if xs <> [] then begin
        let h = Support.Stats.histogram ~edges xs in
        print_string
          (Support.Stats.render_histogram
             ~title:(Printf.sprintf "%s — regions of size %s (%d regions)" title (category_label cat) (List.length xs))
             ~label h)
      end)
    [ 0; 1; 2 ];
  print_newline ()

let fig2 = speedup_figure ~pass:`One ~title:"Fig. 2 — speedup distribution, pass 1"
let fig3 = speedup_figure ~pass:`Two ~title:"Fig. 3 — speedup distribution, pass 2"

let ablation_table ~title ~baseline ctx =
  let rows =
    Pipeline.Ablation.compare_opts ctx.config ctx.report ~baseline
      ~optimized:Gpusim.Config.opts_paper
  in
  let col f = List.map f rows in
  print_string
    (T.render ~title
       ~header:("Inst. count range" :: List.map (fun (r : Pipeline.Ablation.time_row) -> category_label r.Pipeline.Ablation.category) rows)
       [
         "Pass 1 overall improvement" :: col (fun r -> T.pctf r.Pipeline.Ablation.pass1_overall_pct);
         "Pass 1 max. improvement" :: col (fun r -> T.pctf r.Pipeline.Ablation.pass1_max_pct);
         "Pass 2 overall improvement" :: col (fun r -> T.pctf r.Pipeline.Ablation.pass2_overall_pct);
         "Pass 2 max. improvement" :: col (fun r -> T.pctf r.Pipeline.Ablation.pass2_max_pct);
       ]);
  print_newline ()

let table4a =
  ablation_table ~title:"TABLE 4.a — IMPROVEMENTS IN ACO TIME FROM MEMORY OPTIMIZATIONS"
    ~baseline:Gpusim.Config.opts_no_memory

let table4b =
  ablation_table ~title:"TABLE 4.b — IMPROVEMENTS IN ACO TIME FROM DIVERGENCE OPTIMIZATIONS"
    ~baseline:Gpusim.Config.opts_no_divergence

let table5 ctx =
  let t =
    Pipeline.Timing.compile_totals ~threshold:ctx.filters.Pipeline.Filters.cycle_threshold
      ctx.report
  in
  let sec ns = Printf.sprintf "%.0f" (ns /. 1e9) in
  let with_pct ns =
    Printf.sprintf "%s (%.1f%%)" (sec ns) (Pipeline.Timing.pct_increase t.Pipeline.Timing.base_ns ns)
  in
  print_string
    (T.render ~title:"TABLE 5 — TOTAL COMPILE TIMES (simulated seconds)"
       ~header:[ "Scheduler"; "Total Compile Time" ]
       [
         [ "Base AMD"; sec t.Pipeline.Timing.base_ns ];
         [ "Sequential ACO"; with_pct t.Pipeline.Timing.seq_ns ];
         [ "Parallel ACO"; with_pct t.Pipeline.Timing.par_ns ];
       ]);
  print_newline ()

let table6 ctx =
  let rows =
    Pipeline.Ablation.stall_fraction_sweep ctx.config ctx.report
      ~fractions:[ 0.25; 0.5; 0.75 ] ~min_region_size:100
  in
  let col f = List.map f rows in
  print_string
    (T.render ~title:"TABLE 6 — EXPERIMENTATION WITH OPTIONAL STALLS (regions >= 100)"
       ~header:
         ("% Blocks inserting optional stalls"
         :: List.map (fun (r : Pipeline.Ablation.stall_row) ->
                Printf.sprintf "%.0f%%" (r.Pipeline.Ablation.fraction *. 100.0))
              rows)
       [
         "% Increase in ACO Time" :: col (fun r -> T.pctf r.Pipeline.Ablation.aco_time_increase_pct);
         "% Improvement in schedule length"
         :: col (fun r -> T.pctf r.Pipeline.Ablation.length_improvement_pct);
         "Max. % improvement in schedule length"
         :: col (fun r -> T.pctf r.Pipeline.Ablation.max_length_improvement_pct);
       ]);
  print_newline ()

let fig4 ctx =
  let f = Pipeline.Report.fig4 ctx.filters ctx.report in
  print_endline "Fig. 4 — execution-time speedup of benchmarks (significant only)";
  if f.Pipeline.Report.rows = [] then print_endline "  (no significant differences)"
  else begin
    let width = 40 in
    let maxpct =
      List.fold_left (fun acc (_, p) -> Float.max acc (Float.abs p)) 1.0 f.Pipeline.Report.rows
    in
    List.iter
      (fun (name, pct) ->
        let bar = int_of_float (Float.abs pct /. maxpct *. float_of_int width) in
        Printf.printf "  %-36s %+7.1f%% %s\n" name pct (String.make bar '#'))
      f.Pipeline.Report.rows
  end;
  Printf.printf "  geometric-mean improvement: %.1f%%\n" f.Pipeline.Report.geomean_improvement_pct;
  Printf.printf "  benchmarks improved >=5%%: %d, >=10%%: %d\n" f.Pipeline.Report.improved_ge_5pct
    f.Pipeline.Report.improved_ge_10pct;
  Printf.printf "  max regression: %.1f%%\n\n" f.Pipeline.Report.max_regression_pct

let table7 ctx =
  let rows = Pipeline.Report.table7 ~thresholds:[ 3; 5; 10; 15; 21; 25 ] ctx.report in
  let col f = List.map f rows in
  print_string
    (T.render ~title:"TABLE 7 — EXPERIMENTATION WITH CYCLE-BASED FILTER"
       ~header:
         ("Cycles" :: List.map (fun (r : Pipeline.Report.table7_row) -> string_of_int r.Pipeline.Report.threshold) rows)
       [
         "Imps. >= 3%" :: col (fun r -> T.int r.Pipeline.Report.imps_ge_3);
         "Imps. >= 5%" :: col (fun r -> T.int r.Pipeline.Report.imps_ge_5);
         "Imps. >= 10%" :: col (fun r -> T.int r.Pipeline.Report.imps_ge_10);
         "Regs. >= 3%" :: col (fun r -> T.int r.Pipeline.Report.regs_ge_3);
         "Regs. >= 5%" :: col (fun r -> T.int r.Pipeline.Report.regs_ge_5);
         "Regs. >= 10%" :: col (fun r -> T.int r.Pipeline.Report.regs_ge_10);
         "Max. Reg." :: col (fun r -> T.pctf r.Pipeline.Report.max_regression);
       ]);
  print_newline ()

let ready_limit ctx =
  let rows = Pipeline.Ablation.ready_limit_experiment ctx.config ctx.report in
  print_string
    (T.render
       ~title:
         "EXTRA — READY-LIST LIMITING (Section V-B negative result; vs limiting off)"
       ~header:[ "Limiting mode"; "ACO time change"; "Schedule length change" ]
       (List.map
          (fun (r : Pipeline.Ablation.ready_limit_row) ->
            [
              r.Pipeline.Ablation.limiting;
              T.pctf r.Pipeline.Ablation.time_change_pct;
              T.pctf r.Pipeline.Ablation.quality_change_pct;
            ])
          rows));
  print_newline ()

let objective ctx =
  let rows = Pipeline.Ablation.objective_comparison ctx.config ctx.report in
  print_string
    (T.render
       ~title:
         "EXTRA — TWO-PASS vs WEIGHTED-SUM OBJECTIVE (Section II-A design choice; ACO-eligible regions)"
       ~header:
         [ "Objective"; "Regions at better occupancy"; "Total occupancy"; "Total length" ]
       (List.map
          (fun (r : Pipeline.Ablation.objective_row) ->
            [
              r.Pipeline.Ablation.objective;
              T.int r.Pipeline.Ablation.kernels_at_better_occupancy;
              T.int r.Pipeline.Ablation.total_occupancy;
              T.int r.Pipeline.Ablation.total_length;
            ])
          rows));
  print_newline ()

let faults ctx =
  (* Recompile the suite under a fault storm with finite compile budgets
     and print the degradation ledger. The product compile held in
     [ctx.report] is untouched; the sequential baseline is skipped (the
     ledger concerns the parallel driver). *)
  let base = ctx.config in
  let fault_config =
    {
      base with
      Pipeline.Compile.gpu =
        Gpusim.Config.with_faults base.Pipeline.Compile.gpu (Gpusim.Config.uniform_faults 0.10);
      robust =
        {
          Pipeline.Robust.default with
          Pipeline.Robust.compile_budget_ns = Pipeline.Robust.budgets_of_ms 2.0;
        };
      run_sequential = false;
    }
  in
  let report = Pipeline.Compile.run_suite fault_config ctx.report.Pipeline.Compile.suite in
  let rows =
    Pipeline.Report.degradation_table report @ Pipeline.Report.degradation_total report
  in
  let label (r : Pipeline.Report.degradation_row) =
    r.Pipeline.Report.d_backend ^ "/"
    ^
    if r.Pipeline.Report.d_category < 0 then "all" else category_label r.Pipeline.Report.d_category
  in
  let col f = List.map (fun (r : Pipeline.Report.degradation_row) -> f r) rows in
  let tally f = col (fun r -> T.int (f r.Pipeline.Report.d_tally)) in
  print_string
    (T.render
       ~title:
         "FAULTS — DEGRADATION LEDGER (10% lane-fault rate, 2/4/8 ms budgets)"
       ~header:("Stat" :: List.map label rows)
       [
         "Regions compiled" :: tally (fun t -> t.Pipeline.Robust.regions);
         "Clean" :: tally (fun t -> t.Pipeline.Robust.clean);
         "Recovered via retries" :: tally (fun t -> t.Pipeline.Robust.retried);
         "Budget exceeded" :: tally (fun t -> t.Pipeline.Robust.budget_exceeded);
         "Heuristic fallback" :: tally (fun t -> t.Pipeline.Robust.faulted_fallback);
         (* only the serve loop sheds; a direct compile shows zeros here,
            which is itself the check that the driver never sheds *)
         "Shed (overload)" :: tally (fun t -> t.Pipeline.Robust.shed_overload);
         "Total retries" :: tally (fun t -> t.Pipeline.Robust.total_retries);
         "Faults injected"
         :: col (fun r -> T.int (Engine.Types.fault_counts_total r.Pipeline.Report.d_faults));
       ]);
  print_newline ()

let perf ctx =
  let rows =
    Pipeline.Report.perf_table ctx.report @ [ Pipeline.Report.perf_total ctx.report ]
  in
  let label (r : Pipeline.Report.perf_row) =
    if r.Pipeline.Report.p_category < 0 then "all" else category_label r.Pipeline.Report.p_category
  in
  let col f = List.map (fun (r : Pipeline.Report.perf_row) -> f r) rows in
  print_string
    (T.render
       ~title:"PERF — ARENA ALLOCATION DISCIPLINE (parallel passes, host-side counters)"
       ~header:("Stat" :: List.map label rows)
       [
         "Regions compiled" :: col (fun r -> T.int r.Pipeline.Report.p_regions);
         "Lockstep steps" :: col (fun r -> T.int r.Pipeline.Report.p_lockstep_steps);
         "Ant steps" :: col (fun r -> T.int r.Pipeline.Report.p_ant_steps);
         "Selection steps" :: col (fun r -> T.int r.Pipeline.Report.p_selections);
         "Candidates scored" :: col (fun r -> T.int r.Pipeline.Report.p_scored_candidates);
         "Minor words allocated" :: col (fun r -> Printf.sprintf "%.0f" r.Pipeline.Report.p_minor_words);
         "Minor words / ant step" :: col (fun r -> T.f2 r.Pipeline.Report.p_words_per_ant_step);
       ]);
  print_newline ()

(* --- MMAS vs AS convergence over hot regions ----------------------- *)

(* Stagnation escape: a plateau of at least [limit] consecutive equal
   best-so-far entries followed by a strict improvement — the signature
   an MMAS restart leaves in the driver's convergence series (the
   restart fires after [limit] stagnant iterations; the reseeded table
   then finds something better). *)
let escaped ~limit series =
  let n = Array.length series in
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < n do
    let j = ref (!i + 1) in
    while !j < n && series.(!j) = series.(!i) do
      incr j
    done;
    if !j < n && !j - !i >= limit && series.(!j) < series.(!i) then found := true;
    i := !j
  done;
  !found

type mmas_row = {
  mv_name : string;
  mv_n : int;
  mv_winner : string;
  mv_seq_occ : int;
  mv_mmas_occ : int;
  mv_seq_len : int;
  mv_mmas_len : int;
  mv_seq_work : int;  (* ant work of both passes *)
  mv_mmas_work : int;
  mv_restarts : int;
  mv_escaped : bool;
  mv_seq_p1 : int array;
  mv_seq_p2 : int array;
  mv_mmas_p1 : int array;
  mv_mmas_p2 : int array;
}

let hot_regions (suite : Workload.Suite.t) =
  List.map
    (fun (k : Workload.Suite.kernel) ->
      let i =
        max 0 (min (List.length k.Workload.Suite.regions - 1) k.Workload.Suite.hot_index)
      in
      (k.Workload.Suite.kernel_name ^ "/hot", List.nth k.Workload.Suite.regions i))
    suite.Workload.Suite.kernels

let mmas_rows config regions =
  let race_config =
    {
      config with
      Pipeline.Compile.dispatch = Engine.Dispatch.Race [ "seq"; "mmas" ];
      run_sequential = false;
    }
  in
  List.filter_map
    (fun (name, region) ->
      (* Fresh metrics per region: in a seq,mmas race only the MMAS
         policy meters restarts, so the counter attributes cleanly. *)
      let metrics = Obs.Metrics.create () in
      let r = Pipeline.Compile.run_region race_config ~metrics ~name region in
      match
        (Pipeline.Compile.find_run r "seq", Pipeline.Compile.find_run r "mmas")
      with
      | Some seq, Some mmas ->
          let cost (run : Pipeline.Compile.backend_run) =
            run.Pipeline.Compile.result.Engine.Types.cost
          in
          let series (run : Pipeline.Compile.backend_run) pass =
            (pass run.Pipeline.Compile.result).Engine.Types.best_costs
          in
          let p1 (res : Engine.Types.result) = res.Engine.Types.pass1 in
          let p2 (res : Engine.Types.result) = res.Engine.Types.pass2 in
          let work (run : Pipeline.Compile.backend_run) =
            let res = run.Pipeline.Compile.result in
            (p1 res).Engine.Types.work + (p2 res).Engine.Types.work
          in
          let restarts =
            match Obs.Metrics.get metrics "aco.mmas.restarts" with
            | Some m -> int_of_float (Obs.Metrics.value m)
            | None -> 0
          in
          let limit =
            Aco.Pheromone_policy.mmas_stagnation_limit ~n:r.Pipeline.Compile.n
          in
          Some
            {
              mv_name = name;
              mv_n = r.Pipeline.Compile.n;
              mv_winner = r.Pipeline.Compile.product_backend;
              mv_seq_occ = (cost seq).Sched.Cost.rp.Sched.Cost.occupancy;
              mv_mmas_occ = (cost mmas).Sched.Cost.rp.Sched.Cost.occupancy;
              mv_seq_len = (cost seq).Sched.Cost.length;
              mv_mmas_len = (cost mmas).Sched.Cost.length;
              mv_seq_work = work seq;
              mv_mmas_work = work mmas;
              mv_restarts = restarts;
              mv_escaped =
                restarts > 0
                && (escaped ~limit (series mmas p1) || escaped ~limit (series mmas p2));
              mv_seq_p1 = series seq p1;
              mv_seq_p2 = series seq p2;
              mv_mmas_p1 = series mmas p1;
              mv_mmas_p2 = series mmas p2;
            }
      | _ -> None)
    regions

type mmas_summary = {
  ms_regions : int;
  ms_mmas_wins : int;
  ms_strict_len_wins : int;
  ms_restarts : int;
  ms_escapes : int;
  ms_seq_total_length : int;
  ms_mmas_total_length : int;
  ms_seq_total_work : int;
  ms_mmas_total_work : int;
}

let summarize_mmas rows =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  {
    ms_regions = List.length rows;
    ms_mmas_wins = sum (fun r -> if String.equal r.mv_winner "mmas" then 1 else 0);
    ms_strict_len_wins =
      sum (fun r ->
          if
            r.mv_mmas_occ > r.mv_seq_occ
            || (r.mv_mmas_occ = r.mv_seq_occ && r.mv_mmas_len < r.mv_seq_len)
          then 1
          else 0);
    ms_restarts = sum (fun r -> r.mv_restarts);
    ms_escapes = sum (fun r -> if r.mv_escaped then 1 else 0);
    ms_seq_total_length = sum (fun r -> r.mv_seq_len);
    ms_mmas_total_length = sum (fun r -> r.mv_mmas_len);
    ms_seq_total_work = sum (fun r -> r.mv_seq_work);
    ms_mmas_total_work = sum (fun r -> r.mv_mmas_work);
  }

(* The deterministic fixture `bench check` diffs against the committed
   BENCH_backends.json: always the same regions and race, independent of
   the scale the tables above ran at. The regions are generator shapes
   whose heuristic schedule the length and RP bounds leave open, so both
   colonies search them — pass 1 on the gather tile, pass 2 on the rest.
   The suite's hot regions do not serve: the length bound proves seven
   of the eight test-scale ones optimal before any search. *)
let mmas_check_config () =
  let c = Pipeline.Compile.make_config ~gpu:Gpusim.Config.bench () in
  { c with Pipeline.Compile.run_sequential = false }

let mmas_check_regions () =
  let rng = Support.Rng.create in
  Workload.Shapes.
    [
      ("reduction/items=24", reduction (rng 1) ~items:24);
      ("stencil/outputs=6,radius=2", stencil (rng 1) ~outputs:6 ~radius:2);
      ("matmul/m=4,k=4", matmul_tile (rng 1) ~m:4 ~k:4);
      ("matmul/m=5,k=4", matmul_tile (rng 4) ~m:5 ~k:4);
      ("sort/items=8", sort_pass (rng 5) ~items:8);
      ("gather/lanes=24,chain=1", gather_compute (rng 1) ~lanes:24 ~chain:1);
      ("wide_accum/accumulators=6,rounds=4", wide_accum (rng 1) ~accumulators:6 ~rounds:4);
      ("wide_accum/accumulators=32,rounds=3", wide_accum (rng 1) ~accumulators:32 ~rounds:3);
    ]

let mmas_check_rows () = mmas_rows (mmas_check_config ()) (mmas_check_regions ())

let write_backends_json rows =
  let file = "BENCH_backends.json" in
  let s = summarize_mmas rows in
  let oc = open_out file in
  let buf = Buffer.create 4096 in
  let series a =
    "[" ^ String.concat ", " (List.map string_of_int (Array.to_list a)) ^ "]"
  in
  Buffer.add_string buf "{\n  \"fixture\": \"open shapes\",\n  \"race\": [\"seq\", \"mmas\"],\n";
  Buffer.add_string buf "  \"regions\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"n\": %d, \"winner\": %S, \"seq_occ\": %d, \
            \"mmas_occ\": %d, \"seq_len\": %d, \"mmas_len\": %d, \"restarts\": %d, \
            \"escaped\": %b,\n\
           \     \"seq_p1\": %s, \"mmas_p1\": %s,\n\
           \     \"seq_p2\": %s, \"mmas_p2\": %s}%s\n"
           r.mv_name r.mv_n r.mv_winner r.mv_seq_occ r.mv_mmas_occ r.mv_seq_len
           r.mv_mmas_len r.mv_restarts r.mv_escaped (series r.mv_seq_p1)
           (series r.mv_mmas_p1) (series r.mv_seq_p2) (series r.mv_mmas_p2)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n  \"summary\": {\n";
  Buffer.add_string buf (Printf.sprintf "    \"regions\": %d,\n" s.ms_regions);
  Buffer.add_string buf (Printf.sprintf "    \"mmas_wins\": %d,\n" s.ms_mmas_wins);
  Buffer.add_string buf
    (Printf.sprintf "    \"mmas_strict_len_wins\": %d,\n" s.ms_strict_len_wins);
  Buffer.add_string buf (Printf.sprintf "    \"restarts\": %d,\n" s.ms_restarts);
  Buffer.add_string buf (Printf.sprintf "    \"escapes\": %d,\n" s.ms_escapes);
  Buffer.add_string buf
    (Printf.sprintf "    \"seq_total_length\": %d,\n" s.ms_seq_total_length);
  Buffer.add_string buf
    (Printf.sprintf "    \"mmas_total_length\": %d,\n" s.ms_mmas_total_length);
  Buffer.add_string buf (Printf.sprintf "    \"seq_total_work\": %d,\n" s.ms_seq_total_work);
  Buffer.add_string buf (Printf.sprintf "    \"mmas_total_work\": %d\n" s.ms_mmas_total_work);
  Buffer.add_string buf "  }\n}\n";
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.eprintf "# wrote %s\n%!" file

let mmas_convergence ctx =
  let rows = mmas_rows ctx.config (hot_regions ctx.report.Pipeline.Compile.suite) in
  let s = summarize_mmas rows in
  print_string
    (T.render
       ~title:
         "BACKENDS — MMAS vs AS CONVERGENCE OVER HOT REGIONS (race seq,mmas; \
          occupancy first, then length)"
       ~header:
         [ "Region"; "n"; "Winner"; "AS occ"; "MMAS occ"; "AS len"; "MMAS len";
           "Restarts"; "Escaped" ]
       (List.map
          (fun r ->
            [
              r.mv_name;
              T.int r.mv_n;
              r.mv_winner;
              T.int r.mv_seq_occ;
              T.int r.mv_mmas_occ;
              T.int r.mv_seq_len;
              T.int r.mv_mmas_len;
              T.int r.mv_restarts;
              (if r.mv_escaped then "yes" else "no");
            ])
          rows));
  Printf.printf
    "  mmas: won %d/%d hot region(s) (%d strictly better), %d restart(s), %d \
     stagnation escape(s)\n\n"
    s.ms_mmas_wins s.ms_regions s.ms_strict_len_wins s.ms_restarts s.ms_escapes;
  (* The committed regression fixture is small and fixed so `bench
     check` can re-measure it cheaply and deterministically. *)
  write_backends_json (mmas_check_rows ())

let backends ctx =
  (* Race every product backend over each kernel's hot region and compare
     the schedules they ship: one compile per region with the race
     dispatch, so all backends start from the same setup and the best
     product wins the region (occupancy first, then length). *)
  let names = [ "seq"; "par"; "weighted"; "mmas"; "mmas-spill" ] in
  let race_config =
    {
      ctx.config with
      Pipeline.Compile.dispatch = Engine.Dispatch.Race names;
      run_sequential = false;
    }
  in
  let reports =
    List.map
      (fun (k : Workload.Suite.kernel) ->
        let i =
          max 0 (min (List.length k.Workload.Suite.regions - 1) k.Workload.Suite.hot_index)
        in
        Pipeline.Compile.run_region race_config
          ~name:(k.Workload.Suite.kernel_name ^ "/hot")
          (List.nth k.Workload.Suite.regions i))
      ctx.report.Pipeline.Compile.suite.Workload.Suite.kernels
  in
  let row name =
    let runs = List.filter_map (fun r -> Pipeline.Compile.find_run r name) reports in
    let wins =
      List.length
        (List.filter
           (fun (r : Pipeline.Compile.region_report) ->
             String.equal r.Pipeline.Compile.product_backend name)
           reports)
    in
    let sum f = List.fold_left (fun acc run -> acc + f run) 0 runs in
    let cost (run : Pipeline.Compile.backend_run) = run.Pipeline.Compile.result.Engine.Types.cost in
    let degraded =
      sum (fun run ->
          if run.Pipeline.Compile.run_degradation <> Pipeline.Robust.Clean then 1 else 0)
    in
    let time_ms =
      List.fold_left
        (fun acc (run : Pipeline.Compile.backend_run) ->
          acc +. run.Pipeline.Compile.run_pass1_time_ns +. run.Pipeline.Compile.run_pass2_time_ns)
        0.0 runs
      /. 1e6
    in
    [
      name;
      T.int (List.length runs);
      T.int wins;
      T.int (sum (fun run -> (cost run).Sched.Cost.rp.Sched.Cost.occupancy));
      T.int (sum (fun run -> (cost run).Sched.Cost.length));
      T.int degraded;
      Printf.sprintf "%.2f" time_ms;
    ]
  in
  print_string
    (T.render
       ~title:
         "BACKENDS — PRODUCT COMPARISON OVER HOT REGIONS (race dispatch, best schedule \
          ships)"
       ~header:
         [ "Backend"; "Regions"; "Regions won"; "Total occupancy"; "Total length";
           "Degraded"; "Modeled time (ms)" ]
       (List.map row names));
  print_newline ();
  mmas_convergence ctx

let convergence ctx =
  (* Convergence telemetry of the product compile: per-pass best-cost
     trajectories. Rows that improved past their seed schedule come
     first; the listing is capped so a bench-scale suite stays legible. *)
  let rows = Pipeline.Report.convergence_table ctx.report in
  let live = List.filter (fun (r : Pipeline.Report.convergence_row) -> r.Pipeline.Report.c_iterations > 0) rows in
  let improved, flat =
    List.partition
      (fun (r : Pipeline.Report.convergence_row) -> r.Pipeline.Report.c_final < r.Pipeline.Report.c_initial)
      live
  in
  let cap = 20 in
  let take n xs =
    let rec go n = function x :: tl when n > 0 -> x :: go (n - 1) tl | _ -> [] in
    go n xs
  in
  let shown = take cap (improved @ flat) in
  print_string (Pipeline.Report.render_convergence shown);
  Printf.printf
    "  convergence: %d ACO pass runs, %d improved on their initial schedule%s\n\n"
    (List.length live) (List.length improved)
    (if List.length live > cap then Printf.sprintf " (showing %d)" cap else "")

let all =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", (fun ctx -> table3a ctx; table3b ctx));
    ("fig2", fig2);
    ("fig3", fig3);
    ("table4a", table4a);
    ("table4b", table4b);
    ("table5", table5);
    ("table6", table6);
    ("fig4", fig4);
    ("table7", table7);
    ("ready-limit", ready_limit);
    ("objective", objective);
    ("faults", faults);
    ("perf", perf);
    ("backends", backends);
    ("convergence", convergence);
  ]
