(* bench check: the regression sentinel. Compares a fresh measurement
   of the cheap, stable gates against the committed BENCH_*.json history
   and exits nonzero on regression, so CI catches a performance slide in
   the same run that introduced it.

   Two tolerance classes, because the series are not equally noisy:

   - deterministic series (allocation per ant step or per analysed
     region — a count, not a time) must stay within DET_TOLERANCE of the
     committed value;
   - wall-clock series (ns per iteration, cycles per scheduled
     instruction) get WALL_TOLERANCE, generous enough
     that a cold CI container does not cry wolf but tight enough that a
     real algorithmic regression (the kind that costs an order of
     magnitude) still trips.

   Ceilings recorded in the history files (alloc ceiling, obs ceiling)
   are re-asserted against the fresh run too: the committed file is the
   contract, the fresh run the evidence. Of BENCH_compile.json only the
   analysis allocation per region is read, a deterministic series; the
   digest identity of its rows is asserted where they are measured
   ([Compile_bench.run] exits before writing a file whose digests
   diverge). This is the one place the allocation rows and the trace-on
   overhead are checked. *)

let det_tolerance = 1.25
let wall_tolerance = 4.0

(* --- reading the committed history (Trace_check's JSON reader) ------- *)

let parse_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let s = really_input_string ic (in_channel_length ic) in
      Obs.Trace_check.parse_json s)

let obj_field j key =
  match j with
  | Obs.Trace_check.Obj fields -> List.assoc_opt key fields
  | _ -> None

let num_field j key =
  match obj_field j key with Some (Obs.Trace_check.Num v) -> Some v | _ -> None

(* --- the check ------------------------------------------------------- *)

type verdict = Ok_v | Regressed | Missing

let run () =
  let failures = ref 0 in
  let rows = ref [] in
  let record name ~committed ~fresh ~tolerance verdict =
    rows := (name, committed, fresh, tolerance, verdict) :: !rows;
    match verdict with Ok_v -> () | Regressed | Missing -> incr failures
  in
  (* A series regresses only in the slow/bigger direction; getting
     faster than history is not a failure. *)
  let check_series name ~committed ~fresh ~tolerance =
    let verdict =
      match committed with
      | None -> Missing
      | Some c when c > 0.0 && fresh > c *. tolerance -> Regressed
      | Some _ -> Ok_v
    in
    record name ~committed ~fresh ~tolerance verdict
  in
  (* Run [k] on one committed history file; an unreadable or malformed
     file is a failure of its own. *)
  let history file k =
    match parse_file file with
    | exception Sys_error m ->
        Printf.eprintf "bench check: %s unreadable: %s\n" file m;
        incr failures
    | exception Obs.Trace_check.Parse_error m ->
        Printf.eprintf "bench check: %s malformed: %s\n" file m;
        incr failures
    | j -> k j
  in

  (* Fresh measurements: the deterministic allocation rows, the two
     wall-clock hot-loop gauges and the trace-on overhead. Every
     allocation row is printed, so a regression confined to one pass or
     one wavefront role shows which. *)
  let alloc = Micro.alloc_rows () in
  let alloc_per_step = (List.hd alloc).Micro.ag_per_step in
  let alloc_worst = (Micro.alloc_worst alloc).Micro.ag_per_step in
  let hot_per_step, hot_per_iter, _ = Micro.hot_loop () in
  let _, _, overhead_pct = Micro.obs_overhead () in

  (* BENCH_arena.json: allocation budget + hot-loop series. *)
  history "BENCH_arena.json" (fun arena ->
      let gate = obj_field arena "alloc_gate" in
      let committed_alloc = Option.bind gate (fun g -> num_field g "minor_words_per_ant_step") in
      check_series "alloc/minor_words_per_ant_step" ~committed:committed_alloc
        ~fresh:alloc_per_step ~tolerance:det_tolerance;
      (* the worst (pass, heuristic) row, so a regression confined to
         pass 2 or to one wavefront role cannot hide behind the headline *)
      check_series "alloc/worst_minor_words_per_ant_step"
        ~committed:(Option.bind gate (fun g -> num_field g "worst_minor_words_per_ant_step"))
        ~fresh:alloc_worst ~tolerance:det_tolerance;
      (* the ceiling in the file is the contract; re-assert it fresh *)
      (match Option.bind gate (fun g -> num_field g "ceiling") with
      | Some ceiling when alloc_worst > ceiling ->
          record "alloc/ceiling" ~committed:(Some ceiling) ~fresh:alloc_worst
            ~tolerance:1.0 Regressed
      | Some ceiling ->
          record "alloc/ceiling" ~committed:(Some ceiling) ~fresh:alloc_worst
            ~tolerance:1.0 Ok_v
      | None -> record "alloc/ceiling" ~committed:None ~fresh:alloc_worst ~tolerance:1.0 Missing);
      let hot = obj_field arena "hot_loop" in
      check_series "hot_loop/cycles_per_scheduled_instruction"
        ~committed:(Option.bind hot (fun h -> num_field h "cycles_per_scheduled_instruction"))
        ~fresh:hot_per_step ~tolerance:wall_tolerance;
      check_series "hot_loop/ns_per_iteration"
        ~committed:(Option.bind hot (fun h -> num_field h "ns_per_iteration"))
        ~fresh:hot_per_iter ~tolerance:wall_tolerance);

  (* BENCH_obs.json: the observability overhead contract. *)
  history "BENCH_obs.json" (fun obs ->
      let wf = obj_field obs "wavefront_iteration" in
      let ceiling =
        match Option.bind wf (fun w -> num_field w "ceiling_pct") with
        | Some c -> c
        | None -> Micro.obs_ceiling_pct
      in
      let verdict = if overhead_pct > ceiling then Regressed else Ok_v in
      record "obs/overhead_pct" ~committed:(Some ceiling) ~fresh:overhead_pct
        ~tolerance:1.0 verdict);

  (* BENCH_compile.json: the analysis allocation per region, a
     deterministic count. *)
  history "BENCH_compile.json" (fun compile ->
      check_series "analysis/minor_words_per_region"
        ~committed:
          (Option.bind (obj_field compile "analysis") (fun a ->
               num_field a "minor_words_per_region"))
        ~fresh:(Compile_bench.analysis_words_per_region ())
        ~tolerance:det_tolerance);

  (* BENCH_backends.json: the MMAS-vs-AS convergence fixture. The
     committed file covers eight small fixed regions (see
     Tables.mmas_check_regions), so re-measuring it here is cheap and —
     fixed seeds, sequential colonies — deterministic; the series still get the deterministic
     tolerance rather than exact equality so an intentional retune is a
     one-file refresh, not a flag day. *)
  history "BENCH_backends.json" (fun backends ->
      let summary = obj_field backends "summary" in
      let committed key = Option.bind summary (fun s -> num_field s key) in
      let rows = Tables.mmas_check_rows () in
      let s = Tables.summarize_mmas rows in
      check_series "backends/mmas_total_length"
        ~committed:(committed "mmas_total_length")
        ~fresh:(float_of_int s.Tables.ms_mmas_total_length)
        ~tolerance:det_tolerance;
      let ratio mmas seq = if seq > 0.0 then mmas /. seq else 1.0 in
      let committed_ratio =
        match (committed "mmas_total_length", committed "seq_total_length") with
        | Some m, Some q -> Some (ratio m q)
        | _ -> None
      in
      check_series "backends/mmas_vs_seq_length_ratio" ~committed:committed_ratio
        ~fresh:
          (ratio
             (float_of_int s.Tables.ms_mmas_total_length)
             (float_of_int s.Tables.ms_seq_total_length))
        ~tolerance:det_tolerance;
      (* Both colonies' ant work: the cut-off that stops ants which can
         no longer win their iteration keeps these a quarter or more
         below what running every ant to the end costs, so losing it
         trips the deterministic tolerance. *)
      check_series "backends/seq_total_work" ~committed:(committed "seq_total_work")
        ~fresh:(float_of_int s.Tables.ms_seq_total_work) ~tolerance:det_tolerance;
      check_series "backends/mmas_total_work" ~committed:(committed "mmas_total_work")
        ~fresh:(float_of_int s.Tables.ms_mmas_total_work) ~tolerance:det_tolerance);

  (* The allocation rows, then the series table, committed vs fresh. *)
  print_endline "bench check: committed history vs fresh run";
  List.iter
    (fun (r : Micro.alloc_row) ->
      Printf.printf "  alloc: pass %d %-15s %5.2f minor words per ant step (%d ant steps)\n"
        r.Micro.ag_pass
        (Sched.Heuristic.to_string r.Micro.ag_heuristic)
        r.Micro.ag_per_step r.Micro.ag_steps)
    alloc;
  List.iter
    (fun (name, committed, fresh, tolerance, verdict) ->
      Printf.printf "  %-44s %12s %12.2f  (tol %.2fx)  %s\n" name
        (match committed with Some c -> Printf.sprintf "%.2f" c | None -> "missing")
        fresh tolerance
        (match verdict with
        | Ok_v -> "OK"
        | Regressed -> "REGRESSED"
        | Missing -> "MISSING"))
    (List.rev !rows);
  if !failures > 0 then begin
    Printf.eprintf "bench check: FAIL — %d regression(s) against committed history\n"
      !failures;
    1
  end
  else begin
    print_endline "bench check: OK";
    0
  end
