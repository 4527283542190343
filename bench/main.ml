(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's experiment index), then runs the
   bechamel micro-benchmarks.

   Usage:
     dune exec bench/main.exe                 # everything, bench scale
     dune exec bench/main.exe -- table3 fig4  # selected experiments
     dune exec bench/main.exe -- --small      # quick run on the test scale
     dune exec bench/main.exe -- micro        # micro-benchmarks only
     dune exec bench/main.exe -- alloc-gate   # assert the per-step allocation budget
     dune exec bench/main.exe -- obs-gate     # assert the trace-on overhead budget
     dune exec bench/main.exe -- compile      # time cold/warm cache and multi-domain compiles
     dune exec bench/main.exe -- cache-gate   # assert analysis-cache hit rate + once-per-region analysis
     dune exec bench/main.exe -- scaling-gate # assert the jobs-4 executor speedup floor (nproc-aware)
     dune exec bench/main.exe -- serve        # serving mode: req/s, latency percentiles, warm-cache hit rate
     dune exec bench/main.exe -- check        # regression sentinel vs committed BENCH_*.json
     dune exec bench/main.exe -- --trace=F --metrics=G ...  # flight-record the compile *)

(* Pre-arena reference numbers for the two acceptance benchmarks,
   measured on this harness at the PR base commit. Kept so the emitted
   JSON carries its own speedup context. *)
let baseline_ns =
  [ ("core/one_ant_pass2", 107_680.0); ("core/wavefront_iteration", 5_158_500.0) ]

let write_bench_json rows ~(alloc : Micro.alloc_row list) ~hot_ns_per_step ~hot_ns_per_iter
    ~hot_steps =
  let file = "BENCH_arena.json" in
  let oc = open_out file in
  let buf = Buffer.create 1024 in
  let fl x = if Float.is_nan x then "null" else Printf.sprintf "%.2f" x in
  Buffer.add_string buf "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun i (r : Micro.row) ->
      let base = List.assoc_opt r.Micro.name baseline_ns in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"ns_per_run\": %s, \"minor_words_per_run\": %s, \
            \"baseline_ns_per_run\": %s, \"speedup_vs_baseline\": %s}%s\n"
           r.Micro.name (fl r.Micro.ns_per_run)
           (fl r.Micro.minor_words_per_run)
           (match base with Some b -> fl b | None -> "null")
           (match base with
           | Some b when r.Micro.ns_per_run > 0.0 -> fl (b /. r.Micro.ns_per_run)
           | _ -> "null")
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  (* The headline is pass 1 under the critical-path heuristic (the first
     row); the ceiling and `bench check` also hold the worst row. *)
  let head = List.hd alloc and worst = Micro.alloc_worst alloc in
  Buffer.add_string buf "  ],\n  \"alloc_gate\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"minor_words_per_ant_step\": %s,\n" (fl head.Micro.ag_per_step));
  Buffer.add_string buf (Printf.sprintf "    \"ant_steps\": %d,\n" head.Micro.ag_steps);
  Buffer.add_string buf (Printf.sprintf "    \"minor_words\": %s,\n" (fl head.Micro.ag_words));
  Buffer.add_string buf
    (Printf.sprintf "    \"worst_minor_words_per_ant_step\": %s,\n"
       (fl worst.Micro.ag_per_step));
  Buffer.add_string buf "    \"rows\": [\n";
  List.iteri
    (fun i (r : Micro.alloc_row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "      {\"pass\": %d, \"heuristic\": %S, \"minor_words_per_ant_step\": %s, \
            \"ant_steps\": %d, \"minor_words\": %s}%s\n"
           r.Micro.ag_pass
           (Sched.Heuristic.to_string r.Micro.ag_heuristic)
           (fl r.Micro.ag_per_step) r.Micro.ag_steps (fl r.Micro.ag_words)
           (if i = List.length alloc - 1 then "" else ",")))
    alloc;
  Buffer.add_string buf "    ],\n";
  Buffer.add_string buf (Printf.sprintf "    \"ceiling\": %s\n" (fl Micro.alloc_ceiling));
  Buffer.add_string buf "  },\n  \"hot_loop\": {\n";
  (* ns per ant step at the 1 GHz reference clock reads directly as
     cycles per scheduled instruction (one ant step schedules one
     instruction) — the series `bench check` tracks. *)
  Buffer.add_string buf
    (Printf.sprintf "    \"ns_per_ant_step\": %s,\n" (fl hot_ns_per_step));
  Buffer.add_string buf
    (Printf.sprintf "    \"cycles_per_scheduled_instruction\": %s,\n" (fl hot_ns_per_step));
  Buffer.add_string buf
    (Printf.sprintf "    \"ns_per_iteration\": %s,\n" (fl hot_ns_per_iter));
  Buffer.add_string buf (Printf.sprintf "    \"ant_steps_per_iteration_batch\": %d\n" hot_steps);
  Buffer.add_string buf "  }\n}\n";
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.eprintf "# wrote %s\n%!" file

let write_obs_json ~untraced_ns ~traced_ns ~overhead_pct =
  let file = "BENCH_obs.json" in
  let oc = open_out file in
  Printf.fprintf oc
    "{\n\
    \  \"wavefront_iteration\": {\n\
    \    \"untraced_ns_per_run\": %.0f,\n\
    \    \"traced_ns_per_run\": %.0f,\n\
    \    \"overhead_pct\": %.2f,\n\
    \    \"ceiling_pct\": %.0f\n\
    \  }\n\
     }\n"
    untraced_ns traced_ns overhead_pct Micro.obs_ceiling_pct;
  close_out oc;
  Printf.eprintf "# wrote %s\n%!" file

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let small = List.mem "--small" args in
  let no_seq = List.mem "--no-seq" args in
  let flag_value prefix =
    List.find_map
      (fun a ->
        let k = String.length prefix in
        if String.length a > k && String.sub a 0 k = prefix then
          Some (String.sub a k (String.length a - k))
        else None)
      args
  in
  let trace_file = flag_value "--trace=" in
  let metrics_file = flag_value "--metrics=" in
  let wanted = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let want name = wanted = [] || List.mem name wanted in
  let table_names = List.map fst Tables.all in
  let needs_compile = List.exists want table_names in
  if needs_compile then begin
    let scale = if small then Workload.Suite.test_scale else Workload.Suite.bench_scale in
    let suite = Workload.Suite.generate scale in
    let stats = Workload.Suite.stats suite in
    Printf.eprintf "# suite: %d benchmarks, %d kernels, %d regions (max size %d)\n%!"
      stats.Workload.Suite.num_benchmarks stats.Workload.Suite.num_kernels
      stats.Workload.Suite.num_regions stats.Workload.Suite.max_region_size;
    let config =
      let c = Pipeline.Compile.make_config ~gpu:Gpusim.Config.bench () in
      if no_seq then { c with Pipeline.Compile.run_sequential = false } else c
    in
    (* Optional flight recording of the whole suite compile; the ring
       drops the oldest events if the suite outgrows it. *)
    let trace =
      match trace_file with
      | Some _ -> Obs.Trace.create ~capacity:(1 lsl 20) ()
      | None -> Obs.Trace.null
    in
    let metrics =
      match metrics_file with Some _ -> Obs.Metrics.create () | None -> Obs.Metrics.null
    in
    let t0 = Unix.gettimeofday () in
    let done_kernels = ref 0 in
    let report =
      Pipeline.Compile.run_suite
        ~progress:(fun k ->
          incr done_kernels;
          Printf.eprintf "# [%d/%d] %s (%.0fs)\n%!" !done_kernels
            stats.Workload.Suite.num_kernels k
            (Unix.gettimeofday () -. t0))
        ~trace ~metrics config suite
    in
    Printf.eprintf "# compiled in %.1fs\n%!" (Unix.gettimeofday () -. t0);
    (match trace_file with
    | Some file ->
        Obs.Trace.write_chrome_json trace file;
        Printf.eprintf "# wrote %s (%d events, %d dropped)\n%!" file
          (Obs.Trace.recorded trace) (Obs.Trace.dropped trace)
    | None -> ());
    (match metrics_file with
    | Some file ->
        (if Filename.check_suffix file ".json" then Obs.Metrics.write_json
         else Obs.Metrics.write_csv)
          metrics file;
        Printf.eprintf "# wrote %s\n%!" file
    | None -> ());
    let ctx = { Tables.report; filters = Pipeline.Filters.default; config } in
    List.iter (fun (name, print) -> if want name then print ctx) Tables.all
  end;
  if want "micro" then begin
    let rows = Micro.run () in
    let alloc = Micro.alloc_gate () in
    let worst = Micro.alloc_worst alloc in
    Printf.printf "  %-28s %12.1f mnr-words/ant-step (worst row; ceiling %.0f)\n"
      "alloc_gate" worst.Micro.ag_per_step Micro.alloc_ceiling;
    let hot_per_step, hot_per_iter, hot_steps = Micro.hot_loop () in
    Printf.printf "  %-28s %12.1f cycles/scheduled-instruction (%.0f ns/iteration)\n\n"
      "hot_loop" hot_per_step hot_per_iter;
    write_bench_json rows ~alloc ~hot_ns_per_step:hot_per_step ~hot_ns_per_iter:hot_per_iter
      ~hot_steps
  end;
  if List.mem "alloc-gate" wanted then begin
    let alloc = Micro.alloc_gate () in
    List.iter
      (fun (r : Micro.alloc_row) ->
        Printf.printf "alloc-gate: pass %d %-15s %5.2f minor words per ant step (%d ant steps)\n"
          r.Micro.ag_pass
          (Sched.Heuristic.to_string r.Micro.ag_heuristic)
          r.Micro.ag_per_step r.Micro.ag_steps)
      alloc;
    let worst = Micro.alloc_worst alloc in
    Printf.printf "alloc-gate: worst row %.2f minor words per ant step (ceiling %.0f)\n"
      worst.Micro.ag_per_step Micro.alloc_ceiling;
    if worst.Micro.ag_per_step > Micro.alloc_ceiling then begin
      Printf.eprintf
        "alloc-gate: FAIL — pass %d under %s allocates %.1f minor words per ant step \
         (ceiling %.0f)\n"
        worst.Micro.ag_pass
        (Sched.Heuristic.to_string worst.Micro.ag_heuristic)
        worst.Micro.ag_per_step Micro.alloc_ceiling;
      exit 1
    end
    else print_endline "alloc-gate: OK"
  end;
  if List.mem "compile" wanted then Compile_bench.run ~small ();
  if List.mem "cache-gate" wanted then Compile_bench.cache_gate ();
  if List.mem "scaling-gate" wanted then Compile_bench.scaling_gate ();
  if List.mem "serve" wanted then Serve_bench.run ~small ();
  if List.mem "check" wanted then begin
    let rc = Check.run () in
    if rc <> 0 then exit rc
  end;
  if List.mem "obs-gate" wanted then begin
    let untraced_ns, traced_ns, overhead_pct = Micro.obs_overhead () in
    Printf.printf
      "obs-gate: wavefront_iteration %.0f ns untraced, %.0f ns traced (overhead %.2f%%, \
       ceiling %.0f%%)\n"
      untraced_ns traced_ns overhead_pct Micro.obs_ceiling_pct;
    write_obs_json ~untraced_ns ~traced_ns ~overhead_pct;
    if overhead_pct > Micro.obs_ceiling_pct then begin
      Printf.eprintf
        "obs-gate: FAIL — tracing the wavefront loop costs %.2f%% (ceiling %.0f%%)\n"
        overhead_pct Micro.obs_ceiling_pct;
      exit 1
    end
    else print_endline "obs-gate: OK"
  end
