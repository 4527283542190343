(* gpuaco: command-line front end for the GPU-ACO instruction scheduler.

   Subcommands:
     schedule  generate a kernel shape and schedule it with a chosen scheduler
     compile   run a shape through the fault-tolerant compile driver
     trace     flight-record a compile and export/inspect the recording
     dot       print the DDG of a shape in Graphviz format
     stats     generate the benchmark suite and print its statistics *)

open Cmdliner

let occ = Machine.Occupancy.default

(* --- shared shape argument --------------------------------------------- *)

let shape_names = Workload.Shapes.spec_names

let build_shape name ~size ~seed =
  match Workload.Shapes.of_spec ~name ~size ~seed with
  | Some region -> region
  | None -> invalid_arg ("unknown shape: " ^ name)

let shape_arg =
  let doc =
    "Kernel shape to generate: " ^ String.concat ", " shape_names ^ "."
  in
  Arg.(value & opt string "transform" & info [ "shape" ] ~docv:"SHAPE" ~doc)

let size_arg =
  let doc = "Approximate region size parameter." in
  Arg.(value & opt int 60 & info [ "size" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed (all components are deterministic in it)." in
  Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc)

(* --- schedule ----------------------------------------------------------- *)

let scheduler_arg =
  let doc =
    "Scheduler: amd, cp, luc, aco (sequential two-pass), par-aco (on the simulated \
     GPU), weighted (single-pass weighted-sum ACO)."
  in
  Arg.(value & opt string "aco" & info [ "scheduler" ] ~docv:"S" ~doc)

let verbose_arg =
  let doc = "Print the full schedule, not just its cost." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let run_schedule shape size seed scheduler verbose =
  let region = build_shape shape ~size ~seed in
  let graph = Ddg.Graph.build region in
  Printf.printf "region %s: %d instructions, length LB %d (dependence height %d)\n" shape
    (Ir.Region.size region)
    (Ddg.Lower_bounds.schedule_length graph)
    (Ddg.Lower_bounds.dependence_height graph);
  let finish name (schedule : Sched.Schedule.t) =
    let cost = Sched.Cost.of_schedule occ schedule in
    Printf.printf "%s: %s\n" name (Sched.Cost.to_string cost);
    if verbose then print_string (Sched.Schedule.to_string schedule)
  in
  match scheduler with
  | "amd" ->
      finish "amd" (Sched.Amd_scheduler.run occ graph);
      0
  | "cp" ->
      finish "cp" (Sched.List_scheduler.run graph Sched.Heuristic.Critical_path);
      0
  | "luc" ->
      finish "luc" (Sched.List_scheduler.run graph Sched.Heuristic.Last_use_count);
      0
  | "aco" ->
      let r = Aco.Seq_aco.run ~seed occ graph in
      Printf.printf "heuristic: %s\n" (Sched.Cost.to_string r.Engine.Types.heuristic_cost);
      Printf.printf "pass 1: %d iterations, pass 2: %d iterations\n"
        r.Engine.Types.pass1.Engine.Types.iterations r.Engine.Types.pass2.Engine.Types.iterations;
      finish "aco" r.Engine.Types.schedule;
      0
  | "par-aco" ->
      let config = { Gpusim.Config.bench with Gpusim.Config.num_wavefronts = 4 } in
      let params =
        { Engine.Params.default with Engine.Params.ants_per_iteration = Gpusim.Config.threads config }
      in
      let r = Gpusim.Par_aco.run ~params ~seed config occ graph in
      Printf.printf "heuristic: %s\n" (Sched.Cost.to_string r.Engine.Types.heuristic_cost);
      Printf.printf "simulated GPU time: %.3f ms\n" (Gpusim.Par_aco.total_time_ns r /. 1e6);
      finish "par-aco" r.Engine.Types.schedule;
      0
  | "weighted" ->
      let r = Aco.Weighted_aco.run ~seed occ graph in
      Printf.printf "heuristic: %s\n" (Sched.Cost.to_string r.Aco.Weighted_aco.heuristic_cost);
      Printf.printf "%d iterations\n" r.Aco.Weighted_aco.iterations;
      finish "weighted" r.Aco.Weighted_aco.schedule;
      0
  | other ->
      Printf.eprintf "unknown scheduler %s\n" other;
      1

let schedule_cmd =
  let info = Cmd.info "schedule" ~doc:"Generate a kernel shape and schedule it." in
  Cmd.v info Term.(const run_schedule $ shape_arg $ size_arg $ seed_arg $ scheduler_arg $ verbose_arg)

(* --- compile ------------------------------------------------------------- *)

let fault_rate_arg =
  let doc =
    "Transient-fault rate in [0,1] injected into the simulated GPU (see \
     Gpusim.Config.uniform_faults for how it spreads over fault classes)."
  in
  Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"RATE" ~doc)

let fault_seed_arg =
  let doc = "Seed of the fault injector's private RNG stream." in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let budget_arg =
  let doc =
    "Per-region compile budget in simulated milliseconds for the smallest size \
     category (medium and large regions get 2x and 4x). Unset means unbounded."
  in
  Arg.(value & opt (some float) None & info [ "compile-budget-ms" ] ~docv:"MS" ~doc)

let retries_arg =
  let doc = "Consecutive faulted iterations tolerated per pass before degrading." in
  Arg.(value & opt int 2 & info [ "max-retries" ] ~docv:"K" ~doc)

let trace_out_arg =
  let doc =
    "Write a flight recording of the compile to $(docv) as Chrome trace-event JSON \
     (open in Perfetto or chrome://tracing). Timestamps are simulated nanoseconds."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics registry (fault counters, convergence series, occupancy \
     histograms) to $(docv): JSON when it ends in .json, CSV otherwise."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let log_out_arg =
  let doc =
    "Write the structured event log (leveled JSONL, ring-buffered) to $(docv). \
     Compiles emit per-backend and per-region entries; the serve daemon adds \
     admission, shed, reject and drain events with request ids."
  in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)

let quality_ledger_arg =
  let doc =
    "Append one schedule-quality record per compiled region (JSONL: length vs \
     lower bound, occupancy vs target, iterations-to-best) to $(docv). Summarize \
     a ledger with $(b,gpuaco report)."
  in
  Arg.(value & opt (some string) None & info [ "quality-ledger" ] ~docv:"FILE" ~doc)

let convergence_arg =
  let doc = "Print the per-iteration best-cost convergence table." in
  Arg.(value & flag & info [ "convergence" ] ~doc)

let backend_arg =
  let doc =
    "Scheduler backend(s) compiling the region: a registered backend name (seq, par, \
     weighted, mmas, mmas-spill), $(b,auto) (size-thresholded seq/par split, see \
     $(b,--auto-threshold)), or a comma-separated list (no duplicates) raced against \
     each other with the best schedule shipping."
  in
  Arg.(value & opt string "par" & info [ "backend" ] ~docv:"B" ~doc)

let auto_threshold_arg =
  let doc =
    "Region size at which $(b,--backend=auto) switches from the sequential to the \
     parallel backend."
  in
  Arg.(value & opt int 50 & info [ "auto-threshold" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Number of workers compiling suite regions in parallel (with $(b,--suite)), on a \
     persistent domain pool; workers claim regions largest first from one shared \
     queue. The report is identical for every value; a single region always \
     compiles on one domain. $(b,--trace) works at any jobs count: each worker \
     records into a private ring and the rings merge on the simulated timeline at \
     join."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Analysis-cache mode: $(b,on) shares region analyses between structurally \
     identical regions, $(b,off) recomputes them per region, $(b,stats) is $(b,on) \
     plus a hit/miss/eviction summary after the compile. The emitted schedules are \
     identical in every mode."
  in
  Arg.(
    value
    & opt (enum [ ("on", `On); ("off", `Off); ("stats", `Stats) ]) `On
    & info [ "cache" ] ~docv:"MODE" ~doc)

let suite_arg =
  let doc =
    "Compile the generated benchmark suite (at test scale, seeded by $(b,--seed)) \
     through the multi-domain executor instead of a single $(b,--shape) region."
  in
  Arg.(value & flag & info [ "suite" ] ~doc)

(* Exit status mirrors the degradation ledger so scripts can tell a clean
   compile from a degraded one without parsing the output. *)
let degradation_exit = function
  | Pipeline.Robust.Clean -> 0
  | Pipeline.Robust.Retried _ -> 10
  | Pipeline.Robust.Budget_exceeded -> 11
  | Pipeline.Robust.Faulted_fallback -> 12
  | Pipeline.Robust.Shed_overload -> 13

let degradation_exits =
  Cmd.Exit.info 0 ~doc:"The region compiled clean: the full ACO product shipped."
  :: Cmd.Exit.info 10
       ~doc:
         "Degraded (recovered): faulted iterations were retried, but the region \
          recovered and the ACO product shipped."
  :: Cmd.Exit.info 11
       ~doc:
         "Degraded: a pass exhausted its compile budget and shipped its best-so-far \
          schedule."
  :: Cmd.Exit.info 12
       ~doc:
         "Degraded: retries were exhausted, validation failed, or the driver \
          trapped; a best-so-far or heuristic fallback schedule shipped."
  :: Cmd.Exit.info 13
       ~doc:
         "Shed: the serve loop answered with the Critical-Path schedule under \
          admission pressure, skipping ACO entirely (never emitted by a direct \
          compile)."
  :: Cmd.Exit.defaults

let write_metrics metrics file =
  if Filename.check_suffix file ".json" then Obs.Metrics.write_json metrics file
  else Obs.Metrics.write_csv metrics file

let write_log ?(err = false) log file =
  Obs.Log.write_jsonl log file;
  let note =
    Printf.sprintf "log: %d entries written to %s (%d dropped)\n"
      (min (Obs.Log.recorded log) (Obs.Log.capacity log))
      file (Obs.Log.dropped log)
  in
  if err then (output_string stderr note; flush stderr) else print_string note

let print_cache_stats cache =
  Format.printf "%a@." Pipeline.Analysis.pp_stats (Pipeline.Analysis.stats cache)

(* With logging on, the domain pool's lifecycle is observed too: worker
   spawn/acquire/release events land in the same ring as the serve and
   compile entries. The observer is process-global, so it is installed
   around the pooled phase and removed on the way out. *)
let with_pool_observer log f =
  if Obs.Log.enabled log then begin
    Support.Domain_pool.set_observer
      (Some
         (fun e ->
           match e with
           | Support.Domain_pool.Spawned i ->
               Obs.Log.info log "pool.spawned" [ ("worker", Obs.Log.Int i) ]
           | Support.Domain_pool.Acquired i ->
               Obs.Log.debug log "pool.acquired" [ ("worker", Obs.Log.Int i) ]
           | Support.Domain_pool.Released i ->
               Obs.Log.debug log "pool.released" [ ("worker", Obs.Log.Int i) ]));
    Fun.protect ~finally:(fun () -> Support.Domain_pool.set_observer None) f
  end
  else f ()

let run_compile_suite config ~seed ~jobs ~cache_mode metrics metrics_out trace_out log
    log_out quality_ledger =
  let scale = { Workload.Suite.test_scale with Workload.Suite.seed } in
  let suite = Workload.Suite.generate scale in
  let stats = Workload.Suite.stats suite in
  let cache =
    match cache_mode with
    | `Off -> Pipeline.Analysis.disabled ()
    | `On | `Stats -> Pipeline.Analysis.create ~metrics ()
  in
  let trace =
    match trace_out with Some _ -> Obs.Trace.create () | None -> Obs.Trace.null
  in
  let report =
    with_pool_observer log (fun () ->
        Pipeline.Executor.run_suite ~jobs ~trace ~metrics ~log ~cache config suite)
  in
  let regions =
    List.concat_map
      (fun (kr : Pipeline.Compile.kernel_report) -> kr.Pipeline.Compile.regions)
      report.Pipeline.Compile.kernels
  in
  Printf.printf "suite: %d kernels, %d regions compiled on %d domain%s\n"
    stats.Workload.Suite.num_kernels (List.length regions) (max 1 jobs)
    (if max 1 jobs = 1 then "" else "s");
  let tally =
    Pipeline.Robust.tally_of_list
      (List.map (fun (r : Pipeline.Compile.region_report) -> r.Pipeline.Compile.degradation) regions)
  in
  Printf.printf "ledger: %d clean, %d retried, %d budget-exceeded, %d fallback, %d shed\n"
    tally.Pipeline.Robust.clean tally.Pipeline.Robust.retried
    tally.Pipeline.Robust.budget_exceeded tally.Pipeline.Robust.faulted_fallback
    tally.Pipeline.Robust.shed_overload;
  Printf.printf "report digest: %s\n" (Pipeline.Report_digest.digest report);
  if cache_mode = `Stats then print_cache_stats cache;
  (match trace_out with
  | Some file ->
      Obs.Trace.write_chrome_json trace file;
      Printf.printf "trace: %d events written to %s (%d dropped)\n"
        (min (Obs.Trace.recorded trace) (Obs.Trace.capacity trace))
        file (Obs.Trace.dropped trace)
  | None -> ());
  (match metrics_out with
  | Some file ->
      write_metrics metrics file;
      Printf.printf "metrics: written to %s\n" file
  | None -> ());
  (match log_out with Some file -> write_log log file | None -> ());
  (match quality_ledger with
  | Some file ->
      let records = Pipeline.Quality.of_report report in
      Pipeline.Quality.append ~file records;
      Printf.printf "quality: %d record(s) appended to %s\n" (List.length records)
        file
  | None -> ());
  let worst =
    List.fold_left
      (fun acc (r : Pipeline.Compile.region_report) ->
        if
          Pipeline.Robust.severity r.Pipeline.Compile.degradation
          > Pipeline.Robust.severity acc
        then r.Pipeline.Compile.degradation
        else acc)
      Pipeline.Robust.Clean regions
  in
  degradation_exit worst

(* The [--backend] spec as a dispatch policy whose every name is
   registered, or the one-line usage error naming what is wrong. *)
let dispatch_of_spec ~auto_threshold spec =
  Pipeline.Compile.ensure_backends ();
  let unusable what =
    Error
      (Printf.sprintf "%s (registered: %s)" what
         (String.concat ", " (Engine.Registry.names ())))
  in
  match Engine.Dispatch.of_string ~auto_threshold spec with
  | exception Engine.Dispatch.Duplicate_backend b ->
      Error
        (Printf.sprintf
           "backend %S appears twice in the race list %S — racing a deterministic \
            backend against itself only reproduces its own schedule"
           b spec)
  | exception Invalid_argument _ -> unusable (Printf.sprintf "no backend named in %S" spec)
  | dispatch -> (
      let names = Engine.Dispatch.backend_names dispatch in
      match List.find_opt (fun b -> not (Engine.Registry.mem b)) names with
      | Some b -> unusable (Printf.sprintf "unknown backend %S" b)
      | None -> Ok dispatch)

let run_compile shape size seed fault_rate fault_seed budget_ms max_retries backend
    auto_threshold jobs cache_mode suite trace_out metrics_out log_out quality_ledger
    convergence =
  match dispatch_of_spec ~auto_threshold backend with
  | Error m ->
      Printf.eprintf "gpuaco compile: %s\n" m;
      2
  | Ok dispatch ->
  let config =
    Pipeline.Compile.make_config
      ~fault_rate:(Float.max 0.0 (Float.min 1.0 fault_rate))
      ?fault_seed ?compile_budget_ms:budget_ms ~max_retries ~dispatch ()
  in
  let config = { config with Pipeline.Compile.run_sequential = false } in
  let metrics =
    match metrics_out with Some _ -> Obs.Metrics.create () | None -> Obs.Metrics.null
  in
  let log = match log_out with Some _ -> Obs.Log.create () | None -> Obs.Log.null in
  if suite then
    run_compile_suite config ~seed ~jobs ~cache_mode metrics metrics_out trace_out log
      log_out quality_ledger
  else begin
  let region = build_shape shape ~size ~seed in
  let trace =
    match trace_out with Some _ -> Obs.Trace.create () | None -> Obs.Trace.null
  in
  let cache =
    match cache_mode with
    | `Off -> Pipeline.Analysis.disabled ()
    | `On | `Stats -> Pipeline.Analysis.create ~metrics ()
  in
  let ctx = Pipeline.Analysis.get cache config.Pipeline.Compile.occ region in
  let r =
    Pipeline.Compile.run_region ~trace ~metrics ~log ~ctx config ~name:shape region
  in
  Printf.printf "region %s: %d instructions (size category %s)\n" shape r.Pipeline.Compile.n
    (Engine.Params.size_category_label r.Pipeline.Compile.size_category);
  Printf.printf "heuristic: %s\n" (Sched.Cost.to_string r.Pipeline.Compile.heuristic_cost);
  Printf.printf "aco:       %s\n" (Sched.Cost.to_string r.Pipeline.Compile.aco_cost);
  Printf.printf "backend: %s%s\n" r.Pipeline.Compile.product_backend
    (match r.Pipeline.Compile.runs with
    | [ _ ] -> ""
    | runs ->
        " (of " ^ String.concat "," (List.map (fun b -> b.Pipeline.Compile.backend) runs) ^ ")");
  Printf.printf "degradation: %s\n"
    (Pipeline.Robust.degradation_label r.Pipeline.Compile.degradation);
  Printf.printf "retries: %d\n" r.Pipeline.Compile.retries;
  Printf.printf "faults injected: %s\n"
    (Gpusim.Faults.counts_to_string r.Pipeline.Compile.fault_counts);
  let product = Pipeline.Compile.product_run r in
  Printf.printf "simulated compile time: %.3f ms\n"
    ((product.Pipeline.Compile.run_pass1_time_ns +. product.Pipeline.Compile.run_pass2_time_ns)
    /. 1e6);
  let p1 = product.Pipeline.Compile.result.Engine.Types.pass1
  and p2 = product.Pipeline.Compile.result.Engine.Types.pass2 in
  let steps = p1.Engine.Types.ant_steps + p2.Engine.Types.ant_steps in
  let words = p1.Engine.Types.minor_words +. p2.Engine.Types.minor_words in
  Printf.printf "perf: %d lockstep steps, %d ant steps, %d selections\n"
    (p1.Engine.Types.lockstep_steps + p2.Engine.Types.lockstep_steps)
    steps
    (p1.Engine.Types.selections + p2.Engine.Types.selections);
  Printf.printf "perf: %.0f minor words allocated (%.1f per ant step)\n" words
    (if steps = 0 then 0.0 else words /. float_of_int steps);
  Printf.printf "perf: %d candidates scored\n"
    (p1.Engine.Types.scored_candidates + p2.Engine.Types.scored_candidates);
  if convergence then
    print_string
      (Pipeline.Report.render_convergence (Pipeline.Report.convergence_rows_of_region r));
  if cache_mode = `Stats then print_cache_stats cache;
  (match trace_out with
  | Some file ->
      Obs.Trace.write_chrome_json trace file;
      Printf.printf "trace: %d events written to %s (%d dropped)\n"
        (min (Obs.Trace.recorded trace) (Obs.Trace.capacity trace))
        file (Obs.Trace.dropped trace)
  | None -> ());
  (match metrics_out with
  | Some file ->
      write_metrics metrics file;
      Printf.printf "metrics: written to %s\n" file
  | None -> ());
  (match log_out with Some file -> write_log log file | None -> ());
  (match quality_ledger with
  | Some file ->
      Pipeline.Quality.append ~file [ Pipeline.Quality.of_region r ];
      Printf.printf "quality: 1 record appended to %s\n" file
  | None -> ());
  degradation_exit r.Pipeline.Compile.degradation
  end

let compile_cmd =
  let info =
    Cmd.info "compile"
      ~doc:
        "Compile a shape through the fault-tolerant driver and report its \
         degradation-ledger entry. The exit status encodes that entry (see EXIT \
         STATUS)."
      ~exits:degradation_exits
  in
  Cmd.v info
    Term.(
      const run_compile $ shape_arg $ size_arg $ seed_arg $ fault_rate_arg $ fault_seed_arg
      $ budget_arg $ retries_arg $ backend_arg $ auto_threshold_arg $ jobs_arg $ cache_arg
      $ suite_arg $ trace_out_arg $ metrics_out_arg $ log_out_arg $ quality_ledger_arg
      $ convergence_arg)

(* --- serve --------------------------------------------------------------- *)

let socket_arg =
  let doc =
    "Serve over a Unix domain socket bound at $(docv) instead of stdin/stdout. \
     Connections are served one at a time; the daemon runs until a shutdown \
     request or signal drains it."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let queue_capacity_arg =
  let doc = "Admission queue capacity (compile requests waiting to run)." in
  Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"N" ~doc)

let in_flight_arg =
  let doc = "Compile requests processed per pump of the request loop." in
  Arg.(value & opt int 4 & info [ "max-in-flight" ] ~docv:"N" ~doc)

let shed_threshold_arg =
  let doc =
    "Fraction of queue capacity past which compile requests are shed: answered \
     immediately with the Critical-Path schedule (ledger entry \
     $(i,shed-overload), no ACO work) instead of being queued."
  in
  Arg.(value & opt float 0.75 & info [ "shed-threshold" ] ~docv:"F" ~doc)

let serve_retries_arg =
  let doc =
    "Serve-level re-attempts after a degraded compile (faults, budget). Each \
     retry backs off exponentially and reseeds the fault stream; 0 ships the \
     first attempt unconditionally."
  in
  Arg.(value & opt int 2 & info [ "serve-retries" ] ~docv:"K" ~doc)

let backoff_arg =
  let doc = "Base retry backoff in simulated nanoseconds (doubles per retry)." in
  Arg.(value & opt float 50_000.0 & info [ "backoff-ns" ] ~docv:"NS" ~doc)

let slack_arg =
  let doc =
    "Request deadline as a multiple of the per-attempt compile budget; retries \
     stop when the next attempt cannot finish before it."
  in
  Arg.(value & opt float 4.0 & info [ "deadline-slack" ] ~docv:"F" ~doc)

let memo_capacity_arg =
  let doc = "Schedule-memo entries kept (LRU). 0 disables memoisation." in
  Arg.(value & opt int 512 & info [ "memo-capacity" ] ~docv:"N" ~doc)

let state_dir_arg =
  let doc =
    "Persist the analysis cache and schedule memo to $(docv) on drain and reload \
     them on start. Corrupt, truncated or version-skewed files start cold (with a \
     metric), never crash."
  in
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let pump_batch_arg =
  let doc =
    "Frames read before each processing pump. 1 compiles request-by-request; \
     larger batches let the admission queue fill, exercising shedding."
  in
  Arg.(value & opt int 1 & info [ "pump-batch" ] ~docv:"N" ~doc)

let encode_arg =
  let doc =
    "Helper, repeatable: frame $(docv) as a length-prefixed request on stdout and \
     exit (the sequence $(b,\\\\n) becomes a newline, for inline region text). \
     Pipe the output into a running $(b,gpuaco serve)."
  in
  Arg.(value & opt_all string [] & info [ "encode" ] ~docv:"REQ" ~doc)

let decode_arg =
  let doc =
    "Helper: read length-prefixed reply frames from stdin and print one payload \
     per line."
  in
  Arg.(value & flag & info [ "decode" ] ~doc)

let serve_exits =
  Cmd.Exit.info 0
    ~doc:
      "Clean drain: every received frame was answered (some possibly degraded, \
       shed, or rejected with a typed error) and state was persisted."
  :: Cmd.Exit.info 14
       ~doc:
         "Transport failure: the socket could not be bound, or a stream helper \
          hit a framing error."
  :: Cmd.Exit.defaults

let unescape s =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    if !i + 1 < n && s.[!i] = '\\' && s.[!i + 1] = 'n' then begin
      Buffer.add_char b '\n';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* Pump one framed byte stream into the service: read frames, admit them,
   compile every [batch] frames. A framing error is fatal to the stream
   (the length prefix is gone) but answered first; EOF flushes the queue
   so every admitted request is replied to before the stream closes. *)
let pump_channel srv ~client ~batch ic =
  let limit = (Pipeline.Serve.config srv).Pipeline.Serve.frame_limit in
  let rec loop pending =
    if Pipeline.Serve.state srv = `Drained then ()
    else
      match Support.Frame.read ~limit ic with
      | Ok (Some payload) ->
          Pipeline.Serve.handle srv ~client payload;
          let pending = pending + 1 in
          if pending >= max 1 batch then begin
            ignore (Pipeline.Serve.process srv);
            loop 0
          end
          else loop pending
      | Ok None -> ()
      | Error e -> Pipeline.Serve.handle_frame_error srv ~client e
  in
  loop 0;
  (* stream over: answer everything this stream queued *)
  while Pipeline.Serve.process srv > 0 do
    ()
  done

let graceful_signals () =
  let quit = Sys.Signal_handle (fun _ -> raise Exit) in
  (try Sys.set_signal Sys.sigint quit with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm quit with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let serve_stdio cfg metrics log ~batch =
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  (* if the reader goes away mid-reply, keep draining silently — the
     service still owes its queue a graceful finish and its state a
     persist *)
  let broken = ref false in
  let on_reply reply =
    if not !broken then
      try
        Support.Frame.write stdout (Pipeline.Serve.render_reply reply);
        flush stdout
      with Sys_error _ -> broken := true
  in
  let srv =
    Pipeline.Serve.create ~metrics ~log ~pool:(Support.Domain_pool.global ())
      ~on_reply cfg
  in
  graceful_signals ();
  with_pool_observer log (fun () ->
      (try pump_channel srv ~client:"stdio" ~batch stdin with Exit -> ());
      Pipeline.Serve.drain srv);
  0

let serve_socket path cfg metrics log ~batch =
  match
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 16;
    sock
  with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "gpuaco serve: cannot bind %s: %s\n" path (Unix.error_message e);
      14
  | sock ->
      let current_out = ref None in
      let on_reply reply =
        match !current_out with
        | None -> ()
        | Some oc -> (
            try
              Support.Frame.write oc (Pipeline.Serve.render_reply reply);
              flush oc
            with Sys_error _ -> current_out := None)
      in
      let srv =
        Pipeline.Serve.create ~metrics ~log ~pool:(Support.Domain_pool.global ())
          ~on_reply cfg
      in
      graceful_signals ();
      Printf.eprintf "gpuaco serve: listening on %s\n%!" path;
      let conn = ref 0 in
      with_pool_observer log (fun () ->
          (try
             while Pipeline.Serve.state srv <> `Drained do
               match Unix.accept sock with
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               | fd, _ ->
                   incr conn;
                   let client = Printf.sprintf "conn-%d" !conn in
                   let ic = Unix.in_channel_of_descr fd in
                   current_out := Some (Unix.out_channel_of_descr fd);
                   (try pump_channel srv ~client ~batch ic
                    with Sys_error _ -> () (* peer went away mid-frame *));
                   current_out := None;
                   (try Unix.close fd with Unix.Unix_error _ -> ())
             done
           with Exit -> ());
          Pipeline.Serve.drain srv);
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      0

let run_serve socket_path queue_capacity max_in_flight shed_threshold serve_retries
    backoff_ns slack memo_capacity state_dir pump_batch fault_rate fault_seed budget_ms
    max_retries metrics_out log_out quality_ledger encode decode =
  if encode <> [] then begin
    set_binary_mode_out stdout true;
    List.iter (fun req -> Support.Frame.write stdout (unescape req)) encode;
    flush stdout;
    0
  end
  else if decode then begin
    set_binary_mode_in stdin true;
    let rec loop () =
      match Support.Frame.read stdin with
      | Ok None -> 0
      | Ok (Some payload) ->
          print_endline payload;
          loop ()
      | Error e ->
          Printf.eprintf "gpuaco serve --decode: %s\n" (Support.Frame.error_to_string e);
          14
    in
    loop ()
  end
  else begin
    let compile =
      Pipeline.Compile.make_config
        ~fault_rate:(Float.max 0.0 (Float.min 1.0 fault_rate))
        ?fault_seed ?compile_budget_ms:budget_ms ~max_retries ()
    in
    let compile = { compile with Pipeline.Compile.run_sequential = false } in
    let cfg =
      {
        (Pipeline.Serve.default_config compile) with
        Pipeline.Serve.queue_capacity = max 1 queue_capacity;
        max_in_flight = max 1 max_in_flight;
        shed_threshold;
        max_retries = max 0 serve_retries;
        backoff_base_ns = Float.max 0.0 backoff_ns;
        deadline_slack = slack;
        memo_capacity = max 0 memo_capacity;
        state_dir;
        quality_ledger;
      }
    in
    (* The daemon's registry is always live — the [metrics] and [watch]
       protocol verbs read it on demand; --metrics additionally dumps it
       to a file on exit. *)
    let metrics = Obs.Metrics.create () in
    let log =
      match log_out with Some _ -> Obs.Log.create () | None -> Obs.Log.null
    in
    let code =
      match socket_path with
      | None -> serve_stdio cfg metrics log ~batch:pump_batch
      | Some path -> serve_socket path cfg metrics log ~batch:pump_batch
    in
    (match metrics_out with Some file -> write_metrics metrics file | None -> ());
    (* the framed reply stream owns stdout in stdio mode *)
    (match log_out with Some file -> write_log ~err:true log file | None -> ());
    code
  end

let serve_cmd =
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the compile service as a long-lived daemon: length-prefixed compile \
         requests (generator spec or inline region text) arrive over stdin/stdout \
         or a Unix socket, pass bounded admission (overload is shed to the \
         Critical-Path schedule), compile under per-request deadlines with \
         retry/backoff, and are answered with typed, digest-stamped replies. \
         $(b,--encode)/$(b,--decode) are client helpers for scripting."
      ~exits:serve_exits
  in
  Cmd.v info
    Term.(
      const run_serve $ socket_arg $ queue_capacity_arg $ in_flight_arg
      $ shed_threshold_arg $ serve_retries_arg $ backoff_arg $ slack_arg
      $ memo_capacity_arg $ state_dir_arg $ pump_batch_arg $ fault_rate_arg
      $ fault_seed_arg $ budget_arg $ retries_arg $ metrics_out_arg $ log_out_arg
      $ quality_ledger_arg $ encode_arg $ decode_arg)

(* --- socket clients: request, live stats -------------------------------- *)

(* One connection, one exchange: write every request frame, shut down the
   send side (the daemon's pump reads to EOF), collect every reply frame.
   The daemon serves connections one at a time, so a fresh connection per
   poll is also the natural isolation unit. *)
let client_exchange path reqs =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (path ^ ": " ^ Unix.error_message e)
      | () ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              match
                let oc = Unix.out_channel_of_descr fd in
                let ic = Unix.in_channel_of_descr fd in
                List.iter (fun r -> Support.Frame.write oc r) reqs;
                flush oc;
                Unix.shutdown fd Unix.SHUTDOWN_SEND;
                let rec collect acc =
                  match Support.Frame.read ic with
                  | Ok None -> Ok (List.rev acc)
                  | Ok (Some payload) -> collect (payload :: acc)
                  | Error e -> Error (Support.Frame.error_to_string e)
                in
                collect []
              with
              | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
              | exception Sys_error m -> Error m
              | r -> r))

let client_socket_arg =
  let doc = "Unix socket of a running $(b,gpuaco serve --socket) daemon." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let request_args =
  let doc =
    "Request payload(s), one frame each (the sequence $(b,\\\\n) becomes a \
     newline, for inline region text)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"REQ" ~doc)

let run_request socket_path reqs =
  match socket_path with
  | None ->
      Printf.eprintf "gpuaco request: --socket PATH is required\n";
      2
  | Some path -> (
      match client_exchange path (List.map unescape reqs) with
      | Error m ->
          Printf.eprintf "gpuaco request: %s\n" m;
          14
      | Ok replies ->
          List.iter print_endline replies;
          0)

let request_cmd =
  let info =
    Cmd.info "request"
      ~doc:
        "Send request frames to a running $(b,gpuaco serve --socket) daemon over \
         one connection and print each reply payload (one per line; the \
         $(b,metrics) reply is multi-line). Exits 14 on transport failure."
      ~exits:serve_exits
  in
  Cmd.v info Term.(const run_request $ client_socket_arg $ request_args)

(* --- report -------------------------------------------------------------- *)

let ledger_arg =
  let doc = "Quality-ledger JSONL file to summarize (see $(b,--quality-ledger))." in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let top_arg =
  let doc = "How many worst-gap regions to list." in
  Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc)

let run_report ledger top =
  match ledger with
  | None ->
      Printf.eprintf "gpuaco report: --ledger FILE is required\n";
      2
  | Some file -> (
      match Pipeline.Quality.load ~file with
      | exception Sys_error m ->
          Printf.eprintf "gpuaco report: %s\n" m;
          1
      | records ->
          print_string (Pipeline.Quality.render_summary ~top records);
          0)

let report_cmd =
  let info =
    Cmd.info "report"
      ~doc:
        "Summarize a schedule-quality ledger (written by $(b,gpuaco compile \
         --quality-ledger) or a serving daemon): schedule-length gap to the lower \
         bound, occupancy-target hit rate, convergence shape, and the worst \
         regions by gap."
  in
  Cmd.v info Term.(const run_report $ ledger_arg $ top_arg)

(* --- trace --------------------------------------------------------------- *)

let trace_file_arg =
  let doc = "Output file for the Chrome trace-event JSON recording." in
  Arg.(value & opt string "gpuaco-trace.json" & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let lint_arg =
  let doc =
    "Instead of recording, validate an existing trace-event JSON file: well-formed \
     JSON, known phases, monotone timestamps per track, balanced B/E pairs."
  in
  Arg.(value & opt (some string) None & info [ "lint" ] ~docv:"FILE" ~doc)

let trace_seq_arg =
  let doc = "Also run the sequential (CPU-baseline) driver so its convergence series are recorded." in
  Arg.(value & flag & info [ "seq" ] ~doc)

let run_trace shape size seed fault_rate fault_seed budget_ms max_retries out metrics_out
    seq lint =
  match lint with
  | Some file ->
      let rep = Obs.Trace_check.lint_file file in
      print_string (Obs.Trace_check.report_to_string rep);
      if Obs.Trace_check.ok rep then 0 else 1
  | None ->
      let region = build_shape shape ~size ~seed in
      let config =
        Pipeline.Compile.make_config
          ~fault_rate:(Float.max 0.0 (Float.min 1.0 fault_rate))
          ?fault_seed ?compile_budget_ms:budget_ms ~max_retries ()
      in
      let config = { config with Pipeline.Compile.run_sequential = seq } in
      let trace = Obs.Trace.create () in
      let metrics = Obs.Metrics.create () in
      let r = Pipeline.Compile.run_region ~trace ~metrics config ~name:shape region in
      Printf.printf "region %s: %d instructions, degradation %s\n" shape
        r.Pipeline.Compile.n
        (Pipeline.Robust.degradation_label r.Pipeline.Compile.degradation);
      let product = Pipeline.Compile.product_run r in
      Printf.printf "simulated compile time: %.3f ms\n"
        ((product.Pipeline.Compile.run_pass1_time_ns
         +. product.Pipeline.Compile.run_pass2_time_ns)
        /. 1e6);
      Printf.printf "flight recorder: %d events recorded, %d dropped (capacity %d)\n"
        (Obs.Trace.recorded trace) (Obs.Trace.dropped trace) (Obs.Trace.capacity trace);
      print_string "\nwhere simulated time goes (span totals):\n";
      List.iteri
        (fun i (name, total_ns, n) ->
          if i < 12 then
            Printf.printf "  %-18s %10.3f ms  x%d\n" name (total_ns /. 1e6) n)
        (Obs.Trace.span_totals trace);
      (match Obs.Trace.instant_counts trace with
      | [] -> ()
      | instants ->
          print_string "\nevents:\n";
          List.iter (fun (name, n) -> Printf.printf "  %-24s x%d\n" name n) instants);
      print_newline ();
      print_string
        (Pipeline.Report.render_convergence (Pipeline.Report.convergence_rows_of_region r));
      Obs.Trace.write_chrome_json trace out;
      Printf.printf "\ntrace written to %s (open in Perfetto or chrome://tracing)\n" out;
      (match metrics_out with
      | Some file ->
          write_metrics metrics file;
          Printf.printf "metrics written to %s\n" file
      | None -> ());
      (* Self-check: the recording we just produced must lint clean. *)
      let rep = Obs.Trace_check.lint_string (Obs.Trace.to_chrome_json trace) in
      if Obs.Trace_check.ok rep then 0
      else begin
        print_string (Obs.Trace_check.report_to_string rep);
        1
      end

let trace_cmd =
  let info =
    Cmd.info "trace"
      ~doc:
        "Compile a shape with the flight recorder on and export the recording as \
         Chrome trace-event JSON, with a span/instant/convergence summary; or lint \
         an existing recording with $(b,--lint)."
  in
  Cmd.v info
    Term.(
      const run_trace $ shape_arg $ size_arg $ seed_arg $ fault_rate_arg $ fault_seed_arg
      $ budget_arg $ retries_arg $ trace_file_arg $ metrics_out_arg $ trace_seq_arg
      $ lint_arg)

(* --- dot ----------------------------------------------------------------- *)

let run_dot shape size seed =
  let region = build_shape shape ~size ~seed in
  print_string (Ddg.Graph.to_dot (Ddg.Graph.build region));
  0

let dot_cmd =
  let info = Cmd.info "dot" ~doc:"Print a shape's data dependence graph in Graphviz format." in
  Cmd.v info Term.(const run_dot $ shape_arg $ size_arg $ seed_arg)

(* --- stats --------------------------------------------------------------- *)

let once_arg =
  let doc = "Render one snapshot and exit (for scripts and CI)." in
  Arg.(value & flag & info [ "once" ] ~doc)

let interval_arg =
  let doc = "Seconds between polls of the daemon (clamped to 0.2s minimum)." in
  Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)

(* The watch reply is one line of [key=value] tokens after the
   [watch id=…] head; split it back into an assoc list for rendering. *)
let parse_watch_reply line =
  match String.split_on_char ' ' line with
  | _kind :: rest ->
      List.filter_map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some i ->
              Some
                ( String.sub tok 0 i,
                  String.sub tok (i + 1) (String.length tok - i - 1) )
          | None -> None)
        rest
  | [] -> []

let render_watch kv =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let v key = Option.value (List.assoc_opt key kv) ~default:"-" in
  line "GPUACO DAEMON  [%s]  persist=%s" (v "state") (v "persist");
  line "";
  line "  admission      queue %s (shed at %s)   in-flight %s" (v "queue-depth")
    (v "shed-point") (v "in-flight");
  line "  traffic        received %-6s served %-6s rejected %-6s shed %s"
    (v "received") (v "served") (v "rejected") (v "shed");
  line "  ledger         clean %-6s retried %-6s budget %-6s fallback %-6s shed %s"
    (v "clean") (v "retried") (v "budget-exceeded") (v "faulted-fallback")
    (v "shed-overload");
  line "  caches         memo %s (%s entries)   analysis %s" (v "memo-hit-rate")
    (v "memo-entries") (v "analysis-hit-rate");
  line "  latency        p50 %s ns   p99 %s ns   deadline-exceeded %s"
    (v "latency-p50-ns") (v "latency-p99-ns") (v "deadline-exceeded");
  line "  pool           busy %s   idle %s" (v "pool-busy") (v "pool-idle");
  Buffer.contents buf

let run_stats_daemon path ~once ~interval =
  graceful_signals ();
  let rec loop () =
    match client_exchange path [ "op=watch id=stats" ] with
    | Error m ->
        Printf.eprintf "gpuaco stats: %s\n" m;
        14
    | Ok replies -> (
        let watch =
          List.find_opt
            (fun l -> String.length l >= 6 && String.sub l 0 6 = "watch ")
            replies
        in
        match watch with
        | None ->
            Printf.eprintf "gpuaco stats: daemon sent no watch reply\n";
            14
        | Some line ->
            if not once then print_string "\027[2J\027[H";
            print_string (render_watch (parse_watch_reply line));
            flush stdout;
            if once then 0
            else begin
              (try Unix.sleepf (Float.max 0.2 interval)
               with Unix.Unix_error _ -> ());
              loop ()
            end)
  in
  (try loop () with Exit -> 0)

let run_stats seed socket_path once interval =
  match socket_path with
  | Some path -> run_stats_daemon path ~once ~interval
  | None ->
      let scale = { Workload.Suite.bench_scale with Workload.Suite.seed } in
      let suite = Workload.Suite.generate scale in
      let stats = Workload.Suite.stats suite in
      Printf.printf
        "benchmarks: %d\nkernels: %d\nregions: %d\nmax region size: %d\navg region size: %.1f\n"
        stats.Workload.Suite.num_benchmarks stats.Workload.Suite.num_kernels
        stats.Workload.Suite.num_regions stats.Workload.Suite.max_region_size
        stats.Workload.Suite.avg_region_size;
      0

let stats_cmd =
  let info =
    Cmd.info "stats"
      ~doc:
        "Without $(b,--socket): generate the rocPRIM-like suite and print its \
         statistics. With $(b,--socket): poll a running $(b,gpuaco serve) daemon's \
         $(b,watch) verb and render a live refreshing operational table (queue \
         depth, in-flight, shed, hit rates, latency quantiles, pool occupancy); \
         $(b,--once) prints a single snapshot. Exits 14 on transport failure."
      ~exits:serve_exits
  in
  Cmd.v info Term.(const run_stats $ seed_arg $ client_socket_arg $ once_arg $ interval_arg)

let () =
  let info = Cmd.info "gpuaco" ~doc:"ACO instruction scheduling for the GPU on the (simulated) GPU." in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            schedule_cmd; compile_cmd; serve_cmd; request_cmd; report_cmd; trace_cmd;
            dot_cmd; stats_cmd;
          ]))
