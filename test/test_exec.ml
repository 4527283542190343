(* The execute layer of the compile service: registry domain-safety, the
   content-addressed analysis cache, ride-along baseline sourcing, and
   the canonical-identity differentials — the suite report must be the
   same whether the cache is on or off and whether one domain or four
   compile it, fault injection and tight budgets included. *)

let params = Tu.test_params
let gpu = Tu.test_gpu

(* --- registry under concurrent registration ------------------------------ *)

let test_registry_domains () =
  (* Hammer the registry from several domains at once: registrations and
     [ensure_backends] racing must neither crash nor corrupt the order
     list (re-registration keeps the first position, every name resolves
     afterwards). *)
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              Pipeline.Compile.ensure_backends ();
              ignore (Engine.Registry.find "par");
              ignore (Engine.Registry.names ());
              ignore (Engine.Registry.mem (if d mod 2 = 0 then "seq" else "weighted"))
            done))
  in
  Array.iter Domain.join domains;
  List.iter
    (fun b -> Alcotest.(check bool) (b ^ " registered") true (Engine.Registry.mem b))
    [ "seq"; "par"; "weighted" ];
  let names = Engine.Registry.names () in
  let sorted = List.sort_uniq String.compare names in
  Alcotest.(check int) "no duplicate registrations" (List.length sorted)
    (List.length names)

(* --- analysis cache ------------------------------------------------------ *)

(* Structurally equal region under fresh names: [random_region] is
   deterministic in the seed, so building it twice yields equal graphs
   whose instruction names differ only by builder counter state. *)
let test_cache_content_addressing () =
  let r1 = Tu.random_region ~max_size:25 11 in
  let r2 = Tu.random_region ~max_size:25 11 in
  let r3 = Tu.random_region ~max_size:25 12 in
  Alcotest.(check bool) "same structure, same fingerprint" true
    (Engine.Region_ctx.fingerprint_of_region r1
    = Engine.Region_ctx.fingerprint_of_region r2);
  Alcotest.(check bool) "different structure, different fingerprint" false
    (Engine.Region_ctx.fingerprint_of_region r1
    = Engine.Region_ctx.fingerprint_of_region r3);
  let cache = Pipeline.Analysis.create () in
  let c1 = Pipeline.Analysis.get cache Tu.occ r1 in
  let c2 = Pipeline.Analysis.get cache Tu.occ r2 in
  let _ = Pipeline.Analysis.get cache Tu.occ r3 in
  Alcotest.(check bool) "structural duplicate shares the context" true (c1 == c2);
  let s = Pipeline.Analysis.stats cache in
  Alcotest.(check int) "hits" 1 s.Pipeline.Analysis.hits;
  Alcotest.(check int) "misses" 2 s.Pipeline.Analysis.misses;
  Alcotest.(check int) "entries" 2 s.Pipeline.Analysis.entries

let test_cache_lru_eviction () =
  let cache = Pipeline.Analysis.create ~capacity:2 () in
  let ra = Tu.random_region ~max_size:20 21 in
  let rb = Tu.random_region ~max_size:20 22 in
  let rc = Tu.random_region ~max_size:20 23 in
  ignore (Pipeline.Analysis.get cache Tu.occ ra);
  ignore (Pipeline.Analysis.get cache Tu.occ rb);
  (* touch [ra] so [rb] is the least recently used, then overflow *)
  ignore (Pipeline.Analysis.get cache Tu.occ ra);
  ignore (Pipeline.Analysis.get cache Tu.occ rc);
  let s = Pipeline.Analysis.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Pipeline.Analysis.evictions;
  Alcotest.(check int) "bounded residency" 2 s.Pipeline.Analysis.entries;
  (* [ra] survived (recently used), [rb] was evicted and recomputes *)
  ignore (Pipeline.Analysis.get cache Tu.occ ra);
  Alcotest.(check int) "victim is the LRU entry"
    (s.Pipeline.Analysis.misses)
    (Pipeline.Analysis.stats cache).Pipeline.Analysis.misses;
  ignore (Pipeline.Analysis.get cache Tu.occ rb);
  Alcotest.(check int) "evicted entry recomputes"
    (s.Pipeline.Analysis.misses + 1)
    (Pipeline.Analysis.stats cache).Pipeline.Analysis.misses

let test_cache_disabled () =
  let cache = Pipeline.Analysis.disabled () in
  Alcotest.(check bool) "not caching" false (Pipeline.Analysis.caching cache);
  let r = Tu.random_region ~max_size:20 31 in
  ignore (Pipeline.Analysis.get cache Tu.occ r);
  ignore (Pipeline.Analysis.get cache Tu.occ r);
  let s = Pipeline.Analysis.stats cache in
  Alcotest.(check int) "no hits without storage" 0 s.Pipeline.Analysis.hits;
  Alcotest.(check int) "every lookup computes" 2 s.Pipeline.Analysis.misses;
  Alcotest.(check int) "nothing retained" 0 s.Pipeline.Analysis.entries

let test_cache_computes_once () =
  (* The once-per-distinct-region invariant: a duplicate-heavy suite
     compiled under a race dispatch plus the ride-along baseline (four
     analysis consumers per region) must build one closure, one register
     layout and one critical path per distinct region. A count above the
     distinct-region count means some consumer built its own. *)
  let suite =
    Workload.Suite.replicate ~copies:2
      (Workload.Suite.generate
         { Workload.Suite.test_scale with Workload.Suite.num_kernels = 2 })
  in
  let distinct =
    let seen = Hashtbl.create 32 in
    List.iter
      (fun r -> Hashtbl.replace seen (Engine.Region_ctx.fingerprint_of_region r) ())
      (Workload.Suite.all_regions suite);
    Hashtbl.length seen
  in
  let config =
    {
      (Pipeline.Compile.make_config ~gpu
         ~dispatch:(Engine.Dispatch.Race [ "par"; "weighted" ])
         ())
      with
      Pipeline.Compile.params;
      run_sequential = true;
    }
  in
  let cache = Pipeline.Analysis.create () in
  let c0 = Ddg.Closure.compute_count () in
  let l0 = Sched.Rp_tracker.layout_count () in
  let p0 = Ddg.Critpath.compute_count () in
  ignore (Pipeline.Executor.run_suite ~jobs:1 ~cache config suite);
  Alcotest.(check int) "one closure analysis per distinct region" distinct
    (Ddg.Closure.compute_count () - c0);
  Alcotest.(check int) "one register layout per distinct region" distinct
    (Sched.Rp_tracker.layout_count () - l0);
  Alcotest.(check int) "one critical path per distinct region" distinct
    (Ddg.Critpath.compute_count () - p0);
  let s = Pipeline.Analysis.stats cache in
  Alcotest.(check int) "one cache computation per distinct region" distinct
    s.Pipeline.Analysis.misses;
  Alcotest.(check bool) "duplicate suite hits at least half the lookups" true
    (Pipeline.Analysis.hit_rate s >= 0.5)

(* --- ride-along baseline sourcing ---------------------------------------- *)

let test_ride_along_shares_context () =
  let region = Tu.random_region ~max_size:30 41 in
  let config =
    { (Pipeline.Compile.make_config ~gpu ()) with Pipeline.Compile.params }
  in
  let rc = Engine.Region_ctx.of_region config.Pipeline.Compile.occ region in
  let r = Pipeline.Compile.run_region ~ctx:rc config ~name:"ride" region in
  (* the ride-along sequential run started from the shared context's
     heuristic schedule: its recorded heuristic cost is the context's *)
  (match Pipeline.Compile.find_run r "seq" with
  | None -> Alcotest.fail "run_sequential did not add a seq baseline run"
  | Some run ->
      Alcotest.(check bool) "baseline heuristic cost comes from the shared context"
        true
        (run.Pipeline.Compile.result.Engine.Types.heuristic_cost
        = rc.Engine.Region_ctx.amd_cost));
  Alcotest.(check bool) "report heuristic cost comes from the shared context" true
    (r.Pipeline.Compile.heuristic_cost = rc.Engine.Region_ctx.amd_cost);
  Alcotest.(check bool) "CP sensitivity cost comes from the shared context" true
    (r.Pipeline.Compile.cp_cost = rc.Engine.Region_ctx.cp_cost)

(* --- canonical identity of the multi-domain executor --------------------- *)

let small_suite seed =
  Workload.Suite.generate
    { Workload.Suite.test_scale with Workload.Suite.seed; num_kernels = 2 }

let digest_of ~jobs ~cache config suite =
  Pipeline.Report_digest.digest (Pipeline.Executor.run_suite ~jobs ?cache config suite)

let exec_identity =
  QCheck.Test.make ~count:3
    ~name:"suite report is canonically identical across cache and domain count"
    QCheck.small_int
    (fun seed ->
      let suite = small_suite seed in
      let config =
        { (Pipeline.Compile.make_config ~gpu ()) with Pipeline.Compile.params }
      in
      let reference = digest_of ~jobs:1 ~cache:None config suite in
      Alcotest.(check string) "cache on = cache off" reference
        (digest_of ~jobs:1 ~cache:(Some (Pipeline.Analysis.create ())) config suite);
      Alcotest.(check string) "jobs=4 = jobs=1" reference
        (digest_of ~jobs:4 ~cache:(Some (Pipeline.Analysis.create ())) config suite);
      true)

let exec_identity_faulted =
  QCheck.Test.make ~count:2
    ~name:"canonical identity holds under injected faults and tight budgets"
    QCheck.small_int
    (fun seed ->
      let suite = small_suite (seed + 1000) in
      List.iter
        (fun (fault_rate, budget_ms) ->
          let config =
            {
              (Pipeline.Compile.make_config ~gpu ~fault_rate
                 ~fault_seed:(seed + 7) ~compile_budget_ms:budget_ms ())
              with
              Pipeline.Compile.params;
            }
          in
          let reference = digest_of ~jobs:1 ~cache:None config suite in
          Alcotest.(check string)
            (Printf.sprintf "rate=%.1f budget=%.3fms: jobs=4 = jobs=1" fault_rate
               budget_ms)
            reference
            (digest_of ~jobs:4 ~cache:(Some (Pipeline.Analysis.create ())) config suite);
          Alcotest.(check string)
            (Printf.sprintf "rate=%.1f budget=%.3fms: cache on = off" fault_rate
               budget_ms)
            reference
            (digest_of ~jobs:1 ~cache:(Some (Pipeline.Analysis.create ())) config suite))
        [ (0.5, 5.0); (0.9, 0.01) ];
      true)

let test_degradation_ledger_stable () =
  (* The degradation ledger (fault tallies and severities) is part of the
     digest, but assert it directly too: a faulted, tightly budgeted
     compile tallies identically whether one or four domains ran it. *)
  let suite = small_suite 77 in
  let config =
    {
      (Pipeline.Compile.make_config ~gpu ~fault_rate:0.7 ~fault_seed:3
         ~compile_budget_ms:0.05 ())
      with
      Pipeline.Compile.params;
    }
  in
  let tally report =
    Pipeline.Robust.tally_of_list
      (List.concat_map
         (fun (kr : Pipeline.Compile.kernel_report) ->
           List.map
             (fun (r : Pipeline.Compile.region_report) ->
               r.Pipeline.Compile.degradation)
             kr.Pipeline.Compile.regions)
         report.Pipeline.Compile.kernels)
  in
  let t1 = tally (Pipeline.Executor.run_suite ~jobs:1 config suite) in
  let t4 =
    tally
      (Pipeline.Executor.run_suite ~jobs:4
         ~cache:(Pipeline.Analysis.create ())
         config suite)
  in
  Alcotest.(check bool) "ledgers agree" true (t1 = t4)

(* --- job flattening and claiming ------------------------------------------ *)

let test_jobs_flatten () =
  (* The merge reassembles reports by job index, so the flattening must
     list kernels in order and each kernel's regions in order, named and
     budgeted as a sequential compile names and budgets them. *)
  let config =
    { (Pipeline.Compile.make_config ~gpu ()) with Pipeline.Compile.params }
  in
  let suite = small_suite 9 in
  let work = Pipeline.Executor.jobs_of_suite config suite in
  let expected =
    List.concat_map
      (fun (k : Workload.Suite.kernel) ->
        List.mapi
          (fun ri r -> (Printf.sprintf "%s/r%d" k.Workload.Suite.kernel_name ri, r))
          k.Workload.Suite.regions)
      suite.Workload.Suite.kernels
  in
  Alcotest.(check (list string)) "names in suite order" (List.map fst expected)
    (Array.to_list (Array.map (fun j -> j.Pipeline.Executor.j_name) work));
  List.iteri
    (fun i (name, r) ->
      let j = work.(i) in
      Alcotest.(check bool) (name ^ " carries its source region") true
        (j.Pipeline.Executor.j_region == r);
      Alcotest.(check bool) (name ^ " has its size-class budget") true
        (Float.equal j.Pipeline.Executor.j_budget_ns
           (Pipeline.Robust.budget_for config.Pipeline.Compile.robust
              ~n:(Ir.Region.size r))))
    expected

let test_claims_every_job_once () =
  (* Four workers share one claim cursor: each job's wall-track span
     ("job <name>", argument = its index) appears exactly once, on one of
     the run's worker tracks. *)
  let suite = Workload.Suite.skewed ~giants:1 ~tiny:6 () in
  let config =
    { (Pipeline.Compile.make_config ~gpu ()) with Pipeline.Compile.params }
  in
  let work = Pipeline.Executor.jobs_of_suite config suite in
  let trace = Obs.Trace.create () in
  let pool = Support.Domain_pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Support.Domain_pool.shutdown pool)
    (fun () ->
      ignore (Pipeline.Executor.run_suite ~jobs:4 ~pool ~trace config suite));
  let claimed =
    List.filter_map
      (fun e ->
        match e.Obs.Trace.e_arg with
        | Some ("job", v)
          when e.Obs.Trace.e_kind = `Span
               && e.Obs.Trace.e_track >= Obs.Trace.wall_track_base ->
            Alcotest.(check bool) "on a worker track" true
              (e.Obs.Trace.e_track < Obs.Trace.wall_track_base + 4);
            let i = int_of_float v in
            Alcotest.(check string) "span names its job"
              ("job " ^ work.(i).Pipeline.Executor.j_name)
              e.Obs.Trace.e_name;
            Some i
        | _ -> None)
      (Obs.Trace.events trace)
  in
  Alcotest.(check (list int)) "every job claimed exactly once"
    (List.init (Array.length work) Fun.id)
    (List.sort compare claimed)

(* --- persistent domain pool ----------------------------------------------- *)

let test_pool_spawns_once () =
  let pool = Support.Domain_pool.create ~size:3 () in
  Alcotest.(check int) "lazy: nothing spawned at create" 0
    (Support.Domain_pool.spawned pool);
  let config =
    { (Pipeline.Compile.make_config ~gpu ()) with Pipeline.Compile.params }
  in
  let suite = Workload.Suite.skewed ~giants:1 ~tiny:6 () in
  let reference = digest_of ~jobs:1 ~cache:None config suite in
  Fun.protect
    ~finally:(fun () -> Support.Domain_pool.shutdown pool)
    (fun () ->
      ignore (Pipeline.Executor.run_suite ~jobs:4 ~pool config suite);
      let after_first = Support.Domain_pool.spawned pool in
      Alcotest.(check bool) "helpers spawned on first parallel run" true
        (after_first > 0 && after_first <= 3);
      for _ = 1 to 3 do
        Alcotest.(check string) "digest stable across pooled runs" reference
          (Pipeline.Report_digest.digest
             (Pipeline.Executor.run_suite ~jobs:4 ~pool config suite))
      done;
      Alcotest.(check int) "domains spawned once across consecutive suite runs"
        after_first
        (Support.Domain_pool.spawned pool))

(* --- one metrics registry across workers --------------------------------- *)

let test_parallel_metrics () =
  (* Workers write the caller's registry directly, so a four-worker
     compile must meter what the sequential compile meters. Only the
     order names register in and float rounding of histogram sums may
     differ: the rows compared keep every counter total, every count,
     min and max, every series point, and each histogram's bucket
     ladder. *)
  let suite = Workload.Suite.generate Workload.Suite.test_scale in
  let config =
    { (Pipeline.Compile.make_config ~gpu ()) with Pipeline.Compile.params }
  in
  let meter ~jobs ?pool () =
    let metrics = Obs.Metrics.create () in
    ignore
      (Pipeline.Executor.run_suite ~jobs ?pool ~metrics
         ~cache:(Pipeline.Analysis.create ())
         config suite);
    metrics
  in
  let rows metrics =
    List.filter_map
      (fun line ->
        match String.split_on_char ',' line with
        | [ name; kind; index; value; count; _sum; vmin; vmax; _mean ] ->
            let value = if kind = "counter" || kind = "point" then value else "" in
            Some (String.concat "," [ name; kind; index; value; count; vmin; vmax ])
        | _ -> None)
      (List.tl (String.split_on_char '\n' (Obs.Metrics.to_csv metrics)))
    |> List.sort compare
  in
  let ladders metrics =
    List.filter_map
      (fun name ->
        let m = Option.get (Obs.Metrics.get metrics name) in
        match Obs.Metrics.kind_of m with
        | Obs.Metrics.Histogram -> Some (name, Array.to_list (Obs.Metrics.buckets m))
        | _ -> None)
      (List.sort compare (Obs.Metrics.names metrics))
  in
  let sequential = meter ~jobs:1 () in
  let pool = Support.Domain_pool.create ~size:3 () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Support.Domain_pool.shutdown pool)
      (fun () -> meter ~jobs:4 ~pool ())
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) "the compile meters every kind it records" true
        (List.exists
           (fun name ->
             Obs.Metrics.kind_of (Option.get (Obs.Metrics.get sequential name)) = kind)
           (Obs.Metrics.names sequential)))
    [ Obs.Metrics.Counter; Obs.Metrics.Histogram; Obs.Metrics.Series ];
  Alcotest.(check (list string)) "same names"
    (List.sort compare (Obs.Metrics.names sequential))
    (List.sort compare (Obs.Metrics.names parallel));
  Alcotest.(check (list string)) "same totals, counts, extremes and points"
    (rows sequential) (rows parallel);
  Alcotest.(check bool) "same bucket ladders" true (ladders sequential = ladders parallel)

(* --- arena pooling -------------------------------------------------------- *)

let test_arena_pooling () =
  let config =
    { (Pipeline.Compile.make_config ~gpu ()) with Pipeline.Compile.params }
  in
  let suite = small_suite 5 in
  let r0 = Support.Arena.reuses () in
  ignore (Pipeline.Executor.run_suite ~jobs:1 config suite);
  Alcotest.(check bool) "arenas are pooled across region jobs, not re-created" true
    (Support.Arena.reuses () > r0)

(* --- skewed suites on a shared pool, under faults ------------------------- *)

let exec_identity_skewed =
  QCheck.Test.make ~count:2
    ~name:"skewed suites: canonical identity under faults on a shared pool"
    QCheck.small_int
    (fun seed ->
      let suite = Workload.Suite.skewed ~seed ~giants:1 ~tiny:8 () in
      let pool = Support.Domain_pool.create ~size:3 () in
      Fun.protect
        ~finally:(fun () -> Support.Domain_pool.shutdown pool)
        (fun () ->
          let config =
            {
              (Pipeline.Compile.make_config ~gpu ~fault_rate:0.6
                 ~fault_seed:(seed + 5) ~compile_budget_ms:0.05 ())
              with
              Pipeline.Compile.params;
            }
          in
          let reference = digest_of ~jobs:1 ~cache:None config suite in
          Alcotest.(check string) "jobs=4 on the pool = jobs=1" reference
            (Pipeline.Report_digest.digest
               (Pipeline.Executor.run_suite ~jobs:4 ~pool
                  ~cache:(Pipeline.Analysis.create ())
                  config suite)));
      true)

(* --- trace merge ---------------------------------------------------------- *)

let test_trace_merge () =
  (* A four-worker trace is the jobs=1 trace re-laid on the simulated
     timeline: same event population (counts per span name), and the
     merged document still passes the structural lint. Timestamps are
     not byte-compared — per-slice shifts round differently than the
     sequential clock walk. *)
  let suite = Workload.Suite.skewed ~giants:1 ~tiny:6 () in
  let config =
    { (Pipeline.Compile.make_config ~gpu ()) with Pipeline.Compile.params }
  in
  let t1 = Obs.Trace.create () in
  ignore
    (Pipeline.Executor.run_suite ~jobs:1 ~trace:t1
       ~cache:(Pipeline.Analysis.create ())
       config suite);
  let t4 = Obs.Trace.create () in
  let pool = Support.Domain_pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Support.Domain_pool.shutdown pool)
    (fun () ->
      ignore
        (Pipeline.Executor.run_suite ~jobs:4 ~pool ~trace:t4
           ~cache:(Pipeline.Analysis.create ())
           config suite));
  Alcotest.(check bool) "traced something" true (Obs.Trace.recorded t1 > 0);
  (* compare the simulated timeline only: a parallel run additionally
     lays down wall-clock worker tracks (>= wall_track_base) that a
     sequential run has no workers to produce *)
  let sim_events t =
    List.filter (fun e -> e.Obs.Trace.e_track < Obs.Trace.wall_track_base)
      (Obs.Trace.events t)
  in
  Alcotest.(check int) "same number of simulated events"
    (List.length (sim_events t1))
    (List.length (sim_events t4));
  Alcotest.(check bool) "parallel run lays down wall-clock tracks" true
    (List.exists (fun e -> e.Obs.Trace.e_track >= Obs.Trace.wall_track_base)
       (Obs.Trace.events t4));
  let counts t =
    let tally = Hashtbl.create 32 in
    List.iter
      (fun e ->
        if e.Obs.Trace.e_kind = `Span then
          Hashtbl.replace tally e.Obs.Trace.e_name
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally e.Obs.Trace.e_name)))
      (sim_events t);
    List.sort compare (Hashtbl.fold (fun n c acc -> (n, c) :: acc) tally [])
  in
  Alcotest.(check (list (pair string int))) "same span counts per name" (counts t1)
    (counts t4);
  List.iter
    (fun t ->
      let r = Obs.Trace_check.lint_string (Obs.Trace.to_chrome_json t) in
      if not (Obs.Trace_check.ok r) then
        Alcotest.failf "trace fails lint: %s" (Obs.Trace_check.report_to_string r))
    [ t1; t4 ];
  let r4 = Obs.Trace_check.lint_string (Obs.Trace.to_chrome_json t4) in
  Alcotest.(check bool) "lint sees the wall-clock process" true
    (r4.Obs.Trace_check.wall_tracks >= 1)

let suite =
  [
    ("registry survives concurrent registration", `Quick, test_registry_domains);
    ("jobs flatten in suite order", `Quick, test_jobs_flatten);
    ("parallel run claims every job exactly once", `Quick, test_claims_every_job_once);
    ("domain pool spawns once, reused across runs", `Quick, test_pool_spawns_once);
    ("a parallel compile meters what a sequential one does", `Quick,
     test_parallel_metrics);
    ("arenas pool across region jobs", `Quick, test_arena_pooling);
    ("parallel trace merges onto the simulated timeline", `Quick, test_trace_merge);
    ("analysis cache is content-addressed", `Quick, test_cache_content_addressing);
    ("analysis cache evicts LRU at capacity", `Quick, test_cache_lru_eviction);
    ("capacity 0 meters without storing", `Quick, test_cache_disabled);
    ("analysis runs once per distinct region", `Quick, test_cache_computes_once);
    ("ride-along baseline shares the region context", `Quick,
     test_ride_along_shares_context);
    ("degradation ledger is domain-count independent", `Quick,
     test_degradation_ledger_stable);
  ]
  @ Tu.qtests [ exec_identity; exec_identity_faulted; exec_identity_skewed ]
