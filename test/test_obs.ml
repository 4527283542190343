(* Flight-recorder safety net.

   1. Unit tests of the [Obs.Trace] ring (wrap-around accounting, span
      totals, the disabled recorder) and of the [Obs.Metrics] registry
      (kinds, headline values, CSV/JSON export).
   2. Round-trip: [Trace.to_chrome_json] must pass [Trace_check]'s lint
      (well-formed JSON, monotone timestamps, balanced B/E pairs), and
      the lint must reject malformed documents.
   3. The observability contract as a qcheck differential: compiling a
      random region with live recorders attached must be byte-identical
      to the uninstrumented compile — same schedules, same costs, same
      simulated times, same degradation ledger, same fault counts —
      across fault rates and compile budgets. Tracing may not perturb
      any RNG stream or cost model. *)

(* --- trace ring ---------------------------------------------------------- *)

let test_ring_wrap () =
  let t = Obs.Trace.create ~capacity:16 () in
  Alcotest.(check bool) "enabled" true (Obs.Trace.enabled t);
  Alcotest.(check int) "capacity" 16 (Obs.Trace.capacity t);
  for i = 0 to 39 do
    Obs.Trace.span t ~track:1 ~name:"s" ~ts:(float_of_int i) ~dur:1.0
  done;
  Alcotest.(check int) "recorded counts every event" 40 (Obs.Trace.recorded t);
  Alcotest.(check int) "dropped = recorded - capacity" 24 (Obs.Trace.dropped t);
  let evs = Obs.Trace.events t in
  Alcotest.(check int) "ring keeps the last capacity events" 16 (List.length evs);
  (* oldest first: the survivors are events 24..39 *)
  (match evs with
  | first :: _ -> Alcotest.(check (float 0.0)) "oldest survivor" 24.0 first.Obs.Trace.e_ts
  | [] -> Alcotest.fail "no events");
  let last = List.nth evs 15 in
  Alcotest.(check (float 0.0)) "newest survivor" 39.0 last.Obs.Trace.e_ts

let test_span_totals () =
  let t = Obs.Trace.create () in
  Obs.Trace.span t ~track:0 ~name:"long" ~ts:0.0 ~dur:100.0;
  Obs.Trace.span t ~track:1 ~name:"short" ~ts:0.0 ~dur:3.0;
  Obs.Trace.span t ~track:1 ~name:"short" ~ts:5.0 ~dur:4.0;
  Obs.Trace.instant t ~track:1 ~name:"tick" ~ts:1.0;
  Obs.Trace.instant t ~track:1 ~name:"tick" ~ts:2.0;
  Obs.Trace.instant_arg t ~track:0 ~name:"boom" ~ts:3.0 ~key:"lane" ~value:4.0;
  Alcotest.(check (list (triple string (float 0.0) int)))
    "totals, longest first"
    [ ("long", 100.0, 1); ("short", 7.0, 2) ]
    (Obs.Trace.span_totals t);
  Alcotest.(check (list (pair string int)))
    "instant counts" [ ("boom", 1); ("tick", 2) ] (Obs.Trace.instant_counts t)

let test_null_recorders () =
  let t = Obs.Trace.null in
  Alcotest.(check bool) "trace disabled" false (Obs.Trace.enabled t);
  Obs.Trace.span t ~track:0 ~name:"s" ~ts:0.0 ~dur:1.0;
  Obs.Trace.instant t ~track:0 ~name:"i" ~ts:0.0;
  Obs.Trace.advance t 10.0;
  Alcotest.(check int) "null records nothing" 0 (Obs.Trace.recorded t);
  Alcotest.(check (float 0.0)) "null clock pinned" 0.0 (Obs.Trace.now t);
  let m = Obs.Metrics.null in
  Alcotest.(check bool) "metrics disabled" false (Obs.Metrics.enabled m);
  Obs.Metrics.incr m "c";
  Obs.Metrics.push m "s" 1.0;
  Alcotest.(check (list string)) "null registers nothing" [] (Obs.Metrics.names m)

let test_simulated_clock () =
  let t = Obs.Trace.create () in
  Obs.Trace.set_now t 100.0;
  Obs.Trace.advance t 50.0;
  Alcotest.(check (float 0.0)) "cursor" 150.0 (Obs.Trace.now t)

(* --- chrome export round-trip -------------------------------------------- *)

let test_chrome_json_lints () =
  let t = Obs.Trace.create () in
  Obs.Trace.name_track t 0 "driver";
  Obs.Trace.name_track t 2 "wavefront 0";
  (* children recorded before their enclosing parent: the exporter must
     still emit properly nested B/E pairs *)
  Obs.Trace.span t ~track:2 ~name:"round" ~ts:0.0 ~dur:10.0;
  Obs.Trace.span t ~track:2 ~name:"round" ~ts:10.0 ~dur:10.0;
  Obs.Trace.span_arg t ~track:2 ~name:"iteration" ~ts:0.0 ~dur:20.0 ~key:"best"
    ~value:42.0;
  Obs.Trace.instant t ~track:2 ~name:"fault" ~ts:5.0;
  Obs.Trace.span t ~track:0 ~name:"region" ~ts:0.0 ~dur:25.0;
  let json = Obs.Trace.to_chrome_json t in
  let r = Obs.Trace_check.lint_string json in
  if not (Obs.Trace_check.ok r) then
    Alcotest.failf "lint failed:\n%s" (Obs.Trace_check.report_to_string r);
  Alcotest.(check int) "span count" 4 r.Obs.Trace_check.spans;
  Alcotest.(check int) "instant count" 1 r.Obs.Trace_check.instants;
  Alcotest.(check int) "track count" 2 r.Obs.Trace_check.tracks

let test_lint_rejects_malformed () =
  let bad s = not (Obs.Trace_check.ok (Obs.Trace_check.lint_string s)) in
  Alcotest.(check bool) "truncated JSON" true (bad "{\"traceEvents\": [");
  Alcotest.(check bool) "not a trace" true (bad "{\"foo\": 1}");
  Alcotest.(check bool) "unbalanced B" true
    (bad
       "[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":1}]");
  Alcotest.(check bool) "E without B" true
    (bad
       "[{\"name\":\"a\",\"ph\":\"E\",\"ts\":0,\"pid\":0,\"tid\":1}]");
  Alcotest.(check bool) "non-monotone ts" true
    (bad
       "[{\"name\":\"a\",\"ph\":\"i\",\"ts\":5,\"pid\":0,\"tid\":1},\n\
        {\"name\":\"b\",\"ph\":\"i\",\"ts\":1,\"pid\":0,\"tid\":1}]");
  (* a well-formed minimal trace passes *)
  Alcotest.(check bool) "minimal trace passes" false
    (bad
       "[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":1},\n\
        {\"name\":\"a\",\"ph\":\"E\",\"ts\":2,\"pid\":0,\"tid\":1}]")

(* --- metrics registry ----------------------------------------------------- *)

let test_metrics_kinds () =
  let by_name =
    [
      (fun m ->
        Obs.Metrics.incr m "c";
        Obs.Metrics.add m "c" 4);
      (fun m ->
        Obs.Metrics.set m "g" 2.0;
        Obs.Metrics.set m "g" 7.0);
      (fun m ->
        Obs.Metrics.observe m "h" 1.0;
        Obs.Metrics.observe m "h" 3.0);
      (fun m ->
        Obs.Metrics.push m "s" 10.0;
        Obs.Metrics.push m "s" 8.0;
        Obs.Metrics.push m "s" 8.0);
    ]
  in
  let registry touches =
    let m = Obs.Metrics.create () in
    List.iter (fun touch -> touch m) touches;
    m
  in
  (* The same values, every name first touched in the opposite order:
     names list sorted, so every export is byte-equal. *)
  let m = registry by_name and reversed = registry (List.rev by_name) in
  Alcotest.(check (list string)) "registration order" [ "c"; "g"; "h"; "s" ]
    (Obs.Metrics.names reversed);
  Alcotest.(check string) "CSV independent of touch order" (Obs.Metrics.to_csv m)
    (Obs.Metrics.to_csv reversed);
  Alcotest.(check string) "JSON independent of touch order" (Obs.Metrics.to_json m)
    (Obs.Metrics.to_json reversed);
  Alcotest.(check string) "Prometheus independent of touch order" (Obs.Metrics.to_prometheus m)
    (Obs.Metrics.to_prometheus reversed);
  let get n = Option.get (Obs.Metrics.get m n) in
  Alcotest.(check bool) "counter kind" true (Obs.Metrics.kind_of (get "c") = Obs.Metrics.Counter);
  Alcotest.(check (float 0.0)) "counter value" 5.0 (Obs.Metrics.value (get "c"));
  Alcotest.(check bool) "gauge kind" true (Obs.Metrics.kind_of (get "g") = Obs.Metrics.Gauge);
  Alcotest.(check (float 0.0)) "gauge last" 7.0 (Obs.Metrics.value (get "g"));
  Alcotest.(check int) "histogram count" 2 (Obs.Metrics.count (get "h"));
  Alcotest.(check (float 0.0)) "histogram sum" 4.0 (Obs.Metrics.sum (get "h"));
  Alcotest.(check (float 0.0)) "histogram mean" 2.0 (Obs.Metrics.mean (get "h"));
  Alcotest.(check bool) "series kind" true (Obs.Metrics.kind_of (get "s") = Obs.Metrics.Series);
  Alcotest.(check (array (float 0.0))) "series points" [| 10.0; 8.0; 8.0 |]
    (Obs.Metrics.series (get "s"));
  Alcotest.(check (float 0.0)) "series last" 8.0 (Obs.Metrics.last (get "s"));
  Alcotest.(check (option string)) "unknown name" None
    (Option.map (fun _ -> "x") (Obs.Metrics.get m "nope"))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_metrics_export () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m "faults.total" 3;
  Obs.Metrics.push m "r0.best_cost" 33.0;
  Obs.Metrics.push m "r0.best_cost" 31.0;
  let csv = Obs.Metrics.to_csv m in
  Alcotest.(check bool) "csv header" true
    (contains csv "metric,kind,index,value,count,sum,min,max,mean");
  Alcotest.(check bool) "csv counter row" true (contains csv "faults.total,counter");
  Alcotest.(check bool) "csv point rows" true (contains csv "r0.best_cost,point,1,31");
  let json = Obs.Metrics.to_json m in
  (* the registry's JSON must itself be well-formed *)
  (match Obs.Trace_check.parse_json json with
  | Obs.Trace_check.Obj _ -> ()
  | _ -> Alcotest.fail "metrics JSON is not an object"
  | exception Obs.Trace_check.Parse_error e -> Alcotest.failf "metrics JSON: %s" e);
  Alcotest.(check bool) "json has series" true (contains json "r0.best_cost")

(* --- structured log ------------------------------------------------------- *)

let test_log_ring () =
  let l = Obs.Log.create ~capacity:16 ~level:Obs.Log.Info () in
  Alcotest.(check bool) "enabled" true (Obs.Log.enabled l);
  Alcotest.(check int) "capacity" 16 (Obs.Log.capacity l);
  Obs.Log.debug l "below.level" [];
  Alcotest.(check int) "debug filtered below Info" 0 (Obs.Log.recorded l);
  for i = 0 to 39 do
    Obs.Log.info l "tick" [ ("i", Obs.Log.Int i) ]
  done;
  Alcotest.(check int) "recorded counts every accepted entry" 40 (Obs.Log.recorded l);
  Alcotest.(check int) "dropped = recorded - capacity" 24 (Obs.Log.dropped l);
  let es = Obs.Log.entries l in
  Alcotest.(check int) "ring keeps the last capacity entries" 16 (List.length es);
  (match es with
  | first :: _ ->
      Alcotest.(check (list (pair string bool))) "oldest survivor is entry 24"
        [ ("i", true) ]
        (List.map (fun (k, f) -> (k, f = Obs.Log.Int 24)) first.Obs.Log.e_fields)
  | [] -> Alcotest.fail "no entries");
  let l2 = Obs.Log.create ~level:Obs.Log.Warn () in
  Obs.Log.info l2 "quiet" [];
  Obs.Log.warn l2 "loud" [];
  Obs.Log.error l2 "louder" [];
  Alcotest.(check (list string)) "level gate keeps warn and error"
    [ "loud"; "louder" ]
    (List.map (fun e -> e.Obs.Log.e_event) (Obs.Log.entries l2))

let test_log_child_fields () =
  let l = Obs.Log.create () in
  let child = Obs.Log.with_fields l [ ("req", Obs.Log.Str "r1") ] in
  let grandchild = Obs.Log.with_fields child [ ("worker", Obs.Log.Int 3) ] in
  Obs.Log.info l "plain" [];
  Obs.Log.info child "tagged" [ ("x", Obs.Log.Int 1) ];
  Obs.Log.info grandchild "nested" [];
  (* children share the parent's ring *)
  Alcotest.(check int) "one shared ring" 3 (Obs.Log.recorded l);
  let fields e = List.map fst e.Obs.Log.e_fields in
  (match Obs.Log.entries l with
  | [ plain; tagged; nested ] ->
      Alcotest.(check (list string)) "plain entry unstamped" [] (fields plain);
      Alcotest.(check (list string)) "child stamps bound fields first"
        [ "req"; "x" ] (fields tagged);
      Alcotest.(check (list string)) "children nest" [ "req"; "worker" ]
        (fields nested)
  | es -> Alcotest.failf "expected 3 entries, got %d" (List.length es));
  (* on the disabled logger, with_fields is the identity: no allocation,
     nothing ever recorded *)
  let nullchild = Obs.Log.with_fields Obs.Log.null [ ("req", Obs.Log.Str "r") ] in
  Alcotest.(check bool) "null child disabled" false (Obs.Log.enabled nullchild);
  Obs.Log.error nullchild "boom" [];
  Alcotest.(check int) "null child records nothing" 0 (Obs.Log.recorded nullchild)

let test_log_jsonl () =
  let l = Obs.Log.create () in
  Obs.Log.info l "has \"quotes\" and \\slash"
    [
      ("s", Obs.Log.Str "line\nbreak");
      ("i", Obs.Log.Int (-4));
      ("f", Obs.Log.Float 2.5);
      ("b", Obs.Log.Bool true);
    ];
  Obs.Log.warn l "second" [];
  let lines =
    String.split_on_char '\n' (Obs.Log.to_jsonl l)
    |> List.filter (fun s -> s <> "")
  in
  Alcotest.(check int) "one line per entry" 2 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Trace_check.parse_json line with
      | Obs.Trace_check.Obj fields ->
          List.iter
            (fun k ->
              if not (List.mem_assoc k fields) then
                Alcotest.failf "entry lacks envelope key %s: %s" k line)
            [ "ts"; "lvl"; "evt" ]
      | _ -> Alcotest.failf "entry is not a JSON object: %s" line
      | exception Obs.Trace_check.Parse_error e ->
          Alcotest.failf "entry is not valid JSON (%s): %s" e line)
    lines;
  (match Obs.Trace_check.parse_json (List.hd lines) with
  | Obs.Trace_check.Obj fields ->
      Alcotest.(check bool) "escaped event round-trips" true
        (List.assoc "evt" fields = Obs.Trace_check.Str "has \"quotes\" and \\slash");
      Alcotest.(check bool) "escaped field round-trips" true
        (List.assoc "s" fields = Obs.Trace_check.Str "line\nbreak");
      Alcotest.(check bool) "bool field" true
        (List.assoc "b" fields = Obs.Trace_check.Bool true)
  | _ -> Alcotest.fail "not an object")

(* --- prometheus exposition ------------------------------------------------- *)

let test_prometheus () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m "serve.requests" 7;
  Obs.Metrics.set m "serve.queue_depth" 3.0;
  List.iter (Obs.Metrics.observe m "serve.latency_ns") [ 1.0; 5.0; 17.0; 1e9 ];
  Obs.Metrics.push m "r0.best_cost" 31.0;
  (* client names carry arbitrary bytes; the label value must escape *)
  Obs.Metrics.incr m "serve.client.we\"ird\\conn.requests";
  Obs.Metrics.incr m "serve.client.we\"ird\\conn.requests";
  let text = Obs.Metrics.to_prometheus m in
  Alcotest.(check bool) "counter family" true
    (contains text "# TYPE gpuaco_serve_requests counter"
    && contains text "gpuaco_serve_requests 7");
  Alcotest.(check bool) "gauge family" true
    (contains text "# TYPE gpuaco_serve_queue_depth gauge"
    && contains text "gpuaco_serve_queue_depth 3");
  Alcotest.(check bool) "histogram sum and count" true
    (contains text "gpuaco_serve_latency_ns_count 4"
    && contains text "gpuaco_serve_latency_ns_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "client label escaped" true
    (contains text "gpuaco_serve_client_requests{client=\"we\\\"ird\\\\conn\"} 2");
  Alcotest.(check bool) "series omitted" false (contains text "best_cost");
  (* the bucket ladder invariant behind those lines: cumulative counts
     are monotone non-decreasing and end at count, final bound +Inf *)
  let h = Option.get (Obs.Metrics.get m "serve.latency_ns") in
  let buckets = Obs.Metrics.buckets h in
  Alcotest.(check bool) "ladder non-empty" true (Array.length buckets > 0);
  let last_bound, last_cum = buckets.(Array.length buckets - 1) in
  Alcotest.(check bool) "final bound is +Inf" true (last_bound = infinity);
  Alcotest.(check int) "cumulative ends at count" (Obs.Metrics.count h) last_cum;
  let prev = ref 0 in
  Array.iter
    (fun (_, c) ->
      if c < !prev then Alcotest.fail "cumulative counts decreased";
      prev := c)
    buckets;
  (* quantile estimates come off the same ladder, clamped into [min,max] *)
  Alcotest.(check bool) "p0 clamps to min" true (Obs.Metrics.percentile h 0.0 >= 1.0);
  Alcotest.(check bool) "p100 clamps to max" true
    (Obs.Metrics.percentile h 1.0 <= 1e9);
  Alcotest.(check bool) "median within range" true
    (let p = Obs.Metrics.percentile h 0.5 in
     p >= 1.0 && p <= 1e9)

let test_concurrent_writers () =
  (* The executor's and the serve batch's pool workers write one
     registry, so updates racing from several domains must all land:
     totals, counts and bucket ladders come out exact. *)
  let domains = 4 and rounds = 2000 in
  let lat d i = float_of_int (((i * 37) + (d * 101)) mod 5000) in
  let shared = Obs.Metrics.create () in
  let writers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to rounds do
              Obs.Metrics.incr shared "jobs";
              Obs.Metrics.add shared "work" (d + 1);
              Obs.Metrics.observe shared "lat" (lat d i);
              Obs.Metrics.push shared (Printf.sprintf "curve.%d" d) (float_of_int i);
              Obs.Metrics.push shared "all" (float_of_int d)
            done))
  in
  List.iter Domain.join writers;
  (* the same updates from one domain: the exact reference *)
  let alone = Obs.Metrics.create () in
  for d = 0 to domains - 1 do
    for i = 1 to rounds do
      Obs.Metrics.observe alone "lat" (lat d i)
    done
  done;
  let m name = Option.get (Obs.Metrics.get shared name) in
  let total = domains * rounds in
  Alcotest.(check int) "increments counted" total (Obs.Metrics.count (m "jobs"));
  Alcotest.(check (float 0.0)) "increments total" (float_of_int total)
    (Obs.Metrics.value (m "jobs"));
  Alcotest.(check (float 0.0)) "additions total"
    (float_of_int (rounds * domains * (domains + 1) / 2))
    (Obs.Metrics.value (m "work"));
  let h = m "lat" and h' = Option.get (Obs.Metrics.get alone "lat") in
  Alcotest.(check int) "observations counted" total (Obs.Metrics.count h);
  Alcotest.(check (float 0.0)) "observations summed" (Obs.Metrics.sum h')
    (Obs.Metrics.sum h);
  Alcotest.(check bool) "bucket ladder exact" true
    (Obs.Metrics.buckets h = Obs.Metrics.buckets h');
  for d = 0 to domains - 1 do
    Alcotest.(check (array (float 0.0)))
      (Printf.sprintf "writer %d's series in order" d)
      (Array.init rounds (fun i -> float_of_int (i + 1)))
      (Obs.Metrics.series (m (Printf.sprintf "curve.%d" d)))
  done;
  let all = Obs.Metrics.series (m "all") in
  Array.sort compare all;
  Alcotest.(check (array (float 0.0))) "a shared series keeps every point"
    (Array.init total (fun i -> float_of_int (i / rounds)))
    all

(* --- wall-clock tracks ----------------------------------------------------- *)

let test_wall_tracks () =
  let t = Obs.Trace.create () in
  Obs.Trace.name_track t 0 "driver";
  Obs.Trace.name_track t Obs.Trace.wall_track_base "worker 0 (wall)";
  Obs.Trace.span t ~track:0 ~name:"region" ~ts:0.0 ~dur:50.0;
  Obs.Trace.span t ~track:Obs.Trace.wall_track_base ~name:"job" ~ts:10.0 ~dur:5.0;
  Obs.Trace.instant t ~track:Obs.Trace.wall_track_base ~name:"steal" ~ts:12.0;
  let r = Obs.Trace_check.lint_string (Obs.Trace.to_chrome_json t) in
  if not (Obs.Trace_check.ok r) then
    Alcotest.failf "wall-clock trace fails lint:\n%s" (Obs.Trace_check.report_to_string r);
  Alcotest.(check int) "two tracks" 2 r.Obs.Trace_check.tracks;
  Alcotest.(check int) "one wall track under its own pid" 1 r.Obs.Trace_check.wall_tracks;
  (* append_range replays a slice, every timestamp shifted *)
  let merged = Obs.Trace.create () in
  Obs.Trace.append_range t ~into:merged ~first:1 ~last:3 ~dt:100.0;
  (match Obs.Trace.events merged with
  | [ s; i ] ->
      Alcotest.(check string) "span carried" "job" s.Obs.Trace.e_name;
      Alcotest.(check (float 0.0)) "span shifted" 110.0 s.Obs.Trace.e_ts;
      Alcotest.(check (float 0.0)) "duration kept" 5.0 s.Obs.Trace.e_dur;
      Alcotest.(check string) "instant carried" "steal" i.Obs.Trace.e_name;
      Alcotest.(check (float 0.0)) "instant shifted" 112.0 i.Obs.Trace.e_ts
  | es -> Alcotest.failf "append_range carried %d events, expected 2" (List.length es));
  (* the wall clock on a disabled recorder never reads the system clock *)
  Alcotest.(check (float 0.0)) "null wall_now pinned" 0.0
    (Obs.Trace.wall_now Obs.Trace.null)

(* --- the no-perturbation contract ----------------------------------------- *)

let compile_cfg ?fault_rate ?fault_seed ?compile_budget_ms () =
  {
    (Pipeline.Compile.make_config ~gpu:Tu.test_gpu ?fault_rate ?fault_seed
       ?compile_budget_ms ())
    with
    Pipeline.Compile.params =
      {
        Tu.test_params with
        Engine.Params.ants_per_iteration = Gpusim.Config.threads Tu.test_gpu;
      };
  }

(* The observables that must not move when the recorders attach. Host
   minor_words legitimately differs (the recorders themselves allocate),
   so it is excluded; everything the simulation computes is included. *)
let pass_signature (p : Engine.Types.pass_stats) =
  ( ( p.Engine.Types.invoked,
      p.Engine.Types.iterations,
      p.Engine.Types.ants_simulated,
      p.Engine.Types.work,
      p.Engine.Types.time_ns ),
    ( p.Engine.Types.serialized_ops,
      p.Engine.Types.lockstep_steps,
      p.Engine.Types.ant_steps,
      p.Engine.Types.selections,
      p.Engine.Types.retries ),
    ( p.Engine.Types.stop,
      Engine.Types.fault_counts_total p.Engine.Types.fault_counts,
      Array.to_list p.Engine.Types.best_costs ) )

let run_signature (run : Pipeline.Compile.backend_run) =
  ( run.Pipeline.Compile.backend,
    pass_signature run.Pipeline.Compile.result.Engine.Types.pass1,
    pass_signature run.Pipeline.Compile.result.Engine.Types.pass2,
    run.Pipeline.Compile.run_pass1_time_ns,
    run.Pipeline.Compile.run_pass2_time_ns )

let region_signature (r : Pipeline.Compile.region_report) =
  ( ( Array.to_list r.Pipeline.Compile.aco_order,
      Array.to_list r.Pipeline.Compile.pass1_only_order,
      r.Pipeline.Compile.aco_cost,
      r.Pipeline.Compile.degradation,
      r.Pipeline.Compile.retries ),
    Engine.Types.fault_counts_total r.Pipeline.Compile.fault_counts,
    List.map run_signature r.Pipeline.Compile.runs )

(* Compiles in which the traced run ran a pass: the regions are ones
   the bounds leave open, so the iteration loop runs under the
   recorders. *)
let traced_passes = ref 0

let tracing_is_inert =
  QCheck.Test.make ~count:8 ~name:"live recorders never perturb the compile"
    (QCheck.pair (Tu.arb_searched_region ~max_size:30 ()) QCheck.small_int)
    (fun (region, seed) ->
      List.iter
        (fun (fault_rate, compile_budget_ms) ->
          let cfg () =
            compile_cfg ?fault_rate ~fault_seed:(seed + 11) ?compile_budget_ms ()
          in
          let off = Pipeline.Compile.run_region (cfg ()) ~name:"r" region in
          let trace = Obs.Trace.create ~capacity:256 () (* force ring wrap too *) in
          let metrics = Obs.Metrics.create () in
          let log = Obs.Log.create ~capacity:64 () in
          let on =
            Pipeline.Compile.run_region ~trace ~metrics ~log (cfg ()) ~name:"r" region
          in
          if on.Pipeline.Compile.pass1_invoked || on.Pipeline.Compile.pass2_invoked then
            incr traced_passes;
          if region_signature off <> region_signature on then
            Alcotest.failf
              "recorders perturbed the compile (fault_rate=%s budget=%s)"
              (match fault_rate with Some f -> string_of_float f | None -> "0")
              (match compile_budget_ms with Some b -> string_of_float b | None -> "inf");
          (* and the recording it produced must lint *)
          let r = Obs.Trace_check.lint_string (Obs.Trace.to_chrome_json trace) in
          if not (Obs.Trace_check.ok r) then
            Alcotest.failf "trace of the compile fails lint:\n%s"
              (Obs.Trace_check.report_to_string r);
          (* convergence series surfaced through the metrics registry
             agree with the driver's own record *)
          (match Obs.Metrics.get metrics "r.par.pass2.best_cost" with
          | Some m ->
              let pushed = Array.map int_of_float (Obs.Metrics.series m) in
              let par = Option.get (Pipeline.Compile.find_run on "par") in
              let stats = par.Pipeline.Compile.result.Engine.Types.pass2.Engine.Types.best_costs in
              (* the registry sees one push per attempted iteration:
                 the series drops the initial-cost entry 0 *)
              Alcotest.(check (array int)) "metrics series matches pass stats"
                (Array.sub stats 1 (Array.length stats - 1))
                pushed
          | None -> ()))
        [ (None, None); (Some 0.2, Some 2.0); (Some 1.0, None); (None, Some 0.01) ];
      true)

(* The disabled-path contract, stated on report digests: a compile run
   with the null recorders explicitly passed must be byte-identical —
   same digest — to one where the hooks were never supplied at all.
   This is what lets production leave the instrumentation parameters in
   place and toggle observability by value. The digest leaves out host
   allocation, so every pass's [minor_words] is compared on its own: a
   null recorder must not allocate inside a pass either. The regions
   are ones the bounds leave open, so the passes run. *)
let null_passes = ref 0

let null_recorders_are_absent =
  QCheck.Test.make ~count:10 ~name:"null log/trace digest-identical to absent"
    (QCheck.pair (Tu.arb_searched_region ~max_size:30 ()) QCheck.small_int)
    (fun (region, seed) ->
      let cfg () = compile_cfg ~fault_rate:0.3 ~fault_seed:(seed + 3) () in
      let absent = Pipeline.Compile.run_region (cfg ()) ~name:"r" region in
      let nulls =
        Pipeline.Compile.run_region ~trace:Obs.Trace.null ~metrics:Obs.Metrics.null
          ~log:Obs.Log.null (cfg ()) ~name:"r" region
      in
      Alcotest.(check string) "digest identical"
        (Pipeline.Report_digest.digest_region absent)
        (Pipeline.Report_digest.digest_region nulls);
      let words (r : Pipeline.Compile.region_report) =
        List.concat_map
          (fun (run : Pipeline.Compile.backend_run) ->
            let res = run.Pipeline.Compile.result in
            List.map
              (fun (p : Engine.Types.pass_stats) ->
                if p.Engine.Types.invoked then incr null_passes;
                p.Engine.Types.minor_words)
              [ res.Engine.Types.pass1; res.Engine.Types.pass2 ])
          r.Pipeline.Compile.runs
      in
      Alcotest.(check (list (float 0.0))) "minor words identical" (words absent) (words nulls);
      true)

(* Every string the recorders write goes through the one escaper; the
   one reader must return it byte for byte, control characters, quotes,
   backslashes and non-ASCII bytes included. *)
let escape_round_trips =
  QCheck.Test.make ~count:500 ~name:"json_escape round-trips through parse_json"
    QCheck.(string_gen Gen.char)
    (fun s ->
      Obs.Trace_check.parse_json ("\"" ^ Obs.Trace_check.json_escape s ^ "\"")
      = Obs.Trace_check.Str s)

(* A write whose final flush fails (a full disk: /dev/full accepts the
   open and fails every write) raises a plain [Sys_error], which callers
   catch, not [Fun.Finally_raised] from the channel's close. *)
let test_writers_report_a_full_disk () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let trace = Obs.Trace.create () in
  Obs.Trace.instant trace ~track:0 ~name:"x" ~ts:0.0;
  let metrics = Obs.Metrics.create () in
  Obs.Metrics.incr metrics "x";
  let log = Obs.Log.create () in
  Obs.Log.info log "x" [];
  List.iter
    (fun (what, write) ->
      match write "/dev/full" with
      | () -> Alcotest.failf "%s: a write to a full disk succeeded" what
      | exception Sys_error _ -> ())
    [
      ("trace", Obs.Trace.write_chrome_json trace);
      ("metrics csv", Obs.Metrics.write_csv metrics);
      ("metrics json", Obs.Metrics.write_json metrics);
      ("log", Obs.Log.write_jsonl log);
    ]

let suite =
  [
    ("trace ring wrap", `Quick, test_ring_wrap);
    ("trace span totals", `Quick, test_span_totals);
    ("null recorders", `Quick, test_null_recorders);
    ("simulated clock", `Quick, test_simulated_clock);
    ("chrome export lints", `Quick, test_chrome_json_lints);
    ("lint rejects malformed", `Quick, test_lint_rejects_malformed);
    ("metrics kinds", `Quick, test_metrics_kinds);
    ("metrics export", `Quick, test_metrics_export);
    ("log ring and level gate", `Quick, test_log_ring);
    ("log child field stamping", `Quick, test_log_child_fields);
    ("log JSONL escaping round-trips", `Quick, test_log_jsonl);
    ("prometheus exposition", `Quick, test_prometheus);
    ("one registry takes concurrent writers", `Quick, test_concurrent_writers);
    ("wall-clock tracks", `Quick, test_wall_tracks);
  ]
  @ [ Tu.qtest_witnessed ~witness:traced_passes ~what:"a traced pass" tracing_is_inert ]
  @ [ Tu.qtest_witnessed ~witness:null_passes ~what:"a pass that ran" null_recorders_are_absent ]
  @ Tu.qtests [ escape_round_trips ]
  @ [ ("writers report a full disk as Sys_error", `Quick, test_writers_report_a_full_disk) ]
