(* The compile service as a daemon: framing, the request protocol,
   admission and shedding, deadline-bounded retry, the schedule memo and
   crash-safe persistence. The serve loop's whole contract is "every
   frame answered exactly once, degraded but never wrong", so most tests
   drive a real service instance and assert on the replies. *)

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
    run_sequential = false;
  }

let serve_cfg ?(queue = 64) ?(inflight = 4) ?(shed = 0.75) ?(retries = 2)
    ?(slack = 4.0) ?state_dir compile =
  {
    (Pipeline.Serve.default_config compile) with
    Pipeline.Serve.queue_capacity = queue;
    max_in_flight = inflight;
    shed_threshold = shed;
    max_retries = retries;
    deadline_slack = slack;
    state_dir;
  }

(* A service plus its reply log, in arrival order. *)
let mk ?metrics cfg =
  let replies = ref [] in
  let srv =
    Pipeline.Serve.create ?metrics ~on_reply:(fun r -> replies := r :: !replies) cfg
  in
  (srv, fun () -> List.rev !replies)

let counter metrics name =
  match Obs.Metrics.get metrics name with
  | Some m -> Obs.Metrics.count m
  | None -> 0

let compiled replies =
  List.filter_map
    (function Pipeline.Serve.Compiled c -> Some c | _ -> None)
    replies

let rejections replies =
  List.filter_map
    (function
      | Pipeline.Serve.Rejected { rej_id; error } -> Some (rej_id, error) | _ -> None)
    replies

let spec_req ?(id = "t0") ?(extra = "") shape size seed =
  Printf.sprintf "op=compile id=%s shape=%s size=%d seed=%d%s" id shape size seed
    extra

let tmp_name prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  f

(* --- framing ------------------------------------------------------------- *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 300 'q'; "two\nlines" ] in
  let file = Filename.temp_file "frame" ".bin" in
  let oc = open_out_bin file in
  List.iter (Support.Frame.write oc) payloads;
  close_out oc;
  let ic = open_in_bin file in
  List.iter
    (fun expected ->
      match Support.Frame.read ic with
      | Ok (Some got) -> Alcotest.(check string) "payload" expected got
      | Ok None -> Alcotest.fail "premature EOF"
      | Error e -> Alcotest.failf "framing error: %s" (Support.Frame.error_to_string e))
    payloads;
  (match Support.Frame.read ic with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected clean EOF at the frame boundary");
  close_in ic;
  Sys.remove file

let test_frame_truncation_and_limit () =
  let frame = Support.Frame.encode "hello world" in
  (* cut mid-payload: a typed Truncated, not an exception or a hang *)
  let cut = String.sub frame 0 (String.length frame - 4) in
  let file = Filename.temp_file "frame" ".bin" in
  let oc = open_out_bin file in
  output_string oc cut;
  close_out oc;
  let ic = open_in_bin file in
  (match Support.Frame.read ic with
  | Error (Support.Frame.Truncated _) -> ()
  | _ -> Alcotest.fail "expected Truncated on a cut stream");
  close_in ic;
  Sys.remove file;
  (* the same cut through the pure decoder is Need_more (a buffer could
     still grow), while a whole-stream decode calls it truncation *)
  (match Support.Frame.decode cut ~pos:0 with
  | Error `Need_more -> ()
  | _ -> Alcotest.fail "expected Need_more on a partial buffer");
  (match Support.Frame.decode_all cut with
  | [], Some (Support.Frame.Truncated _) -> ()
  | _ -> Alcotest.fail "expected decode_all to report the dangling prefix");
  (* an advertised length beyond the limit is refused before allocation *)
  match Support.Frame.decode ~limit:4 frame ~pos:0 with
  | Error (`Error (Support.Frame.Oversized { length = 11; limit = 4 })) -> ()
  | _ -> Alcotest.fail "expected Oversized against a 4-byte limit"

(* --- blob files ---------------------------------------------------------- *)

let test_blobfile_roundtrip_and_rejection () =
  let path = tmp_name "blob" in
  (match Support.Blobfile.load ~kind:"k" ~version:1 path with
  | Error Support.Blobfile.Missing -> ()
  | _ -> Alcotest.fail "expected Missing before any save");
  let payload = "binary\x00payload\nwith newlines" in
  Support.Blobfile.save ~kind:"k" ~version:1 path payload;
  (match Support.Blobfile.load ~kind:"k" ~version:1 path with
  | Ok got -> Alcotest.(check string) "payload survives" payload got
  | Error e -> Alcotest.failf "roundtrip failed: %s" (Support.Blobfile.error_to_string e));
  (match Support.Blobfile.load ~kind:"other" ~version:1 path with
  | Error (Support.Blobfile.Wrong_kind _) -> ()
  | _ -> Alcotest.fail "expected Wrong_kind");
  (match Support.Blobfile.load ~kind:"k" ~version:2 path with
  | Error (Support.Blobfile.Version_skew { expected = 2; got = 1 }) -> ()
  | _ -> Alcotest.fail "expected Version_skew");
  (* flip one payload bit: the checksum must catch it *)
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let mangled = Bytes.of_string raw in
  let last = Bytes.length mangled - 1 in
  Bytes.set mangled last (Char.chr (Char.code (Bytes.get mangled last) lxor 1));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc mangled);
  (match Support.Blobfile.load ~kind:"k" ~version:1 path with
  | Error (Support.Blobfile.Corrupt _) -> ()
  | _ -> Alcotest.fail "expected Corrupt on a flipped bit");
  (* truncate inside the payload *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub raw 0 (String.length raw - 5)));
  (match Support.Blobfile.load ~kind:"k" ~version:1 path with
  | Error (Support.Blobfile.Corrupt _) -> ()
  | _ -> Alcotest.fail "expected Corrupt on truncation");
  Sys.remove path

(* --- protocol parsing ---------------------------------------------------- *)

let test_parse_commands () =
  (match Pipeline.Serve.parse_request "op=ping id=p1" with
  | Ok (Pipeline.Serve.Ping "p1") -> ()
  | _ -> Alcotest.fail "ping");
  (match Pipeline.Serve.parse_request "op=stats" with
  | Ok (Pipeline.Serve.Stats "-") -> ()
  | _ -> Alcotest.fail "stats defaults its id to -");
  (match Pipeline.Serve.parse_request "op=shutdown id=z" with
  | Ok (Pipeline.Serve.Shutdown "z") -> ()
  | _ -> Alcotest.fail "shutdown");
  (match Pipeline.Serve.parse_request "op=metrics id=m1" with
  | Ok (Pipeline.Serve.Metrics_dump "m1") -> ()
  | _ -> Alcotest.fail "metrics");
  (match Pipeline.Serve.parse_request "op=watch" with
  | Ok (Pipeline.Serve.Watch "-") -> ()
  | _ -> Alcotest.fail "watch defaults its id to -");
  match
    Pipeline.Serve.parse_request
      "op=compile id=c1 shape=transform size=24 seed=3 fault-rate=0.25 budget-ms=2 \
       backend=par"
  with
  | Ok (Pipeline.Serve.Compile r) ->
      Alcotest.(check string) "id" "c1" r.Pipeline.Serve.req_id;
      (match r.Pipeline.Serve.source with
      | Pipeline.Serve.Generated { shape = "transform"; size = 24; seed = 3 } -> ()
      | _ -> Alcotest.fail "generated source");
      Alcotest.(check (option (float 1e-9))) "fault rate" (Some 0.25)
        r.Pipeline.Serve.fault_rate;
      Alcotest.(check (option (float 1e-9))) "budget" (Some 2.0)
        r.Pipeline.Serve.budget_ms
  | _ -> Alcotest.fail "well-formed compile spec"

let test_parse_typed_errors () =
  let code payload =
    match Pipeline.Serve.parse_request payload with
    | Error (_, e) -> Pipeline.Serve.proto_error_code e
    | Ok _ -> Alcotest.failf "accepted hostile payload %S" payload
  in
  Alcotest.(check string) "unknown key" "bad-request" (code "op=compile id=x blorp=1");
  Alcotest.(check string) "duplicate key" "bad-request"
    (code "op=compile id=x id=y shape=scan size=8 seed=1");
  Alcotest.(check string) "no source" "bad-request" (code "op=compile id=x");
  Alcotest.(check string) "both sources" "bad-request"
    (code "op=compile id=x shape=scan size=8 seed=1\nregion r (1 instrs)");
  Alcotest.(check string) "bad value" "bad-request"
    (code "op=compile id=x shape=scan size=banana seed=1");
  Alcotest.(check string) "unknown backend" "unknown-backend"
    (code "op=compile id=x shape=scan size=8 seed=1 backend=nonesuch");
  Alcotest.(check string) "duplicate race backend" "bad-request"
    (code "op=compile id=x shape=scan size=8 seed=1 backend=seq,seq");
  Alcotest.(check string) "retired backend" "unknown-backend"
    (code "op=compile id=x shape=scan size=8 seed=1 backend=seq-prune");
  Alcotest.(check string) "inline region parse error" "bad-region"
    (code "op=compile id=x\nregion broken (1 instrs)\n  %0: not_an_opcode v0 <-");
  let inline latency =
    Printf.sprintf
      "op=compile id=x\nregion slow (2 instrs)\n  %%0: v_alu@%d v0 <-\n  %%1: v_alu v1 <- v0\n"
      latency
  in
  Alcotest.(check string) "latency above the bound" "bad-region" (code (inline 1025));
  (match Pipeline.Serve.parse_request (inline 1024) with
  | Ok (Pipeline.Serve.Compile _) -> ()
  | _ -> Alcotest.fail "latency at the bound must parse");
  (* the error reply still carries the id that could be salvaged *)
  match Pipeline.Serve.parse_request "op=compile id=salvaged blorp=1" with
  | Error (id, _) -> Alcotest.(check string) "salvaged id" "salvaged" id
  | Ok _ -> Alcotest.fail "accepted"

(* --- serve/memo behaviour ------------------------------------------------- *)

let test_serve_and_memo_hit () =
  let srv, replies = mk (serve_cfg (compile_cfg ())) in
  Pipeline.Serve.handle srv (spec_req ~id:"a" "transform" 24 3);
  Pipeline.Serve.handle srv (spec_req ~id:"b" "transform" 24 3);
  ignore (Pipeline.Serve.process srv);
  match compiled (replies ()) with
  | [ first; second ] ->
      Alcotest.(check string) "ids" "a" first.Pipeline.Serve.rep_id;
      (match first.Pipeline.Serve.rep_memo with
      | `Miss -> ()
      | _ -> Alcotest.fail "first compile must miss");
      (match second.Pipeline.Serve.rep_memo with
      | `Hit -> ()
      | _ -> Alcotest.fail "identical request must hit the memo");
      Alcotest.(check string) "replayed digest" first.Pipeline.Serve.rep_digest
        second.Pipeline.Serve.rep_digest;
      Alcotest.(check (float 0.0)) "a hit costs no simulated time" 0.0
        second.Pipeline.Serve.rep_latency_ns;
      let hits, misses, entries = Pipeline.Serve.memo_stats srv in
      Alcotest.(check (list int)) "memo traffic" [ 1; 1; 1 ] [ hits; misses; entries ]
  | rs -> Alcotest.failf "expected 2 compile replies, got %d" (List.length rs)

let test_pool_replies_match_sequential () =
  (* The pooled batch path must be reply-for-reply identical to the
     sequential service: same order, same digests, same memo verdicts —
     including in-batch duplicates, which reply memo=hit either way. *)
  let run pool =
    let replies = ref [] in
    let srv =
      Pipeline.Serve.create ?pool
        ~on_reply:(fun r -> replies := Pipeline.Serve.render_reply r :: !replies)
        (serve_cfg ~inflight:8 (compile_cfg ()))
    in
    List.iteri
      (fun i (shape, size, seed) ->
        Pipeline.Serve.handle srv
          (spec_req ~id:(Printf.sprintf "r%d" i) shape size seed))
      [
        ("transform", 30, 1);
        ("reduction", 24, 2);
        ("transform", 30, 1);
        ("scan", 20, 3);
        ("transform", 30, 1);
      ];
    ignore (Pipeline.Serve.process srv);
    List.rev !replies
  in
  let sequential = run None in
  let pool = Support.Domain_pool.create ~size:3 () in
  let pooled =
    Fun.protect
      ~finally:(fun () -> Support.Domain_pool.shutdown pool)
      (fun () -> run (Some pool))
  in
  Alcotest.(check bool) "got replies" true (List.length sequential > 0);
  Alcotest.(check (list string)) "pooled replies byte-identical to sequential"
    sequential pooled

let test_retry_zero_ships_first_attempt () =
  (* max_retries = 0: even a heavily degraded attempt ships as-is *)
  let metrics = Obs.Metrics.create () in
  let srv, replies =
    mk ~metrics (serve_cfg ~retries:0 (compile_cfg ~fault_rate:0.9 ~fault_seed:5 ()))
  in
  Pipeline.Serve.handle srv (spec_req "reduction" 16 3);
  ignore (Pipeline.Serve.process srv);
  match compiled (replies ()) with
  | [ r ] ->
      Alcotest.(check bool) "the attempt was degraded" true
        (Pipeline.Robust.severity r.Pipeline.Serve.rep_outcome > 0);
      Alcotest.(check int) "exactly one attempt" 1 r.Pipeline.Serve.rep_attempts;
      Alcotest.(check int) "no serve retries counted" 0 (counter metrics "serve.retries")
  | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs)

let test_deadline_expires_mid_retry () =
  (* A tight budget with slack 1.0 leaves no room for backoff: after a
     degraded first attempt the retry cannot fit the deadline, the
     deadline_exceeded counter ticks, and the best attempt still ships
     a valid order. *)
  let metrics = Obs.Metrics.create () in
  let srv, replies =
    mk ~metrics
      (serve_cfg ~retries:5 ~slack:1.0
         (compile_cfg ~fault_rate:1.0 ~fault_seed:3 ~compile_budget_ms:0.01 ()))
  in
  Pipeline.Serve.handle srv (spec_req "reduction" 20 1);
  ignore (Pipeline.Serve.process srv);
  match compiled (replies ()) with
  | [ r ] ->
      Alcotest.(check bool) "deadline was hit" true
        (counter metrics "serve.deadline_exceeded" >= 1);
      Alcotest.(check bool) "fewer attempts than the allowance" true
        (r.Pipeline.Serve.rep_attempts < 6);
      (match Pipeline.Robust.severity r.Pipeline.Serve.rep_outcome with
      | 0 -> Alcotest.fail "a fault-storm compile cannot be clean"
      | _ -> ());
      let region =
        match Workload.Shapes.of_spec ~name:"reduction" ~size:20 ~seed:1 with
        | Some r -> r
        | None -> Alcotest.fail "reduction shape missing"
      in
      (match
         Sched.Schedule.of_order (Ddg.Graph.build region) r.Pipeline.Serve.rep_order
       with
      | Ok _ -> ()
      | Error v ->
          Alcotest.failf "shipped order invalid: %s"
            (Sched.Schedule.violation_to_string v))
  | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs)

let test_shed_past_threshold () =
  let metrics = Obs.Metrics.create () in
  let srv, replies = mk ~metrics (serve_cfg ~queue:4 ~shed:0.5 (compile_cfg ())) in
  Alcotest.(check int) "shed point" 2 (Pipeline.Serve.shed_point srv);
  for i = 0 to 5 do
    Pipeline.Serve.handle srv (spec_req ~id:(Printf.sprintf "s%d" i) "gather" 16 i)
  done;
  (* the first shed_point requests queued; the rest were answered at
     admission with the Critical-Path schedule *)
  let shed, queued =
    List.partition
      (fun (r : Pipeline.Serve.compile_reply) -> r.Pipeline.Serve.rep_memo = `Shed)
      (compiled (replies ()))
  in
  Alcotest.(check int) "requests past the threshold shed" 4 (List.length shed);
  Alcotest.(check int) "nothing compiled yet" 0 (List.length queued);
  List.iter
    (fun (r : Pipeline.Serve.compile_reply) ->
      Alcotest.(check string) "shed replies carry no digest" "-"
        r.Pipeline.Serve.rep_digest;
      (match r.Pipeline.Serve.rep_outcome with
      | Pipeline.Robust.Shed_overload -> ()
      | _ -> Alcotest.fail "shed reply must ledger as Shed_overload");
      let i = int_of_string (String.sub r.Pipeline.Serve.rep_id 1 1) in
      let region = Option.get (Workload.Shapes.of_spec ~name:"gather" ~size:16 ~seed:i) in
      match
        Sched.Schedule.of_order (Ddg.Graph.build region) r.Pipeline.Serve.rep_order
      with
      | Ok _ -> ()
      | Error v ->
          Alcotest.failf "shed order invalid: %s" (Sched.Schedule.violation_to_string v))
    shed;
  Pipeline.Serve.drain srv;
  let tally = Pipeline.Serve.tally srv in
  Alcotest.(check int) "ledger sheds" 4 tally.Pipeline.Robust.shed_overload;
  Alcotest.(check int) "metric sheds" 4 (counter metrics "serve.shed_overload");
  Alcotest.(check int) "every request answered" 6
    (List.length (compiled (replies ())))

let test_drain_refuses_then_stays_quiet () =
  let srv, replies = mk (serve_cfg (compile_cfg ())) in
  Pipeline.Serve.handle srv (spec_req "reduction" 16 1);
  Pipeline.Serve.drain srv;
  (match Pipeline.Serve.state srv with
  | `Drained -> ()
  | _ -> Alcotest.fail "drain must finish the queue and land in Drained");
  (* a late compile is refused with a typed reply; liveness probes
     still answer so a client can see the state *)
  Pipeline.Serve.handle srv (spec_req ~id:"late" "reduction" 16 1);
  Pipeline.Serve.handle srv "op=ping id=still-here";
  Pipeline.Serve.drain srv;
  let rs = replies () in
  (match rejections rs with
  | [ ("late", Pipeline.Serve.Shutting_down) ] -> ()
  | _ -> Alcotest.fail "late request must be refused as shutting-down");
  let byes =
    List.length
      (List.filter (function Pipeline.Serve.Drained _ -> true | _ -> false) rs)
  in
  Alcotest.(check int) "drain is idempotent: one bye" 1 byes;
  Alcotest.(check int) "queued request was served before the bye" 1
    (List.length (compiled rs));
  match List.filter (function Pipeline.Serve.Pong _ -> true | _ -> false) rs with
  | [ Pipeline.Serve.Pong { png_id = "still-here" } ] -> ()
  | _ -> Alcotest.fail "ping must answer even after drain"

(* --- persistence --------------------------------------------------------- *)

let with_state_dir f =
  let dir = Filename.temp_file "serve_state" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_persistence_roundtrip () =
  with_state_dir (fun dir ->
      let cfg = serve_cfg ~state_dir:dir (compile_cfg ()) in
      let srv1, replies1 = mk cfg in
      Pipeline.Serve.handle srv1 (spec_req "matmul" 18 4);
      ignore (Pipeline.Serve.process srv1);
      Pipeline.Serve.drain srv1;
      let original =
        match compiled (replies1 ()) with
        | [ r ] -> r
        | _ -> Alcotest.fail "expected one reply"
      in
      (* a fresh process over the same state dir serves the same request
         from the reloaded memo, digest included *)
      let metrics = Obs.Metrics.create () in
      let srv2, replies2 = mk ~metrics cfg in
      Alcotest.(check bool) "memo entries reloaded" true
        (counter metrics "serve.persist.memo_loaded" >= 1);
      Pipeline.Serve.handle srv2 (spec_req "matmul" 18 4);
      ignore (Pipeline.Serve.process srv2);
      match compiled (replies2 ()) with
      | [ r ] ->
          (match r.Pipeline.Serve.rep_memo with
          | `Hit -> ()
          | _ -> Alcotest.fail "warm restart must hit the persisted memo");
          Alcotest.(check string) "digest survives the restart"
            original.Pipeline.Serve.rep_digest r.Pipeline.Serve.rep_digest
      | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs))

let test_persistence_corruption_starts_cold () =
  with_state_dir (fun dir ->
      let cfg = serve_cfg ~state_dir:dir (compile_cfg ()) in
      let srv1, _ = mk cfg in
      Pipeline.Serve.handle srv1 (spec_req "histogram" 16 9);
      ignore (Pipeline.Serve.process srv1);
      Pipeline.Serve.drain srv1;
      (* truncate one blob and version-skew the other: a restart must
         count the failures and start cold, never raise *)
      let memo = Filename.concat dir "memo.blob" in
      let raw = In_channel.with_open_bin memo In_channel.input_all in
      Out_channel.with_open_bin memo (fun oc ->
          Out_channel.output_string oc (String.sub raw 0 (String.length raw / 2)));
      Support.Blobfile.save ~kind:"serve-analysis" ~version:999
        (Filename.concat dir "analysis.blob")
        "stale payload from some future build";
      let metrics = Obs.Metrics.create () in
      let srv2, replies2 = mk ~metrics cfg in
      Alcotest.(check bool) "failures counted" true
        (counter metrics "serve.persist.load_failed" >= 2);
      Pipeline.Serve.handle srv2 (spec_req "histogram" 16 9);
      ignore (Pipeline.Serve.process srv2);
      match compiled (replies2 ()) with
      | [ r ] -> (
          match r.Pipeline.Serve.rep_memo with
          | `Miss -> ()
          | _ -> Alcotest.fail "corrupt state must mean a cold compile")
      | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs))

(* --- observability verbs and the quality ledger --------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_metrics_and_watch_verbs () =
  let metrics = Obs.Metrics.create () in
  let srv, replies = mk ~metrics (serve_cfg (compile_cfg ())) in
  Pipeline.Serve.handle srv (spec_req ~id:"c1" "matmul" 24 1);
  ignore (Pipeline.Serve.process srv);
  Pipeline.Serve.handle srv "op=metrics id=m1";
  Pipeline.Serve.handle srv "op=watch id=w1";
  let metrics_replies, watch_replies =
    List.fold_left
      (fun (ms, ws) -> function
        | Pipeline.Serve.Metrics_reply _ as r -> (r :: ms, ws)
        | Pipeline.Serve.Watch_reply _ as r -> (ms, r :: ws)
        | _ -> (ms, ws))
      ([], []) (replies ())
  in
  (match metrics_replies with
  | [ Pipeline.Serve.Metrics_reply { met_id; body } as r ] ->
      Alcotest.(check string) "metrics id echoed" "m1" met_id;
      Alcotest.(check bool) "body is the prometheus exposition" true
        (contains body "# TYPE gpuaco_serve_requests counter");
      let rendered = Pipeline.Serve.render_reply r in
      Alcotest.(check bool) "render is the multi-line exception" true
        (String.length rendered > String.length "metrics id=m1\n"
        && String.sub rendered 0 14 = "metrics id=m1\n")
  | rs -> Alcotest.failf "expected 1 metrics reply, got %d" (List.length rs));
  (match watch_replies with
  | [ Pipeline.Serve.Watch_reply { wat_id; body } as r ] ->
      Alcotest.(check string) "watch id echoed" "w1" wat_id;
      List.iter
        (fun key ->
          if not (List.mem_assoc key body) then
            Alcotest.failf "watch body lacks %s" key)
        [
          "state"; "in-flight"; "memo-hit-rate"; "analysis-hit-rate";
          "latency-p50-ns"; "latency-p99-ns"; "deadline-exceeded";
        ];
      Alcotest.(check string) "in-flight is 0 between batches" "0"
        (List.assoc "in-flight" body);
      (* one computed miss fed the latency histogram, so the quantiles
         are live numbers, not placeholders *)
      Alcotest.(check bool) "p50 positive" true
        (float_of_string (List.assoc "latency-p50-ns" body) > 0.0);
      let rendered = Pipeline.Serve.render_reply r in
      Alcotest.(check bool) "watch renders one line" true
        (String.sub rendered 0 12 = "watch id=w1 "
        && not (String.contains rendered '\n'))
  | rs -> Alcotest.failf "expected 1 watch reply, got %d" (List.length rs));
  (* a registry-less service still answers, with the disabled marker *)
  let srv2, replies2 = mk (serve_cfg (compile_cfg ())) in
  Pipeline.Serve.handle srv2 "op=metrics id=m2";
  match
    List.filter_map
      (function Pipeline.Serve.Metrics_reply { body; _ } -> Some body | _ -> None)
      (replies2 ())
  with
  | [ body ] ->
      Alcotest.(check string) "disabled registry" "# metrics disabled\n" body
  | rs -> Alcotest.failf "expected 1 metrics reply, got %d" (List.length rs)

let test_quality_ledger_appends () =
  let file = tmp_name "ledger" in
  let cfg =
    { (serve_cfg (compile_cfg ())) with Pipeline.Serve.quality_ledger = Some file }
  in
  let metrics = Obs.Metrics.create () in
  let srv, replies = mk ~metrics cfg in
  Pipeline.Serve.handle srv (spec_req ~id:"a" "matmul" 24 1);
  Pipeline.Serve.handle srv (spec_req ~id:"b" "reduction" 20 1);
  (* a memo duplicate replays the reply without recomputing — it must
     not append a second ledger record for the same compile *)
  Pipeline.Serve.handle srv (spec_req ~id:"c" "matmul" 24 1);
  ignore (Pipeline.Serve.process srv);
  Alcotest.(check int) "three compile replies" 3 (List.length (compiled (replies ())));
  let records = Pipeline.Quality.load ~file in
  Alcotest.(check int) "one record per computed miss" 2 (List.length records);
  Alcotest.(check int) "writes counted" 2
    (counter metrics "serve.quality.recorded");
  List.iter
    (fun (r : Pipeline.Quality.record) ->
      Alcotest.(check bool) "length at or above the lower bound" true (r.Pipeline.Quality.q_gap >= 0);
      Alcotest.(check bool) "iterations ran" true (r.Pipeline.Quality.q_iterations > 0);
      Alcotest.(check bool) "best reached within the run" true
        (r.Pipeline.Quality.q_iters_to_best <= r.Pipeline.Quality.q_iterations))
    records;
  Sys.remove file

let test_serve_log_threads_request_ids () =
  let log = Obs.Log.create () in
  let replies = ref [] in
  let srv =
    Pipeline.Serve.create ~log
      ~on_reply:(fun r -> replies := r :: !replies)
      (serve_cfg (compile_cfg ()))
  in
  Pipeline.Serve.handle srv (spec_req ~id:"rq7" "transform" 20 5);
  ignore (Pipeline.Serve.process srv);
  Pipeline.Serve.drain srv;
  let events = List.map (fun e -> e.Obs.Log.e_event) (Obs.Log.entries log) in
  List.iter
    (fun ev ->
      if not (List.mem ev events) then
        Alcotest.failf "log lacks a %s entry (got: %s)" ev (String.concat ", " events))
    [ "serve.start"; "serve.admit"; "serve.drain" ];
  (* the compile-layer entries of the miss carry the request id stamped
     by the child logger *)
  let stamped =
    List.filter
      (fun e ->
        List.exists
          (fun (k, v) -> k = "req" && v = Obs.Log.Str "rq7")
          e.Obs.Log.e_fields)
      (Obs.Log.entries log)
  in
  Alcotest.(check bool) "request id threads through the compile" true
    (List.length stamped >= 1)

(* --- property: serving changes nothing ------------------------------------ *)

(* At fault rate zero a served reply is byte-identical — same report
   digest — to a direct Compile.run_region of the same region. Both
   sides run uninstrumented: the digest covers the passes' GC counters,
   so identity requires identical instrumentation (see DESIGN.md). *)
let prop_zero_fault_serve_is_direct =
  QCheck.Test.make ~count:15
    ~name:"zero-fault serve reply is byte-identical to a direct compile"
    (Tu.arb_region ~max_size:25 ())
    (fun region ->
      let compile = compile_cfg () in
      let srv, replies = mk (serve_cfg compile) in
      Pipeline.Serve.handle srv
        ("op=compile id=p\n" ^ Ir.Parse.region_to_wire region);
      ignore (Pipeline.Serve.process srv);
      match compiled (replies ()) with
      | [ r ] ->
          let direct =
            Pipeline.Compile.run_region compile
              ~name:region.Ir.Region.name region
          in
          String.equal r.Pipeline.Serve.rep_digest
            (Pipeline.Report_digest.digest_region direct)
      | _ -> false)

let suite =
  [
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame truncation and limit" `Quick
      test_frame_truncation_and_limit;
    Alcotest.test_case "blobfile roundtrip and rejection" `Quick
      test_blobfile_roundtrip_and_rejection;
    Alcotest.test_case "protocol: commands parse" `Quick test_parse_commands;
    Alcotest.test_case "protocol: hostile payloads are typed errors" `Quick
      test_parse_typed_errors;
    Alcotest.test_case "serve + memo hit replays the digest" `Quick
      test_serve_and_memo_hit;
    Alcotest.test_case "pooled batch replies match sequential byte-for-byte" `Quick
      test_pool_replies_match_sequential;
    Alcotest.test_case "max_retries=0 ships the first attempt" `Quick
      test_retry_zero_ships_first_attempt;
    Alcotest.test_case "deadline expires mid-retry" `Quick
      test_deadline_expires_mid_retry;
    Alcotest.test_case "overload sheds to the Critical-Path schedule" `Quick
      test_shed_past_threshold;
    Alcotest.test_case "drain refuses late work, answers probes" `Quick
      test_drain_refuses_then_stays_quiet;
    Alcotest.test_case "persistence roundtrip across restart" `Quick
      test_persistence_roundtrip;
    Alcotest.test_case "corrupt/skewed state starts cold" `Quick
      test_persistence_corruption_starts_cold;
    Alcotest.test_case "metrics and watch verbs" `Quick test_metrics_and_watch_verbs;
    Alcotest.test_case "quality ledger appends per computed miss" `Quick
      test_quality_ledger_appends;
    Alcotest.test_case "log threads request ids through the compile" `Quick
      test_serve_log_threads_request_ids;
  ]
  @ Tu.qtests [ prop_zero_fault_serve_is_direct ]
