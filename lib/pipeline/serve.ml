(* The compile service as a long-lived daemon. See serve.mli for the
   contract; the shape of the code follows the life of a request:

     parse_request --> handle (admit / shed / answer control)
                   --> process (deadline + retry/backoff compile loop)
                   --> reply through [on_reply]

   The loop is deliberately single-threaded and transport-free: all
   compile time is *simulated* nanoseconds from the cost model, so
   admission, backoff and deadline decisions are exactly reproducible in
   tests and drills. The pump that owns the bytes (stdio/socket in
   bin/gpuaco, a plain loop in tests) decides when to read frames and
   when to call [process]. *)

type config = {
  compile : Compile.config;
  queue_capacity : int;
  max_in_flight : int;
  shed_threshold : float;
  max_retries : int;
  backoff_base_ns : float;
  deadline_slack : float;
  memo_capacity : int;
  state_dir : string option;
  frame_limit : int;
  quality_ledger : string option;
}

let default_config compile =
  {
    compile;
    queue_capacity = 64;
    max_in_flight = 4;
    shed_threshold = 0.75;
    max_retries = 2;
    backoff_base_ns = 50_000.0;
    deadline_slack = 4.0;
    memo_capacity = 512;
    state_dir = None;
    frame_limit = Support.Frame.default_limit;
    quality_ledger = None;
  }

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

type proto_error =
  | Bad_frame of string
  | Bad_request of string
  | Bad_region of Ir.Parse.error
  | Unknown_shape of string
  | Unknown_backend of string
  | Shutting_down

let proto_error_code = function
  | Bad_frame _ -> "bad-frame"
  | Bad_request _ -> "bad-request"
  | Bad_region _ -> "bad-region"
  | Unknown_shape _ -> "unknown-shape"
  | Unknown_backend _ -> "unknown-backend"
  | Shutting_down -> "shutting-down"

let proto_error_message = function
  | Bad_frame what -> what
  | Bad_request what -> what
  | Bad_region e -> Ir.Parse.error_to_string e
  | Unknown_shape s ->
      Printf.sprintf "unknown shape %S (known: %s)" s
        (String.concat ", " Workload.Shapes.spec_names)
  | Unknown_backend b -> Printf.sprintf "backend %S is not registered" b
  | Shutting_down -> "service is draining; request refused"

type source =
  | Generated of { shape : string; size : int; seed : int }
  | Inline of Ir.Region.t

type request = {
  req_id : string;
  req_client : string option;
  source : source;
  fault_rate : float option;
  fault_seed : int option;
  budget_ms : float option;
  backend : Engine.Dispatch.policy option;
}

type command =
  | Compile of request
  | Ping of string
  | Stats of string
  | Metrics_dump of string
  | Watch of string
  | Shutdown of string

let known_keys =
  [
    "op"; "id"; "client"; "shape"; "size"; "seed"; "fault-rate"; "fault-seed";
    "budget-ms"; "backend";
  ]

(* every compile-only key, for rejecting them on control commands *)
let compile_keys =
  [ "client"; "shape"; "size"; "seed"; "fault-rate"; "fault-seed"; "budget-ms"; "backend" ]

exception Err of proto_error

let parse_request payload =
  let header, body =
    match String.index_opt payload '\n' with
    | None -> (payload, "")
    | Some i ->
        ( String.sub payload 0 i,
          String.sub payload (i + 1) (String.length payload - i - 1) )
  in
  let tokens =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim header))
  in
  (* best-effort id so even a rejected request gets a correlated reply *)
  let best_id =
    List.fold_left
      (fun acc tok ->
        match String.index_opt tok '=' with
        | Some i when String.sub tok 0 i = "id" ->
            String.sub tok (i + 1) (String.length tok - i - 1)
        | _ -> acc)
      "-" tokens
  in
  let bad fmt = Printf.ksprintf (fun m -> raise (Err (Bad_request m))) fmt in
  try
    let kv =
      List.map
        (fun tok ->
          match String.index_opt tok '=' with
          | None -> bad "token %S is not key=value" tok
          | Some i ->
              (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
        tokens
    in
    List.iter
      (fun (k, _) ->
        if not (List.mem k known_keys) then bad "unknown key %S" k;
        if List.length (List.filter (fun (k', _) -> String.equal k k') kv) > 1 then
          bad "duplicate key %S" k)
      kv;
    let get k = List.assoc_opt k kv in
    let get_int k =
      Option.map
        (fun v ->
          match int_of_string_opt v with
          | Some n -> n
          | None -> bad "%s=%S is not an integer" k v)
        (get k)
    in
    let get_float k =
      Option.map
        (fun v ->
          match float_of_string_opt v with
          | Some f when Float.is_nan f -> bad "%s=%S is not a number" k v
          | Some f -> f
          | None -> bad "%s=%S is not a number" k v)
        (get k)
    in
    let id = Option.value (get "id") ~default:"-" in
    let op = Option.value (get "op") ~default:"compile" in
    let body_trim = String.trim body in
    let control mk =
      List.iter
        (fun k -> if get k <> None then bad "%s= is only valid with op=compile" k)
        compile_keys;
      if body_trim <> "" then bad "op=%s takes no region text" op;
      Ok (mk id)
    in
    match op with
    | "ping" -> control (fun id -> Ping id)
    | "stats" -> control (fun id -> Stats id)
    | "metrics" -> control (fun id -> Metrics_dump id)
    | "watch" -> control (fun id -> Watch id)
    | "shutdown" -> control (fun id -> Shutdown id)
    | "compile" ->
        let source =
          match (get "shape", body_trim) with
          | Some _, b when b <> "" -> bad "both shape= and inline region text given"
          | Some shape, _ ->
              if not (List.mem shape Workload.Shapes.spec_names) then
                raise (Err (Unknown_shape shape));
              let size = Option.value (get_int "size") ~default:50 in
              if size < 2 || size > 2048 then bad "size=%d out of range (2..2048)" size;
              let seed = Option.value (get_int "seed") ~default:1 in
              Generated { shape; size; seed }
          | None, "" -> bad "no source: give shape= or inline region text"
          | None, _ -> (
              List.iter
                (fun k ->
                  if get k <> None then bad "%s= is only valid with shape=" k)
                [ "size"; "seed" ];
              match Ir.Parse.region_of_string body with
              | Ok region -> Inline region
              | Error e -> raise (Err (Bad_region e)))
        in
        let fault_rate =
          Option.map
            (fun r ->
              if r < 0.0 || r > 1.0 then bad "fault-rate=%g out of range [0,1]" r
              else r)
            (get_float "fault-rate")
        in
        let budget_ms =
          Option.map
            (fun b -> if b < 0.0 then bad "budget-ms=%g is negative" b else b)
            (get_float "budget-ms")
        in
        let backend =
          match get "backend" with
          | None -> None
          | Some spec ->
              let policy =
                try Engine.Dispatch.of_string spec with
                | Invalid_argument m -> bad "backend: %s" m
                | Engine.Dispatch.Duplicate_backend b ->
                    bad "backend: %S appears twice in %S" b spec
              in
              Compile.ensure_backends ();
              List.iter
                (fun b ->
                  if not (Engine.Registry.mem b) then raise (Err (Unknown_backend b)))
                (Engine.Dispatch.backend_names policy);
              Some policy
        in
        Ok
          (Compile
             {
               req_id = id;
               req_client = get "client";
               source;
               fault_rate;
               fault_seed = get_int "fault-seed";
               budget_ms;
               backend;
             })
    | other -> bad "unknown op %S" other
  with Err e -> Error (best_id, e)

type compile_reply = {
  rep_id : string;
  rep_region : string;
  rep_outcome : Robust.degradation;
  rep_cost : Sched.Cost.t;
  rep_order : int array;
  rep_digest : string;
  rep_attempts : int;
  rep_retries : int;
  rep_latency_ns : float;
  rep_memo : [ `Hit | `Miss | `Shed ];
}

type reply =
  | Compiled of compile_reply
  | Rejected of { rej_id : string; error : proto_error }
  | Pong of { png_id : string }
  | Stats_reply of { sts_id : string; body : (string * string) list }
  | Metrics_reply of { met_id : string; body : string }
  | Watch_reply of { wat_id : string; body : (string * string) list }
  | Drained of { served : int; rejected : int; tally : Robust.tally }

let render_reply = function
  | Compiled r ->
      let rp = r.rep_cost.Sched.Cost.rp in
      Printf.sprintf
        "ok id=%s region=%s outcome=%s occupancy=%d vgpr=%d sgpr=%d length=%d \
         attempts=%d retries=%d memo=%s latency-ns=%.0f digest=%s order=%s"
        r.rep_id r.rep_region
        (Robust.degradation_label r.rep_outcome)
        rp.Sched.Cost.occupancy rp.Sched.Cost.aprp_vgpr rp.Sched.Cost.aprp_sgpr
        r.rep_cost.Sched.Cost.length r.rep_attempts r.rep_retries
        (match r.rep_memo with `Hit -> "hit" | `Miss -> "miss" | `Shed -> "shed")
        r.rep_latency_ns r.rep_digest
        (String.concat "," (List.map string_of_int (Array.to_list r.rep_order)))
  | Rejected { rej_id; error } ->
      Printf.sprintf "err id=%s code=%s msg=%s" rej_id (proto_error_code error)
        (proto_error_message error)
  | Pong { png_id } -> Printf.sprintf "pong id=%s" png_id
  | Stats_reply { sts_id; body } ->
      Printf.sprintf "stats id=%s %s" sts_id
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) body))
  | Metrics_reply { met_id; body } ->
      (* multi-line: the header names the reply, the Prometheus text
         exposition follows verbatim *)
      Printf.sprintf "metrics id=%s\n%s" met_id body
  | Watch_reply { wat_id; body } ->
      Printf.sprintf "watch id=%s %s" wat_id
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) body))
  | Drained { served; rejected; tally } ->
      Printf.sprintf
        "bye served=%d rejected=%d regions=%d clean=%d retried=%d \
         budget-exceeded=%d faulted-fallback=%d shed=%d total-retries=%d"
        served rejected tally.Robust.regions tally.Robust.clean
        tally.Robust.retried tally.Robust.budget_exceeded
        tally.Robust.faulted_fallback tally.Robust.shed_overload
        tally.Robust.total_retries

(* ------------------------------------------------------------------ *)
(* Budget arithmetic                                                   *)
(* ------------------------------------------------------------------ *)

let budget_of_ns ns =
  if ns = infinity || ns <= 0.0 then Engine.Types.Unlimited
  else Engine.Types.Time_ns ns

let deadline_of_budget gpu ~slack budget =
  let slack = Float.max 1.0 slack in
  match budget with
  | Engine.Types.Unlimited -> infinity
  | Engine.Types.Time_ns ns -> slack *. ns
  | Engine.Types.Work w -> slack *. Gpusim.Cpu_model.pass_time_ns gpu ~work:w

(* ------------------------------------------------------------------ *)
(* The service                                                         *)
(* ------------------------------------------------------------------ *)

type memo_entry = {
  memo_outcome : Robust.degradation;
  memo_cost : Sched.Cost.t;
  memo_order : int array;
  memo_digest : string;
  memo_retries : int;
  memo_latency_ns : float;
}

type t = {
  cfg : config;
  metrics : Obs.Metrics.t;
  log : Obs.Log.t;
  pool : Support.Domain_pool.t option;
  on_reply : reply -> unit;
  cache : Analysis.t;
  memo : (string, memo_entry) Hashtbl.t;
  memo_use : (string, int) Hashtbl.t;
  mutable memo_tick : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  (* fingerprint -> canonical wire text, for persistence *)
  seen_regions : (string, string) Hashtbl.t;
  queue : (request * Ir.Region.t * string) Queue.t;
  mutable state : [ `Serving | `Draining | `Drained ];
  mutable in_flight : int;  (** misses computing in the current batch *)
  mutable received : int;
  mutable served : int;
  mutable rejected : int;
  mutable shed : int;
  mutable tally : Robust.tally;
  mutable persist_info : string;  (** provenance: cold / warm(...) / failed(...) *)
}

let config t = t.cfg
let state t = t.state
let queue_depth t = Queue.length t.queue
let in_flight t = t.in_flight
let received t = t.received
let served t = t.served
let rejected t = t.rejected
let tally t = t.tally
let analysis_stats t = Analysis.stats t.cache
let memo_stats t = (t.memo_hits, t.memo_misses, Hashtbl.length t.memo)

let shed_point t =
  let cap = max 1 t.cfg.queue_capacity in
  let p = int_of_float (ceil (Float.max 0.0 (Float.min 1.0 t.cfg.shed_threshold) *. float_of_int cap)) in
  max 1 (min cap p)

(* ---- persistence ------------------------------------------------- *)

let persist_version = 1
let regions_path dir = Filename.concat dir "analysis.blob"
let memo_path dir = Filename.concat dir "memo.blob"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let persist t =
  match t.cfg.state_dir with
  | None -> ()
  | Some dir -> (
      try
        mkdir_p dir;
        let regions =
          Hashtbl.fold (fun _ wire acc -> wire :: acc) t.seen_regions []
        in
        Support.Blobfile.save ~kind:"serve-analysis" ~version:persist_version
          (regions_path dir)
          (Marshal.to_string (regions : string list) []);
        let memo = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.memo [] in
        Support.Blobfile.save ~kind:"serve-memo" ~version:persist_version
          (memo_path dir)
          (Marshal.to_string (memo : (string * memo_entry) list) []);
        Obs.Metrics.incr t.metrics "serve.persist.saved"
      with Sys_error _ -> Obs.Metrics.incr t.metrics "serve.persist.save_failed")

let record_region t (rc : Engine.Region_ctx.t) region =
  let cap = (Analysis.stats t.cache).Analysis.capacity in
  if
    cap > 0
    && (not (Hashtbl.mem t.seen_regions rc.Engine.Region_ctx.fingerprint))
    && Hashtbl.length t.seen_regions < cap
  then
    Hashtbl.replace t.seen_regions rc.Engine.Region_ctx.fingerprint
      (Ir.Parse.region_to_wire region)

(* Reload both cache levels. Decoding is defensive end to end: Blobfile
   verifies kind/version/length/checksum, Marshal is wrapped, and every
   region re-parses through the validating text parser — a stale,
   truncated or corrupt file downgrades to a cold start plus a metric,
   never an exception. *)
let load_state t =
  match t.cfg.state_dir with
  | None -> ()
  | Some dir ->
      let failed what =
        Obs.Metrics.incr t.metrics "serve.persist.load_failed";
        t.persist_info <- "failed(" ^ what ^ ")"
      in
      let regions_loaded = ref 0 and memo_loaded = ref 0 in
      (match
         Support.Blobfile.load ~kind:"serve-analysis" ~version:persist_version
           (regions_path dir)
       with
      | Error Support.Blobfile.Missing -> ()
      | Error e -> failed (Support.Blobfile.error_to_string e)
      | Ok payload -> (
          match
            try Some (Marshal.from_string payload 0 : string list)
            with _ -> None
          with
          | None -> failed "analysis payload undecodable"
          | Some wires ->
              List.iter
                (fun wire ->
                  match Ir.Parse.region_of_string wire with
                  | Ok region ->
                      let rc =
                        Analysis.get t.cache t.cfg.compile.Compile.occ region
                      in
                      record_region t rc region;
                      incr regions_loaded
                  | Error _ ->
                      Obs.Metrics.incr t.metrics "serve.persist.load_failed")
                wires));
      (match
         Support.Blobfile.load ~kind:"serve-memo" ~version:persist_version
           (memo_path dir)
       with
      | Error Support.Blobfile.Missing -> ()
      | Error e -> failed (Support.Blobfile.error_to_string e)
      | Ok payload -> (
          match
            try Some (Marshal.from_string payload 0 : (string * memo_entry) list)
            with _ -> None
          with
          | None -> failed "memo payload undecodable"
          | Some entries ->
              List.iter
                (fun (k, e) ->
                  if
                    t.cfg.memo_capacity > 0
                    && Hashtbl.length t.memo < t.cfg.memo_capacity
                  then begin
                    Hashtbl.replace t.memo k e;
                    t.memo_tick <- t.memo_tick + 1;
                    Hashtbl.replace t.memo_use k t.memo_tick;
                    incr memo_loaded
                  end)
                entries));
      Obs.Metrics.add t.metrics "serve.persist.regions_loaded" !regions_loaded;
      Obs.Metrics.add t.metrics "serve.persist.memo_loaded" !memo_loaded;
      if !regions_loaded > 0 || !memo_loaded > 0 then
        t.persist_info <-
          Printf.sprintf "warm(%d-regions,%d-memo)" !regions_loaded !memo_loaded

let create ?(metrics = Obs.Metrics.null) ?(log = Obs.Log.null) ?pool
    ?(on_reply = fun _ -> ()) cfg =
  Compile.ensure_backends ();
  let t =
    {
      cfg;
      metrics;
      log;
      pool;
      on_reply;
      cache = Analysis.create ~metrics ();
      memo = Hashtbl.create 64;
      memo_use = Hashtbl.create 64;
      memo_tick = 0;
      memo_hits = 0;
      memo_misses = 0;
      seen_regions = Hashtbl.create 64;
      queue = Queue.create ();
      state = `Serving;
      in_flight = 0;
      received = 0;
      served = 0;
      rejected = 0;
      shed = 0;
      tally = Robust.empty_tally;
      persist_info = "cold";
    }
  in
  load_state t;
  if Obs.Log.enabled log then
    Obs.Log.info log "serve.start"
      [
        ("persist", Obs.Log.Str t.persist_info);
        ("queue_capacity", Obs.Log.Int cfg.queue_capacity);
        ("max_in_flight", Obs.Log.Int cfg.max_in_flight);
        ("pooled", Obs.Log.Bool (pool <> None));
      ];
  t

(* ---- memo -------------------------------------------------------- *)

(* The memo key must pin everything that can change the reply: the
   region's structure (fingerprint), the region *name* (it is part of
   the report and hence the digest), and the whole effective compile
   configuration — a duplicate request with a different budget or
   backend must miss. Marshal is structural, so equal values give equal
   keys across process restarts (the memo persists). *)
let memo_key (cfg : Compile.config) ~name fingerprint =
  let payload =
    Marshal.to_string
      ( name,
        cfg.Compile.occ,
        cfg.Compile.gpu,
        cfg.Compile.params,
        cfg.Compile.filters,
        cfg.Compile.robust,
        cfg.Compile.dispatch,
        cfg.Compile.seq_seed,
        cfg.Compile.par_seed,
        cfg.Compile.run_sequential )
      []
  in
  fingerprint ^ "#" ^ Digest.to_hex (Digest.string payload)

let memo_find t key =
  match Hashtbl.find_opt t.memo key with
  | None -> None
  | Some e ->
      t.memo_tick <- t.memo_tick + 1;
      Hashtbl.replace t.memo_use key t.memo_tick;
      Some e

let memo_store t key entry =
  if t.cfg.memo_capacity > 0 then begin
    if
      (not (Hashtbl.mem t.memo key))
      && Hashtbl.length t.memo >= t.cfg.memo_capacity
    then begin
      let victim =
        Hashtbl.fold
          (fun k tick acc ->
            match acc with
            | Some (_, best) when best <= tick -> acc
            | _ -> Some (k, tick))
          t.memo_use None
      in
      match victim with
      | Some (k, _) ->
          Hashtbl.remove t.memo k;
          Hashtbl.remove t.memo_use k;
          Obs.Metrics.incr t.metrics "serve.memo.evictions"
      | None -> ()
    end;
    Hashtbl.replace t.memo key entry;
    t.memo_tick <- t.memo_tick + 1;
    Hashtbl.replace t.memo_use key t.memo_tick;
    Obs.Metrics.set t.metrics "serve.memo.entries"
      (float_of_int (Hashtbl.length t.memo))
  end

(* ---- replies ----------------------------------------------------- *)

let send t reply =
  (match reply with
  | Compiled r ->
      t.served <- t.served + 1;
      Obs.Metrics.observe t.metrics "serve.latency_ns" r.rep_latency_ns
  | Rejected _ ->
      t.rejected <- t.rejected + 1;
      Obs.Metrics.incr t.metrics "serve.malformed"
  | Pong _ | Stats_reply _ | Metrics_reply _ | Watch_reply _ | Drained _ -> ());
  Obs.Metrics.incr t.metrics "serve.replies";
  t.on_reply reply

let reject t id error =
  if Obs.Log.enabled t.log then
    Obs.Log.warn t.log "serve.reject"
      [
        ("req", Obs.Log.Str id);
        ("code", Obs.Log.Str (proto_error_code error));
        ("msg", Obs.Log.Str (proto_error_message error));
      ];
  send t (Rejected { rej_id = id; error })

(* ---- the compile path -------------------------------------------- *)

let effective_config t (req : request) =
  let c = t.cfg.compile in
  let gpu =
    match req.fault_rate with
    | Some rate ->
        let seed =
          Option.value req.fault_seed ~default:c.Compile.gpu.Gpusim.Config.fault_seed
        in
        Gpusim.Config.with_faults ~seed c.Compile.gpu
          (Gpusim.Config.uniform_faults rate)
    | None -> (
        match req.fault_seed with
        | Some seed ->
            Gpusim.Config.with_faults ~seed c.Compile.gpu
              c.Compile.gpu.Gpusim.Config.faults
        | None -> c.Compile.gpu)
  in
  let robust =
    match req.budget_ms with
    | Some ms ->
        { c.Compile.robust with Robust.compile_budget_ns = Robust.budgets_of_ms ms }
    | None -> c.Compile.robust
  in
  let dispatch = Option.value req.backend ~default:c.Compile.dispatch in
  { c with Compile.gpu; robust; dispatch }

(* [a] beats [b]: least degraded first, then the usual cost order. *)
let better_report (a : Compile.region_report) (b : Compile.region_report) =
  let sa = Robust.severity a.Compile.degradation
  and sb = Robust.severity b.Compile.degradation in
  if sa <> sb then sa < sb
  else Sched.Cost.better_rp_then_length a.Compile.aco_cost b.Compile.aco_cost

let hit_reply t (req : request) name (e : memo_entry) =
  t.memo_hits <- t.memo_hits + 1;
  Obs.Metrics.incr t.metrics "serve.memo.hits";
  t.tally <- Robust.tally_add t.tally e.memo_outcome;
  Robust.observe Obs.Trace.null t.metrics ~region:name e.memo_outcome;
  Compiled
    {
      rep_id = req.req_id;
      rep_region = name;
      rep_outcome = e.memo_outcome;
      rep_cost = e.memo_cost;
      rep_order = e.memo_order;
      rep_digest = e.memo_digest;
      rep_attempts = 0;
      rep_retries = e.memo_retries;
      (* a hit costs no simulated compile time; the recorded latency
         is what the original compile spent *)
      rep_latency_ns = 0.0;
      rep_memo = `Hit;
    }

(* The attempt loop of a memo miss. Deadline-bounded: each retry reseeds
   the fault stream (attempt 0 is the identity reseed, so a fault-free
   serve compile is bit-for-bit the direct compile) and charges
   exponential backoff against the deadline before it may run.

   Deterministic in its inputs and touching only [t.metrics] (its
   registry carries its own mutex) and the domain-safe analysis cache —
   the batched pump runs several of these on the domain pool at once. *)
let compute_miss t ?(log = Obs.Log.null) (cfg : Compile.config) rc name region =
  let n = Ir.Region.size region in
  let base = Robust.budget_for cfg.Compile.robust ~n in
  let deadline =
    deadline_of_budget cfg.Compile.gpu ~slack:t.cfg.deadline_slack
      (budget_of_ns base)
  in
  let rec go attempt spent best =
    let budget_ns = Float.max 0.0 (Float.min base (deadline -. spent)) in
    let cfg_a =
      { cfg with Compile.gpu = Gpusim.Config.reseed_faults cfg.Compile.gpu ~salt:attempt }
    in
    let report =
      Compile.run_region ~metrics:t.metrics ~log ~ctx:rc ~budget_ns cfg_a ~name
        region
    in
    let p = Compile.product_run report in
    let spent =
      spent +. p.Compile.run_pass1_time_ns +. p.Compile.run_pass2_time_ns
    in
    let best =
      match best with
      | Some b when not (better_report report b) -> b
      | _ -> report
    in
    let attempts = attempt + 1 in
    if Robust.severity report.Compile.degradation = 0 then (best, attempts, spent)
    else if attempt >= t.cfg.max_retries then (best, attempts, spent)
    else begin
      let backoff = t.cfg.backoff_base_ns *. Float.pow 2.0 (float_of_int attempt) in
      if spent +. backoff >= deadline then begin
        Obs.Metrics.incr t.metrics "serve.deadline_exceeded";
        (best, attempts, spent)
      end
      else begin
        Obs.Metrics.incr t.metrics "serve.retries";
        go (attempt + 1) (spent +. backoff) (Some best)
      end
    end
  in
  go 0 0.0 None

(* Sequential epilogue of a miss: counters, memo, tally, quality
   ledger, reply. The ledger append runs on the caller (never a pool
   domain), and a failing write degrades to a metric — the reply is
   never blocked on telemetry. *)
let miss_reply t (req : request) name key (best, attempts, spent) =
  t.memo_misses <- t.memo_misses + 1;
  Obs.Metrics.incr t.metrics "serve.memo.misses";
  (match t.cfg.quality_ledger with
  | None -> ()
  | Some file -> (
      try
        Quality.append ~file [ Quality.of_region best ];
        Obs.Metrics.incr t.metrics "serve.quality.recorded"
      with Sys_error _ -> Obs.Metrics.incr t.metrics "serve.quality.write_failed"));
  let digest = Report_digest.digest_region best in
  memo_store t key
    {
      memo_outcome = best.Compile.degradation;
      memo_cost = best.Compile.aco_cost;
      memo_order = best.Compile.aco_order;
      memo_digest = digest;
      memo_retries = best.Compile.retries;
      memo_latency_ns = spent;
    };
  t.tally <- Robust.tally_add t.tally best.Compile.degradation;
  Compiled
    {
      rep_id = req.req_id;
      rep_region = name;
      rep_outcome = best.Compile.degradation;
      rep_cost = best.Compile.aco_cost;
      rep_order = best.Compile.aco_order;
      rep_digest = digest;
      rep_attempts = attempts;
      rep_retries = best.Compile.retries;
      rep_latency_ns = spent;
      rep_memo = `Miss;
    }

(* Shedding answers from analysis alone: the Critical-Path schedule is
   already in the region context, so the reply costs no ACO work at
   all — the always-available floor the service degrades to. *)
let shed_reply t (req : request) region name =
  let cfg = effective_config t req in
  let rc = Analysis.get t.cache cfg.Compile.occ region in
  record_region t rc region;
  t.shed <- t.shed + 1;
  Obs.Metrics.incr t.metrics "serve.shed_overload";
  t.tally <- Robust.tally_add t.tally Robust.Shed_overload;
  if Obs.Log.enabled t.log then
    Obs.Log.warn t.log "serve.shed"
      [
        ("req", Obs.Log.Str req.req_id);
        ("region", Obs.Log.Str name);
        ("queue_depth", Obs.Log.Int (Queue.length t.queue));
      ];
  Robust.observe Obs.Trace.null t.metrics ~region:name Robust.Shed_overload;
  Compiled
    {
      rep_id = req.req_id;
      rep_region = name;
      rep_outcome = Robust.Shed_overload;
      rep_cost = rc.Engine.Region_ctx.cp_cost;
      rep_order = Sched.Schedule.order rc.Engine.Region_ctx.cp_schedule;
      rep_digest = "-";
      rep_attempts = 0;
      rep_retries = 0;
      rep_latency_ns = 0.0;
      rep_memo = `Shed;
    }

(* ---- admission --------------------------------------------------- *)

let stats_body t =
  let astats = Analysis.stats t.cache in
  let y = t.tally in
  [
    ("state",
      match t.state with
      | `Serving -> "serving"
      | `Draining -> "draining"
      | `Drained -> "drained");
    ("queue-depth", string_of_int (Queue.length t.queue));
    ("shed-point", string_of_int (shed_point t));
    ("received", string_of_int t.received);
    ("served", string_of_int t.served);
    ("rejected", string_of_int t.rejected);
    ("shed", string_of_int t.shed);
    ("regions", string_of_int y.Robust.regions);
    ("clean", string_of_int y.Robust.clean);
    ("retried", string_of_int y.Robust.retried);
    ("budget-exceeded", string_of_int y.Robust.budget_exceeded);
    ("faulted-fallback", string_of_int y.Robust.faulted_fallback);
    ("shed-overload", string_of_int y.Robust.shed_overload);
    ("total-retries", string_of_int y.Robust.total_retries);
    ("memo-hits", string_of_int t.memo_hits);
    ("memo-misses", string_of_int t.memo_misses);
    ("memo-entries", string_of_int (Hashtbl.length t.memo));
    ("analysis-hits", string_of_int astats.Analysis.hits);
    ("analysis-misses", string_of_int astats.Analysis.misses);
    ("persist", t.persist_info);
  ]

(* The [op=watch] body: everything [stats] says plus the operational
   signals a live dashboard wants — in-flight work, pool occupancy,
   deadline hits, hit rates and latency quantiles. Quantiles come from
   the [serve.latency_ns] histogram's bucket ladder, so they cost a
   16-entry scan, not a recorded-sample sort; with a disabled metrics
   registry the metric-derived fields read 0 and the body still
   renders. *)
let watch_body t =
  let metric name = Obs.Metrics.get t.metrics name in
  let lastv name =
    match metric name with Some m -> Obs.Metrics.last m | None -> 0.0
  in
  let valv name =
    match metric name with Some m -> Obs.Metrics.value m | None -> 0.0
  in
  let pctl q =
    match metric "serve.latency_ns" with
    | Some m -> Obs.Metrics.percentile m q
    | None -> 0.0
  in
  let rate hits misses =
    let total = hits + misses in
    if total = 0 then "-"
    else Printf.sprintf "%.1f%%" (100.0 *. float_of_int hits /. float_of_int total)
  in
  let astats = Analysis.stats t.cache in
  stats_body t
  @ [
      ("in-flight", string_of_int t.in_flight);
      ("pool-busy", Printf.sprintf "%.0f" (lastv "serve.pool.busy"));
      ("pool-idle", Printf.sprintf "%.0f" (lastv "serve.pool.idle"));
      ("deadline-exceeded", Printf.sprintf "%.0f" (valv "serve.deadline_exceeded"));
      ("memo-hit-rate", rate t.memo_hits t.memo_misses);
      ("analysis-hit-rate", rate astats.Analysis.hits astats.Analysis.misses);
      ("latency-p50-ns", Printf.sprintf "%.0f" (pctl 0.5));
      ("latency-p99-ns", Printf.sprintf "%.0f" (pctl 0.99));
    ]

let gauge_queue t =
  Obs.Metrics.set t.metrics "serve.queue_depth"
    (float_of_int (Queue.length t.queue))

let region_of_source = function
  | Inline region -> Ok (region, region.Ir.Region.name)
  | Generated { shape; size; seed } -> (
      match Workload.Shapes.of_spec ~name:shape ~size ~seed with
      | Some region -> Ok (region, shape)
      | None -> Error (Unknown_shape shape))

(* Batched pump over the domain pool. Three phases per batch:

     1. pop (in order) and classify: memo hit / first-in-batch miss /
        in-batch duplicate of a miss. Classification probes the memo
        without bumping its LRU clock — the bump happens in phase 3, in
        pop order, exactly where the sequential pump would have bumped.
     2. run the distinct misses' attempt loops on the pool. Each is
        deterministic in its inputs, so which domain runs it cannot
        change its reply.
     3. reply in pop order: hits and duplicates go through the memo
        (an in-batch duplicate replies [memo=hit], as it would have
        sequentially — the first occurrence stored its entry in this
        same phase); computed misses store, tally, reply. A memo entry
        evicted between probe and phase 3 downgrades to an inline
        sequential compute — correctness over throughput on that rare
        path. *)
let process_batch t pool ~limit =
  let items = ref [] in
  let n = ref 0 in
  while (limit < 0 || !n < limit) && not (Queue.is_empty t.queue) do
    let req, region, name = Queue.pop t.queue in
    gauge_queue t;
    let cfg = effective_config t req in
    let rc = Analysis.get t.cache cfg.Compile.occ region in
    record_region t rc region;
    let key = memo_key cfg ~name rc.Engine.Region_ctx.fingerprint in
    items := (req, region, name, cfg, rc, key) :: !items;
    incr n
  done;
  let items = Array.of_list (List.rev !items) in
  let ni = Array.length items in
  let seen = Hashtbl.create 16 in
  let classes =
    Array.map
      (fun (_, _, _, _, _, key) ->
        if Hashtbl.mem t.memo key then `Hit
        else if t.cfg.memo_capacity > 0 && Hashtbl.mem seen key then `Dup
        else begin
          Hashtbl.replace seen key ();
          `Compute
        end)
      items
  in
  let todo =
    Array.of_list
      (List.filter (fun i -> classes.(i) = `Compute) (List.init ni (fun i -> i)))
  in
  let results = Array.make ni None in
  (* Per-request child logger: the request id rides on every entry the
     compile emits, from admission through pool worker to backend pass. *)
  let req_log (req : request) =
    if Obs.Log.enabled t.log then
      Obs.Log.with_fields t.log [ ("req", Obs.Log.Str req.req_id) ]
    else Obs.Log.null
  in
  let compute i =
    let req, region, name, cfg, rc, _ = items.(i) in
    results.(i) <- Some (compute_miss t ~log:(req_log req) cfg rc name region)
  in
  t.in_flight <- Array.length todo;
  Obs.Metrics.set t.metrics "serve.in_flight" (float_of_int t.in_flight);
  (match pool with
  | Some pool when Array.length todo > 1 ->
      let lanes = Support.Domain_pool.size pool + 1 in
      let workers = min lanes (Array.length todo) in
      Obs.Metrics.set t.metrics "serve.pool.busy" (float_of_int workers);
      Obs.Metrics.set t.metrics "serve.pool.idle" (float_of_int (lanes - workers));
      Support.Domain_pool.parallel_for pool ~workers (Array.length todo) (fun _ j ->
          compute todo.(j));
      Obs.Metrics.set t.metrics "serve.pool.busy" 0.0;
      Obs.Metrics.set t.metrics "serve.pool.idle" (float_of_int lanes)
  | _ -> Array.iter compute todo);
  t.in_flight <- 0;
  Obs.Metrics.set t.metrics "serve.in_flight" 0.0;
  Array.iteri
    (fun i (req, region, name, cfg, rc, key) ->
      let reply =
        match classes.(i) with
        | `Compute -> (
            match results.(i) with
            | Some r -> miss_reply t req name key r
            | None ->
                miss_reply t req name key
                  (compute_miss t ~log:(req_log req) cfg rc name region))
        | `Hit | `Dup -> (
            match memo_find t key with
            | Some e -> hit_reply t req name e
            | None ->
                miss_reply t req name key
                  (compute_miss t ~log:(req_log req) cfg rc name region))
      in
      send t reply)
    items;
  ni

let process t = process_batch t t.pool ~limit:t.cfg.max_in_flight

let drain t =
  match t.state with
  | `Drained -> ()
  | `Serving | `Draining ->
      t.state <- `Draining;
      (* finish everything in flight, ignoring the per-pump cap *)
      while not (Queue.is_empty t.queue) do
        ignore (process_batch t t.pool ~limit:(-1))
      done;
      persist t;
      t.state <- `Drained;
      Obs.Metrics.incr t.metrics "serve.drained";
      if Obs.Log.enabled t.log then
        Obs.Log.info t.log "serve.drain"
          [
            ("served", Obs.Log.Int t.served);
            ("rejected", Obs.Log.Int t.rejected);
            ("shed", Obs.Log.Int t.shed);
          ];
      send t (Drained { served = t.served; rejected = t.rejected; tally = t.tally })

let handle t ?(client = "anon") payload =
  t.received <- t.received + 1;
  Obs.Metrics.incr t.metrics "serve.requests";
  match parse_request payload with
  | Error (id, error) ->
      Obs.Metrics.incr t.metrics ("serve.client." ^ client ^ ".requests");
      reject t id error
  | Ok cmd -> (
      let client =
        match cmd with
        | Compile { req_client = Some c; _ } -> c
        | _ -> client
      in
      Obs.Metrics.incr t.metrics ("serve.client." ^ client ^ ".requests");
      match cmd with
      (* the control plane stays responsive while draining; only new
         compile work is refused *)
      | Ping id -> send t (Pong { png_id = id })
      | Stats id -> send t (Stats_reply { sts_id = id; body = stats_body t })
      | Metrics_dump id ->
          let body =
            if Obs.Metrics.enabled t.metrics then Obs.Metrics.to_prometheus t.metrics
            else "# metrics disabled\n"
          in
          send t (Metrics_reply { met_id = id; body })
      | Watch id -> send t (Watch_reply { wat_id = id; body = watch_body t })
      | Shutdown _ ->
          (* the Drained reply acknowledges the shutdown *)
          drain t
      | Compile req when t.state <> `Serving -> reject t req.req_id Shutting_down
      | Compile req -> (
          match region_of_source req.source with
          | Error error -> reject t req.req_id error
          | Ok (region, name) ->
              if Queue.length t.queue >= shed_point t then
                send t (shed_reply t req region name)
              else begin
                Queue.push (req, region, name) t.queue;
                Obs.Metrics.incr t.metrics "serve.admitted";
                if Obs.Log.enabled t.log then
                  Obs.Log.debug t.log "serve.admit"
                    [
                      ("req", Obs.Log.Str req.req_id);
                      ("region", Obs.Log.Str name);
                      ("queue_depth", Obs.Log.Int (Queue.length t.queue));
                    ];
                gauge_queue t
              end))

let handle_frame_error t ?(client = "anon") err =
  t.received <- t.received + 1;
  Obs.Metrics.incr t.metrics "serve.requests";
  Obs.Metrics.incr t.metrics ("serve.client." ^ client ^ ".requests");
  reject t "-" (Bad_frame (Support.Frame.error_to_string err))
