(** The compile service as a long-lived daemon: admission, deadlines,
    shedding, and crash-safe caches.

    {!Compile.run_region} is a one-shot driver; this module wraps it in
    the request loop a production scheduling service needs. Requests
    arrive as framed payloads ({!Support.Frame}) carrying either a
    generator spec ([shape=transform size=60 seed=7]) or inline region
    text ({!Ir.Parse}); every frame — well-formed or hostile — is
    answered exactly once, with a typed error reply when it cannot be
    served. The loop is transport-agnostic and single-threaded: a pump
    (stdio or a Unix socket in [bin/gpuaco], a driving loop in tests and
    drills) feeds {!handle} and calls {!process} to make compile
    progress, and replies leave through the [on_reply] callback.

    Robustness machinery, all deterministic because compile time is
    simulated:

    - {b Admission}: a bounded queue ([queue_capacity]); {!process}
      compiles at most [max_in_flight] queued requests per pump call.
    - {b Shedding}: past [shed_threshold] of queue capacity a compile
      request is not queued at all — it is answered immediately with the
      Critical-Path schedule from the region's analysis context, ledgered
      as {!Robust.Shed_overload}. The service degrades, never stalls.
    - {b Deadlines and retry}: each request's budget becomes an
      {!Engine.Types.budget}; the request deadline is that budget times
      [deadline_slack]. Under a config that injects faults
      ({!Gpusim.Config.faults_enabled}), a degraded attempt (faults,
      budget exhaustion) is retried up to [max_retries] times with
      exponential backoff and a per-attempt reseeded fault stream
      ({!Gpusim.Config.reseed_faults}); backoff is charged against the
      deadline, and the best attempt by (severity, cost) ships. A
      fault-free degraded attempt ships at once: a retry would replay
      the same compile on the same or a smaller budget.
    - {b Memoisation}: a schedule memo ({!Support.Lru}, [memo_capacity]
      entries) keyed on (the region's content address
      {!Engine.Region_ctx.fingerprint_of_region}, request name,
      effective compile configuration). The memo stores the miss's
      {!compile_reply}; a hit replays it — report digest included —
      under the request's id, with 0 attempts and 0 latency, touching
      neither the {!Analysis} cache nor ACO. Only a miss or a shed
      analyses its region, through the service's analysis cache.
    - {b Persistence}: with a [state_dir], {!drain} (and {!persist})
      writes the memo's replies, least recently used first, through
      {!Support.Blobfile} (checksummed, atomically renamed) to
      [memo.blob]. {!create} reloads them in that order, so the recency
      order survives (a smaller memo keeps the newest replies) and a
      warm restart answers a persisted request without analysing
      anything; a missing, corrupt, truncated or version-skewed file
      counts a metric and starts cold — it never raises. The analysis
      cache is not persisted: a restart analyses a region again only
      when a miss or a shed needs it.
    - {b Drain}: {!drain} finishes every queued request, refuses new
      ones with a typed [shutting-down] reply, persists state and emits
      a final [bye] reply with the full degradation tally.

    Every decision is counted in {!Obs.Metrics} under [serve.*]:
    admissions, sheds, retries, deadline hits, memo traffic, per-client
    request counters, a queue-depth gauge and a simulated-latency
    histogram. *)

(** {1 Configuration} *)

type config = {
  compile : Compile.config;  (** base per-request compile configuration *)
  queue_capacity : int;  (** admission queue bound (min 1) *)
  max_in_flight : int;  (** compiles per {!process} pump (min 1) *)
  shed_threshold : float;
      (** fraction of [queue_capacity] past which compile requests are
          shed to the Critical-Path schedule (clamped to [0,1]) *)
  max_retries : int;
      (** serve-level re-attempts after a degraded first attempt of a
          compile that injects faults; [0] ships the first attempt
          unconditionally, and a fault-free compile never retries *)
  backoff_base_ns : float;
      (** backoff before retry [k] is [backoff_base_ns * 2^k] simulated
          nanoseconds, charged against the request deadline *)
  deadline_slack : float;
      (** request deadline = slack × the per-attempt budget (≥ 1.0);
          retries stop when the next attempt cannot fit *)
  memo_capacity : int;  (** schedule-memo entries (LRU; 0 disables) *)
  state_dir : string option;  (** persistence directory; [None] = off *)
  quality_ledger : string option;
      (** JSONL file that every computed miss appends a
          {!Quality.record} to; [None] = off. Writes are append-only on
          the reply path (never on a pool domain) and a failing write
          counts [serve.quality.write_failed] instead of raising. *)
}

val default_config : Compile.config -> config
(** Queue of 64, 4 in flight, shed at 75%, 2 retries from a 50µs base
    backoff, slack 4.0, 512 memo entries, no persistence, no quality
    ledger. *)

(** {1 Protocol} *)

type proto_error =
  | Bad_frame of string  (** transport framing violation (rendered) *)
  | Bad_request of string  (** malformed or contradictory header line *)
  | Bad_region of Ir.Parse.error  (** inline region text failed to parse *)
  | Unknown_shape of string  (** generator family not in {!Workload.Shapes.spec_names} *)
  | Unknown_backend of string  (** dispatch names a backend the registry lacks *)
  | Shutting_down  (** the service is draining; request refused *)

val proto_error_code : proto_error -> string
(** Stable machine-readable code: [bad-frame], [bad-request],
    [bad-region], [unknown-shape], [unknown-backend], [shutting-down]. *)

val proto_error_message : proto_error -> string

type source =
  | Generated of { shape : string; size : int; seed : int }
  | Inline of Ir.Region.t

type request = {
  req_id : string;  (** opaque id echoed in the reply; ["-"] if absent *)
  req_client : string option;  (** [client=] override of the transport's name *)
  source : source;
  fault_rate : float option;  (** installs {!Gpusim.Config.uniform_faults} *)
  fault_seed : int option;
  budget_ms : float option;  (** installs {!Robust.budgets_of_ms} *)
  backend : Engine.Dispatch.policy option;
}

type command =
  | Compile of request
  | Ping of string  (** liveness probe (id) *)
  | Stats of string  (** service counters snapshot (id) *)
  | Metrics_dump of string
      (** Prometheus text exposition of the live registry (id) *)
  | Watch of string
      (** operational snapshot for dashboards: stats plus in-flight,
          pool occupancy, hit rates and latency quantiles (id) *)
  | Shutdown of string  (** begin drain (id) *)

val parse_request : string -> (command, string * proto_error) result
(** Parse one frame payload. The first line is space-separated
    [key=value] tokens ([op], [id], [client], [shape], [size], [seed],
    [fault-rate], [fault-seed], [budget-ms], [backend]); any following
    lines are inline region text. Validation is strict — unknown keys,
    duplicate keys, unparseable values, a missing source or both sources
    at once are all typed errors, never exceptions; [fault-rate],
    [budget-ms] and [backend] pass {!Compile.check_options}, the rule
    the [gpuaco] commands apply to the same options. The [string] in the
    error is the best-effort request id for the error reply. *)

type compile_reply = {
  rep_id : string;
  rep_region : string;  (** region name the reply describes *)
  rep_outcome : Robust.degradation;
  rep_cost : Sched.Cost.t;
  rep_order : int array;  (** the shipped schedule's instruction order *)
  rep_digest : string;
      (** {!Report_digest.digest_region} of the shipped report — byte
          comparable against a direct compile; ["-"] for shed replies
          (no report was produced) *)
  rep_attempts : int;  (** serve-level attempts spent (0 for memo/shed) *)
  rep_retries : int;  (** in-driver faulted-iteration retries of the shipped run *)
  rep_latency_ns : float;  (** simulated: compile time + backoff *)
  rep_memo : [ `Hit | `Miss | `Shed ];
}

type reply =
  | Compiled of compile_reply
  | Rejected of { rej_id : string; error : proto_error }
  | Pong of { png_id : string }
  | Stats_reply of { sts_id : string; body : (string * string) list }
  | Metrics_reply of { met_id : string; body : string }
      (** [body] is {!Obs.Metrics.to_prometheus} of the live registry *)
  | Watch_reply of { wat_id : string; body : (string * string) list }
  | Drained of { served : int; rejected : int; tally : Robust.tally }

val render_reply : reply -> string
(** One line, [key=value] tokens, first token the reply kind ([ok],
    [err], [pong], [stats], [watch], [bye]); an [err] reply's [msg=] is
    last and runs to end of line. The one multi-line exception is
    [metrics]: a [metrics id=…] header line followed by the Prometheus
    text exposition verbatim. *)

(** {1 The service} *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?log:Obs.Log.t ->
  ?pool:Support.Domain_pool.t ->
  ?on_reply:(reply -> unit) ->
  config ->
  t
(** A fresh service. With a [state_dir], previously persisted memo
    entries are reloaded (failures count [serve.persist.load_failed]
    and start cold). [on_reply] receives
    every reply, in order; default ignores them.

    [log] (default disabled) receives the service's structured event
    stream: [serve.start], [serve.admit] (debug), [serve.shed] /
    [serve.reject] (warn), [serve.drain], plus every compile-layer
    entry. Each computed miss runs under a child logger that stamps the
    request id on its entries ({!Obs.Log.with_fields}), so one request
    is grep-able from admission through pool worker to backend pass;
    the shared ring is mutex-protected, so pooled batches may log
    concurrently.

    With a [pool], each {!process} batch runs its distinct memo misses
    in parallel on the pool's domains (the pool persists across batches
    and requests — typically {!Support.Domain_pool.global}), while
    admission, memoisation and replies stay sequential in pop order;
    replies are identical to the poolless service because each miss's
    attempt loop is deterministic in its inputs. The gauges
    [serve.pool.busy] / [serve.pool.idle] report occupancy around each
    compute phase. Without a [pool], misses compute inline on the
    caller. *)

val config : t -> config

val handle : t -> ?client:string -> string -> unit
(** Admit one frame payload from [client] (default ["anon"]; a compile
    request's [client=] overrides it): parse, answer control commands
    immediately, reject malformed requests with a typed error reply,
    shed past the pressure threshold, otherwise enqueue. Every call
    produces exactly one reply — now, or when {!process} reaches the
    queued request. The request counts under
    [serve.client.<client>.requests] while fewer than
    {!max_client_labels} client names have a counter, under
    [serve.client.overflow.requests] after. *)

val max_client_labels : int
(** How many distinct client names {!handle} gives a request counter of
    their own (64): the bound on the per-client metrics a service
    registers, whatever names its clients choose. *)

val handle_frame_error : t -> ?client:string -> Support.Frame.error -> unit
(** The transport saw a framing violation; replies [err code=bad-frame].
    Framing errors are fatal to a connection but not to the service. *)

val process : t -> int
(** Compile up to [max_in_flight] queued requests (one batch, parallel
    across distinct misses when the service has a pool); the pump calls
    this between reads. Returns the number compiled. Replies go out in
    pop order; an in-batch duplicate of a miss replies [memo=hit], just
    as it would have sequentially. *)

val drain : t -> unit
(** Finish every queued request (ignoring [max_in_flight]), persist
    state, emit the final [bye] reply and refuse all later requests.
    Idempotent: a later call sends nothing. A shutdown request that
    {!handle} receives after the drain is answered like a late compile,
    [err code=shutting-down], so it still gets exactly one reply. *)

val persist : t -> unit
(** Write the memo to [state_dir] now (no-op without one).
    {!drain} calls this; long-lived pumps may checkpoint earlier. *)

(** {1 Introspection} *)

val state : t -> [ `Serving | `Draining | `Drained ]
val queue_depth : t -> int

val in_flight : t -> int
(** Distinct memo misses computing in the current {!process} batch
    (0 between batches — the pump is single-threaded, so a concurrent
    reader only sees a nonzero value through {!watch_body} taken by a
    control command that interleaves with a batch). *)

val shed_point : t -> int
(** Queue depth at which shedding starts. *)

val received : t -> int
(** Frames seen, including malformed ones. *)

val served : t -> int
(** Compile replies sent (memo, shed and compiled). *)

val rejected : t -> int
(** Error replies sent. *)

val tally : t -> Robust.tally
(** Ledger over every compile reply. *)

val analysis_stats : t -> Analysis.stats

val memo_stats : t -> int * int * int
(** (hits, misses, resident entries). *)

val stats_body : t -> (string * string) list
(** The [op=stats] reply body: state, queue depth, counters, tally,
    cache traffic, persistence provenance. *)

val watch_body : t -> (string * string) list
(** The [op=watch] reply body: {!stats_body} plus in-flight, pool
    busy/idle, deadline hits, memo/analysis hit rates and p50/p99
    simulated latency from the [serve.latency_ns] histogram's bucket
    ladder. Metric-derived fields read 0 (and rates ["-"]) when the
    registry is disabled. *)
