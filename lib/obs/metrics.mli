(** Metrics registry: named counters, gauges, histogram summaries and
    append-only series, registered on first use, exported as JSON or CSV.

    {!null} is the disabled registry: every operation on it is a single
    branch on an immutable bool, so instrumentation guarded by it adds
    no allocation and no writes.

    An enabled registry is domain-safe: every mutation and registry read
    takes an internal mutex, so the executor's and the serve batch's
    pool workers write one registry. Every listing and export orders
    names by [String.compare], so concurrent writers export the same
    bytes as a sequential run that records the same values. The
    disabled registry never touches the mutex. *)

type t

val create : unit -> t
val null : t
val enabled : t -> bool

val incr : t -> string -> unit
(** Bump a counter by one. *)

val add : t -> string -> int -> unit
(** Bump a counter by [n]. *)

val set : t -> string -> float -> unit
(** Set a gauge (min/max/mean of the sets are kept too). *)

val observe : t -> string -> float -> unit
(** Feed a histogram: count/sum/min/max/mean plus a fixed log-scale
    bucket ladder (powers of 4, +Inf overflow) for quantile estimates
    and Prometheus exposition. *)

val push : t -> string -> float -> unit
(** Append to a series: like {!observe} but the individual values are
    kept in order and exported (convergence curves). *)

(** {2 Reading back} *)

type metric
type kind = Counter | Gauge | Histogram | Series

val names : t -> string list
(** Sorted by [String.compare]. *)

val get : t -> string -> metric option
val kind_of : metric -> kind
val count : metric -> int
val sum : metric -> float
val last : metric -> float
val mean : metric -> float

val value : metric -> float
(** The headline value: total for counters, last for gauges, sum
    otherwise. *)

val series : metric -> float array
(** The recorded points of a series (empty for other kinds). *)

val buckets : metric -> (float * int) array
(** Histogram buckets as [(upper_bound, cumulative_count)] pairs,
    final bound [infinity]; the cumulative counts are monotone
    non-decreasing and end at {!count}. Empty for other kinds. *)

val percentile : metric -> float -> float
(** [percentile m q] for [q] in [0, 1]: a bucket-resolution quantile
    estimate (conservative to one log-scale bucket), clamped into
    [[min, max]]. [0.] for empty or non-histogram metrics. *)

(** {2 Export} *)

val to_csv : t -> string
(** One summary row per metric
    ([metric,kind,index,value,count,sum,min,max,mean]) followed by one
    [point] row per series element. *)

val to_json : t -> string

val to_prometheus : t -> string
(** Prometheus text exposition: each metric becomes a
    [gpuaco_]-prefixed family ([# TYPE] line then samples), families in
    the order of their first name. Counters expose their total, gauges
    their last value, histograms cumulative [_bucket{le="…"}] lines plus
    [_sum] and [_count]. The per-client admission counters
    ([serve.client.<c>.requests]) collapse into one
    [gpuaco_serve_client_requests] family with the client as an
    escaped label value. Series are omitted (no Prometheus shape). *)

val write_csv : t -> string -> unit
val write_json : t -> string -> unit
(** Write {!to_csv} / {!to_json} to a file. Raise [Sys_error] when the
    file cannot be opened or written (a failed final flush included). *)
