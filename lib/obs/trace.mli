(** Flight recorder for the simulated GPU: a preallocated ring buffer of
    spans and instant events keyed to {e simulated} nanoseconds.

    The drivers thread one recorder through a compile; each record call
    is a handful of array writes into the ring (plus a one-time intern
    per distinct name). A full ring wraps and overwrites the oldest
    events — recording never allocates per event and never fails —
    and {!dropped} reports the loss. {!to_chrome_json} renders the
    surviving events as a Chrome trace-event timeline (one [tid] per
    track, balanced [B]/[E] span pairs, [i] instants) that opens in
    Perfetto or [chrome://tracing].

    {!null} is the disabled recorder: every call on it is a single
    branch on an immutable bool — no allocation, no writes — so an
    uninstrumented run is byte-identical, including its allocation
    counters. *)

type t

val create : ?capacity:int -> unit -> t
(** An enabled recorder holding the last [capacity] (default 65536,
    minimum 16) events. Its wall clock ({!wall_now}) starts at
    creation. *)

val null : t
(** The disabled recorder; shared, never records. *)

val enabled : t -> bool
val capacity : t -> int

val recorded : t -> int
(** Events ever recorded, including any since overwritten. *)

val dropped : t -> int
(** Events lost to ring wrap-around ([max 0 (recorded - capacity)]). *)

(** {2 Simulated clock}

    The recorder carries a cursor in simulated nanoseconds so that
    sequential passes and regions stack on one timeline. The cursor is
    bookkeeping for instrumentation sites; record calls take explicit
    timestamps. Stored in a one-element float array so updates do not
    box. *)

val now : t -> float
val set_now : t -> float -> unit
val advance : t -> float -> unit

(** {2 Wall clock}

    Tracks numbered at or above {!wall_track_base} carry {e monotonic
    wall-clock} nanoseconds instead of simulated nanoseconds: real
    worker utilization, idle time and merge cost, which the simulated
    timeline cannot show. The two clock families never share
    a track, and export places wall tracks under their own process id
    so per-track lint invariants (monotone, balanced) hold within each
    clock. *)

val wall_track_base : int
(** First wall-clock track id (1024). *)

val wall_now : t -> float
(** Wall-clock ns elapsed since the recorder's creation. The disabled
    recorder returns [0.] without reading the system clock. It reads
    only immutable fields of the recorder, so a domain may read the
    clock of a recorder that another domain records into: the
    executor's workers time their jobs on the caller's clock, and the
    caller records the spans at the join. *)

(** {2 Recording} *)

val name_track : t -> int -> string -> unit
(** Label a track (rendered as a Chrome thread name). First label wins. *)

val span : t -> track:int -> name:string -> ts:float -> dur:float -> unit
(** A complete span: [ts] start and [dur] length, both simulated ns.
    Spans on one track must nest or tile; partial overlap is clamped at
    export. *)

val span_arg :
  t -> track:int -> name:string -> ts:float -> dur:float -> key:string -> value:float -> unit
(** As {!span} with one numeric argument. *)

val instant : t -> track:int -> name:string -> ts:float -> unit
val instant_arg : t -> track:int -> name:string -> ts:float -> key:string -> value:float -> unit

(** {2 Merging}

    The multi-domain executor gives each worker a private ring on its
    own simulated clock and merges at join: for every job it remembers
    the worker's {!recorded} count and {!now} before and after, then
    replays the slices in job order with a per-slice shift. Worker
    rings hold only simulated tracks. *)

val append_range : t -> into:t -> first:int -> last:int -> dt:float -> unit
(** Replay the source events numbered [first] (inclusive) to [last]
    (exclusive) — indices as counted by {!recorded} — into [into],
    shifting every timestamp by [dt]. Track labels are carried over
    (first label wins). Events already lost to the source ring's
    wrap-around are skipped. No-op when either recorder is disabled. *)

(** {2 Reading back} *)

type event = {
  e_kind : [ `Span | `Instant ];
  e_name : string;
  e_track : int;
  e_ts : float;
  e_dur : float;  (** 0 for instants *)
  e_arg : (string * float) option;
}

val fold : t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Over surviving events, oldest first. *)

val events : t -> event list

val span_totals : t -> (string * float * int) list
(** [(name, total duration ns, count)] per span name, longest first —
    the phase breakdown of where simulated time went. *)

val instant_counts : t -> (string * int) list

(** {2 Export} *)

val to_chrome_json : t -> string
(** Chrome trace-event JSON: metadata thread names, then the events
    sorted by timestamp with balanced, properly nested [B]/[E] pairs
    per track. Timestamps are emitted in microseconds (the trace-event
    unit) at nanosecond resolution. *)

val write_chrome_json : t -> string -> unit
(** Write {!to_chrome_json} to a file. Raises [Sys_error] when the file
    cannot be opened or written (a failed final flush included). *)
