(** Structured operational logger: leveled events with typed fields,
    kept in a bounded ring and rendered as JSONL.

    Where {!Trace} answers "where did the time go" on a timeline,
    [Log] answers "what happened to request X" as a queryable event
    stream: admission, shedding, retries, degradations, backend picks
    — each entry one JSON object per line with a wall-clock timestamp.

    The zero-cost discipline matches the tracer: {!null} never
    allocates, never locks, never reads the clock — every call is a
    single branch on an immutable bool, so a run without logging is
    byte-identical to one where the hooks were never compiled in. An
    enabled logger appends under a mutex and may be shared across
    domains; when the ring fills, the oldest entries are overwritten
    ({!dropped} reports the loss).

    Ambient context (request ids, worker indices) threads through
    {!with_fields}: the child shares the parent's ring but stamps its
    bound fields onto every entry it logs. *)

type level = Debug | Info | Warn | Error

val severity : level -> int
(** [Debug] 0 … [Error] 3. *)

val level_label : level -> string

type field = Str of string | Int of int | Float of float | Bool of bool

type entry = {
  e_ts : float;  (** Unix seconds *)
  e_level : level;
  e_event : string;
  e_fields : (string * field) list;
}

type t

val null : t
(** The disabled logger; shared, never records. *)

val create : ?capacity:int -> ?level:level -> unit -> t
(** An enabled logger holding the last [capacity] (default 4096,
    minimum 16) entries at or above [level] (default [Debug]). *)

val enabled : t -> bool
val capacity : t -> int

val recorded : t -> int
(** Entries ever accepted, including any since overwritten. *)

val dropped : t -> int
(** Entries lost to ring wrap-around. *)

val level : t -> level

val with_fields : t -> (string * field) list -> t
(** A child logger sharing this ring and level whose bound fields are
    prepended to every entry it logs. Children nest; on the disabled
    logger this is the identity (no allocation). *)

val log : t -> level -> string -> (string * field) list -> unit
(** [log t lvl event fields] appends one entry, if [lvl] clears the
    logger's level. Field keys should avoid [ts]/[lvl]/[evt] (the
    envelope keys). *)

val debug : t -> string -> (string * field) list -> unit
val info : t -> string -> (string * field) list -> unit
val warn : t -> string -> (string * field) list -> unit
val error : t -> string -> (string * field) list -> unit

val entries : t -> entry list
(** Surviving entries, oldest first (snapshot under the lock). *)

val entry_json : entry -> string
(** One entry as a single-line JSON object:
    [{"ts":…,"lvl":…,"evt":…,<fields>}]. *)

val to_jsonl : t -> string
(** All surviving entries, one JSON object per line. *)

val write_jsonl : t -> string -> unit
(** Write {!to_jsonl} to a file. Raises [Sys_error] when the file cannot
    be opened or written (a failed final flush included). *)
