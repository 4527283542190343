(** Validation for Chrome trace-event JSON (used by [gpuaco trace --lint]
    and CI): well-formed JSON, required event keys, known phases, monotone
    timestamps per track, and balanced, name-matched [B]/[E] span pairs.

    Carries its own minimal JSON parser so the lint needs no external
    dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

val json_escape : string -> string
(** The body of a JSON string literal holding [s]: quote, backslash,
    newline, tab and carriage return as their short escapes, every other
    control character as [\u00XX], all other bytes as they are.
    {!parse_json} reads the literal back as [s]. *)

val json_float : float -> string
(** A JSON number for a finite float: without a fraction when integral
    and below 1e15 in magnitude, else [%.6g]. *)

val parse_json : string -> json
(** Parse a complete JSON document. @raise Parse_error on malformed input. *)

type report = {
  events : int;
  spans : int;  (** [B] (and [X]) events *)
  instants : int;
  tracks : int;  (** distinct (pid, tid) pairs seen on non-metadata events *)
  wall_tracks : int;
      (** the subset of [tracks] under a nonzero pid — the wall-clock
          process {!Trace.to_chrome_json} emits for tracks at or above
          {!Trace.wall_track_base}. Monotonicity and balance are
          checked per (pid, tid), so mixed-clock documents lint each
          clock independently. *)
  errors : string list;
}

val ok : report -> bool

val lint_string : string -> report
(** Lint a trace document: either a bare event array or an object with a
    ["traceEvents"] array. Never raises; parse failures land in [errors]. *)

val lint_file : string -> report
(** {!lint_string} of a file's contents. Raises [Sys_error] when the file
    cannot be read; only its contents are never an exception. *)

val report_to_string : report -> string
