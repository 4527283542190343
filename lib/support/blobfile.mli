(** Crash-safe on-disk blobs for the compile service's persisted state.

    A blob file is a one-line header — magic, [kind], [version], payload
    length and MD5 — followed by the raw payload. The contract is the
    robustness one: {!save} is atomic (write to a temp file in the same
    directory, then rename), and {!load} never raises on bad input — a
    missing file, a stale version, a foreign kind, a truncated payload
    or a flipped bit all come back as a typed error so the caller can
    count the event and start cold.

    The payload is opaque bytes; callers bring their own serialization
    (the serve loop uses [Marshal], which is exactly why the version
    field exists — any change to the marshaled types must bump it). *)

type error =
  | Missing  (** no file at the path *)
  | Bad_header of string  (** not a blob file, or a mangled header *)
  | Wrong_kind of { expected : string; got : string }
  | Version_skew of { expected : int; got : int }
      (** written by an older (or newer) build; the payload layout
          cannot be trusted *)
  | Corrupt of string  (** length or checksum mismatch — truncation or bit rot *)

val error_to_string : error -> string

val save : kind:string -> version:int -> string -> string -> unit
(** [save ~kind ~version path payload] writes atomically; the file is
    either the complete new blob or untouched. [kind] must be a single
    token (no spaces/newlines). Raises [Sys_error] only for real I/O
    failures (permissions, missing directory, a full disk — a failure
    at the final flush included); the temp file is then removed and
    the previous blob stays in place. *)

val load : kind:string -> version:int -> string -> (string, error) result
(** Read back a payload saved with the same [kind] and [version]. *)
