(** Output files checked before the work that fills them.

    A command that writes a trace, metrics or a ledger at its end
    creates those files first, so that a path it cannot create is a
    usage error before any compile or serve work, not an exception
    after it. *)

val create : string list -> (unit, string) result
(** Create each file, in order. Each is opened for writing without
    truncation, so an existing file keeps its contents until the
    command writes it (a ledger is appended to). On the first file that
    cannot be created, the files this call created are removed again
    and the result is that file's [Sys_error] message. *)
