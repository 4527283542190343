(** Persistent pool of worker domains.

    [Domain.spawn] costs hundreds of microseconds; paid per suite
    compile it erased the multi-domain executor's win. The pool spawns
    each helper domain once — lazily, on the first {!parallel_for} that
    needs it — and parks it on a condition variable between jobs, so
    fanning out costs two mutex handoffs per helper in steady state.

    The caller of {!parallel_for} acts as worker 0, so a pool of [size]
    helpers provides up to [size + 1] ways of parallelism. {!global} is
    the process-wide pool shared by suite compiles and the serve loop;
    it is shut down via [at_exit]. *)

type t

(** Pool lifecycle events for the process-global observer: a helper
    domain was spawned (by index), or a {!parallel_for} acquired /
    released the pool with [k] total workers. *)
type event = Spawned of int | Acquired of int | Released of int

val set_observer : (event -> unit) option -> unit
(** Install (or clear) the process-global lifecycle observer. Support
    sits below the observability layer, so logging is injected from
    above through this hook; the default [None] costs one atomic load
    per event. The callback runs on whichever domain triggered the
    event and must not call back into the pool ([Spawned] fires under
    the pool's spawn lock); exceptions it raises are swallowed. *)

val create : ?size:int -> unit -> t
(** A pool of up to [size] helper domains (default
    [Domain.recommended_domain_count () - 1]: helpers plus the calling
    domain saturate the cores, and never oversubscribe them — OCaml's
    stop-the-world minor collections make domains beyond cores a steep
    loss). Nothing is spawned until a {!parallel_for} needs it;
    [size = 0] makes every {!parallel_for} sequential. *)

val size : t -> int
(** Maximum helper count (the creation bound, not what is spawned). *)

val spawned : t -> int
(** Helper domains spawned so far — monotone over the pool's life; the
    observable for "domains are spawned once, not per compile". *)

val parallel_for : t -> workers:int -> int -> (int -> int -> unit) -> unit
(** [parallel_for t ~workers n f] calls [f w i] exactly once for every
    index [0 <= i < n], and returns when all calls have finished. Up to
    [min workers (size + 1)] workers — the calling domain as worker 0,
    pool helpers as the rest — each take the next index from one shared
    atomic cursor until the cursor passes [n], so indices are claimed in
    increasing order and [f] learns which worker [w] runs it (to pick
    per-worker state, such as the executor's trace rings). If any
    [f w i] raises, that worker stops claiming, the others run on, and
    the first failure is re-raised once every worker has stopped.

    A call made while the pool is busy — from inside [f], or
    concurrently from another domain — runs every index on its calling
    domain, as worker 0: correct, just sequential. *)

val shutdown : t -> unit
(** Stop and join every spawned helper. The pool may be used again
    afterwards (helpers respawn lazily, counting into {!spawned}). *)

val global : unit -> t
(** The process-wide pool, created on first call with the default size
    and registered for [at_exit] shutdown. *)
