(** The batched store of a colony's lanes.

    The paper's GPU implementation consolidates all per-ant device
    structures into one allocation per kernel invocation (Section V-A,
    batched allocation); the host-side analogue here is one flat int
    backing array carved into segments by a bump pointer, plus one
    score matrix ({!Fmat}) whose rows the lanes split between them. Each
    consumer receives a base offset and indexes the shared backing
    array directly, so a whole colony's state is two backing stores
    instead of hundreds.

    Capacities are exact: consumers compute their demand up front (the
    ready-list upper bound from {!Ddg.Closure} sizes the scratch
    segments) and the store never grows, so base offsets stay valid for
    the store's lifetime. Exceeding the int capacity raises
    [Invalid_argument]. *)

type t

val create : ints:int -> t
(** Fresh store of [ints] zero-filled ints and no score rows: the
    private backing of a stand-alone consumer. *)

val alloc_ints : t -> int -> int
(** [alloc_ints t n] reserves [n] ints and returns the base offset into
    [ints t]. Raises [Invalid_argument] when the capacity is exceeded. *)

val ints : t -> int array
(** The shared int backing array. Consumers should capture it once. *)

val int_capacity : t -> int
val int_used : t -> int

val scores : t -> Fmat.t
(** The lanes' score matrix: {!take}'s [rows] by [cols], zero-filled
    when taken; 0 by 0 for a {!create}d store. *)

(** {2 Per-domain pool}

    Backends take their colony's store when they prepare a region and
    give it back at teardown — one multi-kilobyte allocation pair per
    region job under the executor. {!take}/{!give} route those through
    two small domain-local free lists, one for int arrays and one for
    score matrices, matched independently, so consecutive jobs on one
    domain reuse the backing stores. {!give} zero-fills what the store's
    owner could have written, so a reused store is indistinguishable
    from a fresh one; its capacities may exceed the request. *)

val take : ints:int -> rows:int -> cols:int -> t
(** A zeroed store with {e at least} [ints] ints and a [rows] by [cols]
    score matrix (row stride [Fmat.stride_of_cols cols]): each half a
    pooled one when this domain's free list has a fit, else a fresh
    allocation. *)

val give : t -> unit
(** Zero-fill the store and park both halves on this domain's free
    lists (bounded; the smallest resident is dropped on overflow). The
    caller must not touch the store, or anything carved from it,
    afterwards. *)

val reuses : unit -> int
(** Process-wide count of halves (int arrays and score matrices) that
    {!take} served from a free list — the observable for "stores are
    pooled, not re-created". *)
