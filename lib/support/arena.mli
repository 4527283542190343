(** Batched bump-pointer arena for colony state.

    The paper's GPU implementation consolidates all per-ant device
    structures into one allocation per kernel invocation (Section V-A,
    batched allocation); the host-side analogue here is a pair of flat
    backing arrays — one for ints, one for unboxed floats — carved into
    segments by a bump pointer. Each consumer receives a base offset and
    indexes the shared backing array directly, so a whole wavefront's
    state is two heap objects instead of hundreds.

    Capacities are exact: consumers compute their demand up front (the
    ready-list upper bound from {!Ddg.Closure} sizes the scratch
    segments) and the arena never grows, so base offsets stay valid for
    the arena's lifetime. Exceeding a capacity raises
    [Invalid_argument]. *)

type t

val create : ints:int -> floats:int -> t
(** Fresh arena with the given capacities (in elements). Zero-filled. *)

val alloc_ints : t -> int -> int
(** [alloc_ints t n] reserves [n] ints and returns the base offset into
    [ints t]. Raises [Invalid_argument] when the capacity is exceeded. *)

val alloc_floats : t -> int -> int
(** Same for the float backing array. *)

val ints : t -> int array
(** The shared int backing array. Consumers should capture it once. *)

val floats : t -> float array
(** The shared float backing array (unboxed element storage). *)

val int_capacity : t -> int
val float_capacity : t -> int
val int_used : t -> int
val float_used : t -> int

val words : t -> int
(** Total backing-store size in words — the batched-allocation
    footprint surfaced by the perf counters. *)

(** {2 Per-domain arena pool}

    Backends create their colony arena in [prepare] and drop it in
    [teardown] — one multi-kilobyte allocation pair per region job under
    the executor. {!take}/{!give} route those through a small
    domain-local free list so consecutive jobs on one domain reuse the
    backing arrays. {!give} {!reset}s the arena (bump pointers rewound,
    used prefixes zero-filled), so a reused arena is indistinguishable
    from a fresh one; its capacities may exceed the request. *)

val reset : t -> unit
(** Rewind both bump pointers and zero-fill the previously used
    prefixes, restoring the as-created state. Existing base offsets
    become dangling — only call between consumers. *)

val take : ints:int -> floats:int -> t
(** A zeroed arena with {e at least} the given capacities: a pooled one
    when this domain's free list has a fit, else a fresh allocation. *)

val give : t -> unit
(** Reset the arena and park it on this domain's free list (bounded; the
    smallest resident is dropped on overflow). The caller must not touch
    the arena afterwards. *)

val reuses : unit -> int
(** Process-wide count of {!take}s served from a free list — the
    observable for "arenas are pooled, not re-created". *)
