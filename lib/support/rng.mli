(** Deterministic pseudo-random number generation.

    The generator is xoshiro256++ seeded through splitmix64, so a single
    integer seed expands into a full 256-bit state. Every stochastic
    component of the reproduction (ant construction, workload generation,
    the un-modeled-noise term of the performance model) draws from an
    explicitly threaded [t], never from a global generator, which makes
    all experiments replayable from their seeds. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split rng] derives an independent generator from [rng], advancing
    [rng]. Used to give each ant / each region its own stream. *)

val copy : t -> t
(** [copy rng] duplicates the current state without advancing it. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float
(** [float rng] is uniform in [\[0, 1)]. *)

val float_bits : t -> int
(** The 53 random bits {!float} scales into [\[0, 1)]: [float rng] and
    [float_of_int (float_bits rng) *. 0x1p-53] draw the same value.
    An [int] result crosses a call the compiler does not inline
    unboxed, where a [float] result is boxed. *)

val bool : t -> float -> bool
(** [bool rng p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** Fisher-Yates in-place shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly pick an element of a non-empty array. *)
