(** Unboxed float64 matrices for the ant data plane.

    A row-major Bigarray with the row stride rounded up to a cache line
    (8 doubles), so rows never share a line. Hot loops address cells by
    flat index: bind [row_base t r] once, then [get]/[set] relative to
    it — both compile to raw unboxed float loads/stores with no bounds
    checks, so callers must stay within [0, rows t * stride t).

    Padding columns ([cols] to [stride - 1] of each row) always hold
    [0.0]; every operation here preserves that invariant. *)

type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private { rows : int; cols : int; stride : int; data : mat }

val stride_of_cols : int -> int
(** Smallest multiple of 8 that is [>= cols] (one cache line = 8
    doubles). *)

val create : rows:int -> cols:int -> t
(** Zero-filled matrix with [stride = stride_of_cols cols]. *)

val wrap : mat -> rows:int -> cols:int -> t
(** A matrix over an existing zero-filled backing store of at least
    [rows * stride_of_cols cols] cells ({!Arena} hands pooled stores
    out this way). Raises [Invalid_argument] when the store is too
    small. *)

val rows : t -> int
val cols : t -> int
val stride : t -> int

val words : t -> int
(** Backing-store capacity in doubles (includes padding). *)

val row_base : t -> int -> int
(** [row_base t r] is the flat index of cell [(r, 0)]. Unchecked. *)

val get : t -> int -> float
(** Unchecked flat-index read; never boxes. *)

val set : t -> int -> float -> unit
(** Unchecked flat-index write; never boxes. *)

val row_get : t -> int -> int -> float
(** Checked [(row, col)] read, for cold paths. *)

val row_set : t -> int -> int -> float -> unit
(** Checked [(row, col)] write, for cold paths. *)

val fill : t -> float -> unit
(** Set every real cell; padding stays 0.0. *)

val clear : t -> unit
(** Zero the whole backing store, padding included. *)

val row_to_array : t -> int -> float array
(** Snapshot one row's real columns into a fresh boxed-free float array
    (diagnostics and tests). *)

val to_array : t -> float array array
(** Snapshot the real [rows x cols] contents (diagnostics and tests). *)
