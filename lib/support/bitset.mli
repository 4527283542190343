(** Fixed-capacity bitsets backed by unboxed integer words.

    Used for the transitive closure of data dependence graphs
    (Section V-A of the paper), where row-per-node bitsets make
    reachability queries and independence counting O(n/63) per pair
    instead of O(n). *)

type t
(** A set of small integers in [\[0, capacity)]. *)

val create : int -> t
(** [create n] is the empty set with capacity [n]. *)

val capacity : t -> int
(** Number of elements the set can hold. *)

val copy : t -> t

val add : t -> int -> unit
(** [add s i] inserts [i]. Raises [Invalid_argument] out of range. *)

val remove : t -> int -> unit

val mem : t -> int -> bool

val cardinal : t -> int
(** Population count. *)

val is_empty : t -> bool

val union_into : into:t -> t -> unit
(** [union_into ~into s] sets [into := into U s]. Capacities must match. *)

val diff_into : into:t -> t -> unit
(** [diff_into ~into s] sets [into := into \ s]. *)

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] is [cardinal (a inter b)] without allocating. *)

val subset : t -> t -> bool
(** [subset a b] is true when every element of [a] is in [b]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> int list
(** Elements in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n xs] builds a capacity-[n] set containing [xs]. *)
