(** Mutable binary max-heap priority queue.

    The list schedulers keep their ready lists in one of these when the
    guiding heuristic induces a total priority order; the ACO ants instead
    scan flat ready arrays because their selection is randomized. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty queue; [cmp a b > 0] means [a] has higher
    priority (is popped first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the highest-priority element. *)

val peek : 'a t -> 'a option

val clear : 'a t -> unit
