(** Transitive closure of the DDG and independence counting.

    Section V-A of the paper uses the transitive closure to compute a
    tight upper bound on the ready-list size: the ready list only ever
    holds pairwise-independent instructions, so one plus the maximum
    number of instructions independent of any single instruction bounds
    its size. That bound sizes the fixed GPU-side arrays that replace
    dynamically allocated lists. *)

type t

val compute : Graph.t -> t
(** Bitset-based closure: O(V * E / word_size). *)

val compute_count : unit -> int
(** Process-wide number of {!compute} invocations (domain-safe,
    monotonic). The compile pipeline's analysis cache asserts on deltas
    of this counter to prove each distinct region is analysed exactly
    once. *)

val reaches : t -> int -> int -> bool
(** [reaches c i j] is true when there is a (non-empty) dependence path
    from [i] to [j]. *)

val independent : t -> int -> int -> bool
(** Neither reaches the other and [i <> j]. *)

val independent_count : t -> int -> int
(** Number of nodes independent of node [i]. *)

val max_independent : t -> int
(** Maximum of [independent_count] over all nodes. *)

val ready_list_upper_bound : t -> int
(** [max_independent + 1], the paper's tight ready-list bound
    (Section V-A; 5 for the example DDG of Figure 1.a). *)
