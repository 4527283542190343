(** Parallel reduction used to pick the iteration winner (Section IV-B).

    The kernel's second stage finds the best schedule of the iteration
    with a tree reduction over per-thread costs. This module performs the
    reduction exactly as the tree would (so the test suite checks it
    against a sequential fold) and reports its cost in simulated
    operations: [log2] rounds over the thread block values, charged to
    the efficient shared-memory pattern of Harris (reference [62]). *)

val min_reduce : (int * int) array -> int * int
(** [min_reduce costs] returns the minimum [(cost, index)] pair (ties to
    the lower index), computed by pairwise tree rounds. Raises
    [Invalid_argument] on an empty array. *)

val min_reduce_into :
  costs:int array -> scratch_cost:int array -> scratch_idx:int array -> int * int
(** {!min_reduce} over [costs.(i)] paired with index [i], using
    caller-owned scratch (each at least as long as [costs]) so the per
    iteration reduction allocates only the result pair. Identical tree
    shape and tie-breaking to [min_reduce (Array.mapi (fun i c -> (c, i))
    costs)]. *)
