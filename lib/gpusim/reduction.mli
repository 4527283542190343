(** Parallel reduction used to pick the iteration winner (Section IV-B).

    The kernel's second stage finds the best schedule of the iteration
    with a tree reduction over per-thread costs. This module performs the
    reduction exactly as the tree would — pairwise rounds with halving
    stride, the efficient shared-memory pattern of Harris (reference
    [62]) — so the test suite checks it against a sequential fold; its
    cost in simulated operations is {!Kernel_sim.reduction_wall_ops}. *)

val min_reduce : int array -> scratch:int array -> int
(** [min_reduce costs ~scratch] is the thread index of the least cost,
    ties to the lower index. The tree rounds carry thread indices in
    [scratch], which must be at least as long as [costs] and is
    overwritten; nothing is allocated. Raises [Invalid_argument] on an
    empty [costs] or a short [scratch]. *)
