(** Memory cost model: coalescing, allocation and transfer
    (Section V-A).

    Per-ant data lives in 2D arrays, one column per thread. With the
    coalesced (SoA) layout the 64 lanes of a wavefront touching their
    k-th entries hit consecutive addresses, so a step costs one
    transaction per *entry depth* reached — the maximum entry count over
    the lanes. With the naive (AoS / row-per-thread) layout each lane's
    entries are strided apart and every access is its own transaction —
    the sum over lanes. This asymmetry is the source of the large
    improvements of Table 4.a.

    Allocation and transfer: in batched mode all structures are
    consolidated into one allocation and one copy per direction; in
    unbatched mode every structure of every thread costs a separate
    driver call. The ready-list upper bound from the transitive closure
    ([tight_ready_ub]) shrinks the dominant per-thread array. *)

val step_transactions : Config.t -> active:int -> reads_max:int -> reads_sum:int -> int
(** Transactions charged for one lockstep step: [active] is the number
    of lanes that stepped, [reads_max]/[reads_sum] the maximum and the
    sum of their access counts. Coalesced, that is [reads_max]; strided,
    [reads_sum]; 0 when no lane stepped. *)

val words_per_thread : Config.t -> n:int -> ready_ub:int -> int
(** Device words of per-thread state: schedule slots, ready array, RP
    tracker state. [ready_ub] is used when [tight_ready_ub] is on,
    otherwise [n]. *)

val setup_time_ns : Config.t -> n:int -> ready_ub:int -> float
(** Allocation + host-to-device copy time for one ACO invocation
    (kernel launch overhead excluded — see
    {!Kernel_sim}). *)

val teardown_time_ns : Config.t -> n:int -> float
(** Device-to-host copy of the winning schedule + frees. *)

val spill_model : Config.t -> Sched.Objective.spill_model
(** Spill pricing for {!Sched.Objective.Spill}, derived from the machine
    configuration: allowances are the per-class pressure limits at 80%
    of the target's wave limit, a spilled VGPR charges a store+reload
    round trip in GPU op cycles, and SGPR spills cost half that (scalar
    memory path). *)
