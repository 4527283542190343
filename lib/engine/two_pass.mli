(** The two-pass orchestrator of Section IV-A, written once for every
    backend: pass 1 searches for a minimum-RP order (skipped when the
    initial order is already at the RP bound or the backend lacks an RP
    pass), its winner becomes pass 2's RP target and — latency-padded —
    pass 2's initial schedule, and pass 2 searches for the shortest
    latency-feasible schedule on whatever budget pass 1 left (skipped
    when that schedule already meets the region's length lower bound,
    [length_lb]). *)

val run : Backend.t -> Backend.ctx -> Region_ctx.t -> Types.result
(** Run the gated passes over the shared region-analysis context. The
    backend is prepared lazily, just before the first pass that runs,
    and torn down afterwards (also on exceptions); a region whose passes
    are both skipped never prepares it. Deterministic for a fixed
    context. *)
