(** Content-addressed cache of {!Engine.Region_ctx.t}.

    Compilation setup — DDG closure, critical path, lower bounds, the
    AMD-heuristic schedule, register layout — dominates compile time for
    the small regions that make up most of a suite (Section VI-A's
    motivation for filtering). Real suites repeat themselves: rocPRIM
    kernels shared across benchmarks, template instantiations whose
    regions are structurally identical. This cache recognises the
    repetition by content, not by name: the key is the region's
    structural fingerprint ({!Engine.Region_ctx.fingerprint_of_region})
    salted with the occupancy model.

    The cache is domain-safe (one internal mutex) and computes misses
    {e outside} the lock through a per-key once-cell: the first
    requester installs the cell, analyses, and wakes any waiters;
    concurrent requesters of the same key block on the cell instead of
    re-analysing. The compile-service invariant — a distinct region is
    analysed exactly once no matter how many domains or racing backends
    want its context — holds, while domains missing on {e different}
    regions analyse concurrently. Eviction is {!Support.Lru}'s, with a
    bounded entry count; a cell still computing is pinned, never
    evicted. All traffic is counted and mirrored into the registry's
    [analysis.cache.*] counters when one is attached. *)

type t

type stats = {
  hits : int;
  misses : int;  (** lookups that ran a full analysis *)
  evictions : int;
  entries : int;  (** current resident contexts *)
  capacity : int;  (** 0 when caching is off *)
}

val default_capacity : int

val create : ?metrics:Obs.Metrics.t -> ?capacity:int -> unit -> t
(** [capacity <= 0] turns storage off: the table keeps nothing, so
    every {!get} computes (and counts) — the [--cache off]
    configuration, still usable as a computation meter. *)

val disabled : unit -> t
(** [create ~capacity:0 ()]. *)

val caching : t -> bool
(** [capacity > 0]. *)

val get :
  t -> ?fingerprint:string -> Machine.Occupancy.t -> Ir.Region.t -> Engine.Region_ctx.t
(** The region's analysis context, from cache when a structurally equal
    region was analysed before. [fingerprint] is the region's
    {!Engine.Region_ctx.fingerprint_of_region}, for a caller that
    already hashed it; without it the region is hashed here. A lookup
    that finds another domain's analysis still in flight waits for it
    (and counts as a hit). Note that a hit returns the context of the
    {e first} structurally-equal region seen: instruction names may
    differ from the requester's (everything the compiler emits —
    orders, slots, costs, stats — is name-independent). *)

val stats : t -> stats

val hit_rate : stats -> float
(** Hits over lookups, [0.0] when no lookups happened. *)

val pp_stats : Format.formatter -> stats -> unit
