(** Configuration of the SIMT simulator on which the parallel ACO
    scheduler runs.

    This is the substitution for the paper's HIP/ROCm runtime on a Radeon
    VII (see DESIGN.md): the parallel algorithm executes for real — every
    ant constructs a real schedule — while its *time* is charged by the
    simulator according to SIMT cost rules (lockstep path serialization,
    memory-transaction coalescing, launch and copy overheads).

    Cost constants are documented calibration points, not curve fits:
    - [cpu_ns_per_op]: one abstract work unit on the host CPU (a ready
      list entry scan, a successor update, selection arithmetic);
    - [gpu_ns_per_op]: the same unit on one SIMT lane — slower clock,
      no out-of-order window, higher latency per access;
    - [mem_transaction_ns]: one coalesced memory transaction;
    - [launch_overhead_ns]: device allocation + H2D copy setup + a
      cooperative kernel launch (charged once per ACO invocation);
    - [copy_ns_per_word]: size-dependent part of the H2D/D2H copies;
    - [sync_overhead_ns]: one grid-wide synchronization. *)

type opts = {
  coalesced_layout : bool;
      (** SoA column-per-thread layout of per-ant structures (Section V-A) *)
  batched_alloc : bool;
      (** one consolidated allocation + copy instead of per-structure calls *)
  tight_ready_ub : bool;
      (** size ready arrays by the transitive-closure bound instead of [n] *)
  wavefront_level_explore : bool;
      (** the explore/exploit coin is flipped once per wavefront per step *)
  optional_stall_fraction : float;
      (** fraction of wavefronts allowed to insert optional stalls *)
  early_wavefront_termination : bool;
      (** kill a wavefront's remaining ants once one finishes *)
  per_wavefront_heuristic : bool;
      (** different wavefronts use different guiding heuristics *)
  ready_list_limiting : [ `Off | `Min | `Mid ];
      (** unify per-lane ready-list scan lengths within a wavefront by
          capping them at the minimum (or the min/max midpoint) across
          the wavefront's lanes — the Section V-B experiment the paper
          reports as *not* improving overall results; [`Off] in every
          preset, kept as a first-class toggle so the negative result is
          reproducible (see the bench harness's extras) *)
}

val opts_paper : opts
(** The settings behind the paper's headline numbers: every optimization
    on, 25% of wavefronts inserting optional stalls (Table 6). *)

val opts_no_memory : opts
(** Memory optimizations off, divergence optimizations on (Table 4.a's
    baseline). *)

val opts_no_divergence : opts
(** Divergence optimizations off, memory optimizations on (Table 4.b's
    baseline; optional stalls unrestricted, i.e. fraction 1.0). *)

type fault_rates = {
  lane_fault_rate : float;
      (** per lane per iteration: a transient fault corrupts the ant's
          next-instruction choice; the lane is quarantined for the
          iteration (its candidate is discarded) *)
  wavefront_hang_rate : float;
      (** per wavefront per iteration: the whole wavefront hangs and is
          recovered by the watchdog at a fixed detection penalty *)
  reduction_drop_rate : float;
      (** per iteration: the winner message of the tree reduction is
          lost, so the iteration yields no winner *)
  mem_fault_rate : float;
      (** per wavefront per lockstep step: a memory transaction errors
          and the step's transactions are replayed once *)
}

val no_faults : fault_rates
(** All rates zero — the default; behaviour is byte-identical to a build
    without the fault model. *)

val uniform_faults : float -> fault_rates
(** [uniform_faults r] expands one headline rate (clamped to [0,1]) into
    per-class rates: lane faults at [r], memory replays and reduction
    drops at [r/4], hangs at [r/16]. *)

val faults_enabled : fault_rates -> bool

type t = {
  target : Machine.Target.t;  (** GPU the scheduler runs on *)
  num_wavefronts : int;  (** launched blocks; one wavefront per block *)
  cpu_ns_per_op : float;
  gpu_ns_per_op : float;
  mem_transaction_ns : float;
  launch_overhead_ns : float;
  copy_ns_per_word : float;
  sync_overhead_ns : float;
  alloc_call_ns : float;  (** one discrete allocation/copy call (unbatched mode) *)
  opts : opts;
  faults : fault_rates;  (** injected-fault rates ({!no_faults} by default) *)
  fault_seed : int;
      (** seed of the fault injector's own RNG stream — faults are a
          deterministic function of this seed and never perturb the
          ants' RNG streams *)
}

val default : t
(** Paper geometry — Vega 20, 180 wavefronts (11,520 ants) — with
    calibrated cost constants and [opts_paper]. *)

val bench : t
(** Reduced geometry used by the benchmark harness (fewer wavefronts so a
    laptop-scale reproduction completes); same cost constants. *)

val with_opts : t -> opts -> t

val with_faults : ?seed:int -> t -> fault_rates -> t
(** The same configuration under [faults], its fault seed replaced by
    [seed] when given and kept otherwise. *)

val reseed_faults : t -> salt:int -> t
(** The same configuration with [fault_seed] replaced by a deterministic
    mix of the current seed and [salt] — how the serve loop gives each
    retry attempt a fresh, replayable fault stream ([salt] = attempt
    number) without touching the ants' RNG streams. [salt = 0] is the
    identity, so attempt 0 replays the request's own seed. *)

val threads : t -> int
(** Total ants per launch: wavefronts x wavefront size. *)
