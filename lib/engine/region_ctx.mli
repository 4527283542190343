(** Shared region-analysis context.

    Everything the compile service derives from a scheduling region
    alone — the DDG with its transitive closure, critical path, lower
    bounds and ready-list bound, the AMD-heuristic baseline with the
    pass-1 starting order and gating decision of Section VI-A, the
    register-pressure layout and the Critical-Path reference schedule —
    bundled into one flat immutable value that is computed once per
    distinct region and consumed by the orchestrator, by every backend
    of a dispatch race, and by the report layer.

    The bundle is content-addressed: {!fingerprint_of_region} hashes the
    region's instruction/latency/register structure (names excluded), so
    structurally identical regions share one context in
    [Pipeline.Analysis]'s cache. Values are immutable and safe to share
    across domains. *)

type t = {
  graph : Ddg.Graph.t;
  occ : Machine.Occupancy.t;
  amd_schedule : Sched.Schedule.t;  (** the AMD-heuristic baseline *)
  amd_cost : Sched.Cost.t;
  pass1_initial_order : int array;
      (** better (by RP) of the AMD order and the Last-Use-Count order;
          the AMD order on a tie. The Last-Use-Count order is not built
          when the AMD order's RP already meets {!rp_lb}: no order can
          then be strictly better. *)
  pass1_initial_rp : Sched.Cost.rp;
  rp_lb : Sched.Cost.rp;  (** lower bound on any schedule's RP cost *)
  length_lb : int;
      (** {!Ddg.Lower_bounds.schedule_length}: the tight bound on any
          schedule's length. Pass 2 is skipped when its input schedule
          meets it, and every schedule (pass-2) search stops when it
          reaches it. *)
  tails : int array;
      (** the per-instruction tails {!length_lb} was computed from
          ({!Ddg.Lower_bounds.schedule_length_tails}): entry [i] is how
          many cycles must follow [i]'s issue in any schedule. CPU-colony
          ants bound their final length with them, to stop ants that can
          no longer win their iteration. *)
  height_lb : int;
      (** {!Ddg.Lower_bounds.dependence_height}, read off {!critpath}:
          the loose bound the cycle-threshold filter's gap is measured
          against *)
  pass1_needed : bool;  (** the initial RP is above the bound *)
  closure : Ddg.Closure.t;  (** transitive closure of the DDG *)
  critpath : Ddg.Critpath.t;
      (** latency-weighted critical paths; the one every scheduler and
          colony of the region prioritizes by *)
  ready_ub : int;
      (** {!Ddg.Closure.ready_list_upper_bound} — sizes every per-ant
          scratch array and the simulated memory model *)
  rp_layout : Sched.Rp_tracker.layout;
      (** the plain interned register layout backing every RP tracker of
          the region: its schedulers, cost evaluations and colonies. It
          carries no candidate-pruning (Chen) tables; the pruning colony
          attaches them in its prepare
          ({!Sched.Rp_tracker.with_pruning_tables}). *)
  cp_schedule : Sched.Schedule.t;
      (** Critical-Path list schedule (the report's sensitivity check) *)
  cp_cost : Sched.Cost.t;
  fingerprint : string;  (** content address (hex digest) *)
}

val fingerprint_of_region : Ir.Region.t -> string
(** Hash of the region's structure: instruction kinds, latencies, def/use
    register lists and live-out set, in order. Instruction and region
    names are excluded — label-only variants address the same context. *)

val of_graph : ?fingerprint:string -> Machine.Occupancy.t -> Ddg.Graph.t -> t
(** Run every analysis of the region, building one critical path and
    one register layout and handing them to every scheduler and cost
    evaluation here. [fingerprint] avoids re-hashing when the caller
    (the analysis cache) already computed the content address. *)

val of_region : ?fingerprint:string -> Machine.Occupancy.t -> Ir.Region.t -> t

val rp_of_order :
  ?layout:Sched.Rp_tracker.layout -> Machine.Occupancy.t -> Ddg.Graph.t -> int array ->
  Sched.Cost.rp
(** RP cost of an instruction order (stalls never change liveness, so an
    order determines the RP cost of every schedule with that order).
    [layout] (built when omitted) is the region's {!rp_layout}. *)

val pass2_initial : t -> best_pass1_order:int array -> rp_target:Sched.Cost.rp -> Sched.Schedule.t
(** Pass 2's input schedule: the latency-padded pass-1 winner, or the
    RP-constrained greedy schedule under [rp_target]'s APRP ceilings
    when that one is strictly shorter. The greedy schedule is not built
    when the padded one already meets {!length_lb}. [rp_target] is
    [rp_of_order] of [best_pass1_order], which the orchestrator has
    already computed. *)
