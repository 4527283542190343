(** The pluggable execution substrate of the two-pass engine.

    A backend owns {e how} a colony searches — on the host CPU, on the
    simulated GPU, with which cost formulation — while {!Two_pass} owns
    {e what} is searched: pass sequencing, lower-bound gating, the RP
    target handoff and budget threading. A backend is prepared at most
    once per region — only when at least one pass will run — asked to
    run up to two passes, then torn down. *)

type ext = ..
(** Open extension point for backend-specific configuration carried by
    {!ctx}. Each backend declares its own constructors (the GPU-model
    backend adds its launch geometry, fault rates and watchdog) and
    scans [ctx.ext] in [prepare]; unknown constructors are ignored, so
    contexts compose. *)

type ctx = {
  params : Params.t;
  seed : int;  (** root of the backend's deterministic RNG stream *)
  budget : Types.budget;  (** whole-region budget, both passes *)
  trace : Obs.Trace.t;  (** null unless the backend has {!Types.caps.trace} *)
  metrics : Obs.Metrics.t;
  label : string;  (** recorder prefix, ["<region>.<backend>."] *)
  ext : ext list;  (** backend-specific extras, see {!ext} *)
}

val null_ctx : ctx
(** Default params, seed 1, unlimited budget, disabled recorders. *)

type order_request = {
  o_label : string;  (** metric prefix of this pass *)
  o_budget : Types.budget;
  o_initial_cost : int;  (** RP scalar of [o_initial_order] *)
  o_initial_order : int array;
  o_lb_cost : int;  (** RP-scalar lower bound ending the search *)
}
(** Pass 1: minimize the RP scalar over instruction orders. *)

type schedule_request = {
  s_label : string;
  s_budget : Types.budget;  (** whatever pass 1 left unspent *)
  s_target_vgpr : int;  (** APRP ceiling from the pass-1 winner *)
  s_target_sgpr : int;
  s_initial : Sched.Schedule.t;  (** the latency-padded pass-1 winner *)
  s_initial_length : int;
  s_length_lb : int;
}
(** Pass 2: minimize schedule length under the pass-1 RP target. *)

module type S = sig
  val name : string
  (** Registry key, also the CLI spelling and the report column. *)

  val caps : Types.caps

  val objective : Sched.Objective.t option
  (** RP term of the two-pass objective this backend optimizes; [None]
      means the engine default ({!Sched.Objective.Cliff}, the paper's
      occupancy cliff). {!Two_pass} derives the pass-1 costs and the
      pass-2 RP-target handoff from it, so a spill-aware backend races
      fairly against cliff backends — each optimizes its own objective
      and the pipeline compares the shipped schedules. *)

  type state
  (** Per-region working set (colony, arenas, pheromone table, RNG),
      built once and shared by both passes — RNG continuity across the
      passes is part of the byte-identity contract. *)

  val prepare : ctx -> Region_ctx.t -> state
  (** Build the working set from the shared region-analysis context.
      Backends must consume the context's precomputed analyses
      (closure bound, critical path, RP layout) rather than re-deriving
      them — a race of N backends does the analysis work once. *)

  val run_order_pass : state -> order_request -> int array * Types.pass_stats
  val run_schedule_pass : state -> schedule_request -> Sched.Schedule.t * Types.pass_stats

  val teardown : state -> unit
  (** Called exactly once per [prepare], also when a pass raised. *)
end

type t = (module S)

val name : t -> string
val caps : t -> Types.caps
val objective : t -> Sched.Objective.t option
