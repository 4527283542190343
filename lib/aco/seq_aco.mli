(** The sequential two-pass ACO scheduler of Shobaki et al. (reference
    [11] of the paper) — the CPU baseline that the GPU parallelization is
    measured against in Tables 3.a/3.b and 5, re-expressed as the
    ["seq"] backend of the {!Engine} layer.

    Pass 1 searches for a minimum-RP order while ignoring latencies;
    pass 2 treats the best pass-1 RP as a constraint and searches for the
    shortest latency-feasible schedule (Section IV-A). Each pass stops
    when its lower bound is reached or after
    [Engine.Params.termination_condition] improvement-free iterations.
    The pass sequencing itself lives in {!Engine.Two_pass}; this module
    supplies the costs and artifacts of each pass and runs them on the
    shared CPU colony of {!Colony}. Results and pass statistics are the
    engine's own {!Engine.Types.result} and {!Engine.Types.pass_stats}. *)

val make_backend :
  name:string ->
  policy:Pheromone_policy.spec ->
  ?objective:Sched.Objective.t ->
  unit ->
  Engine.Backend.t
(** A CPU-colony backend with the given registry name, pheromone policy
    and objective (default {!Sched.Objective.Cliff}). {!backend},
    {!mmas_backend}, {!mmas_spill_backend} and [Weighted_aco.backend]
    are the instantiations the product registers; the constructor is
    exposed so tests and experiments can build others. The objective
    decides whether pass 1 runs ({!Sched.Objective.rp_pass}), and pass
    2 costs every schedule — ants, the initial schedule and the bound —
    as its length plus {!Sched.Objective.pass2_term} of its peaks. *)

val backend : Engine.Backend.t
(** The ["seq"] backend: RP pass, no time model, vanilla Ant System
    pheromone, cliff objective. Its budget currency
    is [Work]; handing it a [Time_ns] budget raises
    [Invalid_argument]. *)

val mmas_backend : Engine.Backend.t
(** ["mmas"]: the same colony under the MAX-MIN Ant System policy
    (see {!Pheromone_policy}) and the cliff objective. *)

val mmas_spill_backend : Sched.Objective.spill_model -> Engine.Backend.t
(** ["mmas-spill"]: MMAS policy plus the spill-aware RP objective. The
    spill model comes from the caller (the pipeline derives one from
    its machine configuration via [Gpusim.Mem_model.spill_model]). *)

val register : unit -> unit
(** Install {!backend} in {!Engine.Registry} (idempotent). *)

val run :
  ?params:Engine.Params.t -> ?seed:int -> Machine.Occupancy.t -> Ddg.Graph.t -> Engine.Types.result
(** Analyse a region and schedule it with {!backend}: unlimited budget,
    disabled recorders. Deterministic for a fixed seed. A budget,
    metrics or a shared context go through [Engine.Two_pass.run backend
    ctx rc], the path the compile pipeline takes. *)
