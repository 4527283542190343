(** Aggregation of compile results into the paper's tables and figures.

    Every function synthesizes the requested cycle-threshold setting from
    the ungated compile (see {!Compile}); the headline numbers use the
    paper's tuned filter settings. Counts follow the paper's conventions:
    regions are counted per benchmark build (kernels shared by several
    benchmarks are scheduled once per benchmark, as template
    instantiation does), occupancy is aggregated at kernel level, and
    schedule length at region level. *)

type table1 = {
  num_benchmarks : int;
  num_kernels : int;
  num_regions : int;
  pass1_regions : int;
  pass2_regions : int;
  avg_pass1_size : float;
  avg_pass2_size : float;
  max_pass1_size : int;
  max_pass2_size : int;
}

val table1 : Filters.config -> Compile.suite_report -> table1

type table2 = {
  t2_pass1_regions : int;
  t2_pass2_regions : int;
  overall_occupancy_increase_pct : float;
  max_occupancy_increase_pct : float;
  overall_length_reduction_pct : float;
  max_length_reduction_pct : float;
}

val table2 : Filters.config -> Compile.suite_report -> table2

type speedup_row = {
  category : int;
  processed : int;
  comparable : int;  (** equal iteration counts in both algorithms *)
  geomean : float;
  max_speedup : float;
  min_speedup : float;
}

val table3 : pass:[ `One | `Two ] -> Filters.config -> Compile.suite_report -> speedup_row list
(** One row per size category ([1-49], [50-99], [>=100]); categories with
    no comparable regions report zeros. *)

val speedups :
  pass:[ `One | `Two ] -> Filters.config -> Compile.suite_report -> (int * float) list
(** Per-comparable-region [(category, speedup)] pairs — the data behind
    the Figure 2/3 distributions. *)

type fig4 = {
  rows : (string * float) list;  (** significant benchmarks, best first *)
  geomean_improvement_pct : float;  (** over the significant improvements *)
  improved_ge_5pct : int;
  improved_ge_10pct : int;
  max_regression_pct : float;  (** most negative speedup over all benchmarks *)
}

val fig4 : Filters.config -> Compile.suite_report -> fig4
(** Only scheduling-sensitive benchmarks are considered (Section VI-A);
    a difference is significant at 1% or more. *)

type table7_row = {
  threshold : int;
  imps_ge_3 : int;
  imps_ge_5 : int;
  imps_ge_10 : int;
  regs_ge_3 : int;
  regs_ge_5 : int;
  regs_ge_10 : int;
  max_regression : float;
}

val table7 : thresholds:int list -> Compile.suite_report -> table7_row list

val sensitive_benchmarks : Compile.suite_report -> Workload.Suite.benchmark list

type degradation_row = {
  d_backend : string;  (** backend whose runs this row tallies *)
  d_category : int;  (** {!Engine.Params.size_category}, or [-1] for the total row *)
  d_tally : Robust.tally;
  d_faults : Engine.Types.fault_counts;
}

val degradation_backends : Compile.suite_report -> string list
(** Backends that ran anywhere in the compile, first-encounter order
    (product backends lead, ride-along baselines follow). *)

val degradation_table : Compile.suite_report -> degradation_row list
(** Degradation statistics of the fault-tolerant driver, one row per
    region size category {e per backend} over the compiled kernels (each
    kernel compiled once). Every backend is attributed its own run's
    ledger entry — a region where the parallel backend degraded but the
    sequential baseline finished clean tallies under ["par"] only. With
    faults off and budgets unbounded every run tallies as clean. *)

val degradation_total : Compile.suite_report -> degradation_row list
(** One all-categories total row ([d_category = -1]) per backend. *)

type perf_row = {
  p_category : int;  (** {!Engine.Params.size_category}, or [-1] for the total row *)
  p_regions : int;
  p_lockstep_steps : int;  (** wavefront-level lockstep rounds, both passes *)
  p_ant_steps : int;  (** individual ant construction steps, both passes *)
  p_selections : int;  (** steps that ran the pheromone selection loop *)
  p_scored_candidates : int;
      (** pass-2 candidates whose RP fit was evaluated, both passes
          summed (pass 1 contributes 0) *)
  p_pruned_candidates : int;
      (** candidates dismissed by the min-register lower bounds without
          a fit evaluation; nonzero only under a pruning-capable
          backend *)
  p_minor_words : float;  (** OCaml minor-heap words allocated by the passes *)
  p_words_per_ant_step : float;  (** [p_minor_words / p_ant_steps]; 0 when no steps *)
}

val perf_table : Compile.suite_report -> perf_row list
(** Allocation-discipline counters of the parallel (GPU-model) passes,
    one row per size category over the compiled kernels. The batched
    arena keeps [p_words_per_ant_step] near zero: the construct-schedule
    inner loop allocates nothing, so the residual is per-iteration
    bookkeeping amortized over the steps. *)

val perf_total : Compile.suite_report -> perf_row

type convergence_row = {
  c_region : string;
  c_backend : string;  (** backend name, e.g. ["par"], ["seq"], ["weighted"] *)
  c_pass : string;  (** ["pass1"] or ["pass2"] *)
  c_iterations : int;
      (** attempted iterations — the engine-wide convention: every
          started iteration counts, including faulted ones that were
          retried (see {!Engine.Types.pass_stats.best_costs}) *)
  c_retries : int;  (** faulted iterations that were retried within the pass *)
  c_initial : int;  (** cost of the pass's initial (heuristic) schedule *)
  c_final : int;  (** best cost when the pass stopped *)
  c_first_improvement : int;
      (** iteration of the first strict improvement, 0 when the pass never
          beat its initial schedule *)
  c_series : int array;  (** the full per-iteration best-cost series *)
}

val convergence_rows_of_region : Compile.region_report -> convergence_row list
(** One row per backend run and pass that ran, in the report's run order
    (empty series are dropped — a pass that was never invoked contributes
    nothing). *)

val convergence_table : Compile.suite_report -> convergence_row list
(** Convergence telemetry over the compiled kernels, region by region:
    the per-iteration best-cost series of both drivers' passes. *)

val render_convergence : convergence_row list -> string
(** ASCII table: one line per pass with the series compacted into
    plateaus (["33>31(x2)>30(x5)"] = improved at iteration 1, again at 3,
    then five unchanged iterations). *)
