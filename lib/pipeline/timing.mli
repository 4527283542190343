(** Compile-time accounting (Table 5).

    The suite's total compile time decomposes into a scheduler-independent
    base — C++ frontend work per benchmark plus per-instruction code
    generation (instruction selection, register allocation, encoding) —
    and the scheduling itself: the heuristic list scheduler everywhere,
    plus ACO wherever it is invoked (CPU-sequential or GPU-parallel).

    Constants are calibration points documented here, in simulated
    seconds; rocPRIM's heavily templated HIP C++ makes the frontend the
    dominant term, which is why even the sequential ACO "only" adds
    ~46% in the paper. *)

val frontend_ns_per_benchmark : float
(** Template instantiation + semantic analysis per benchmark TU. *)

val codegen_ns_per_instr : float
(** Non-scheduling backend cost per instruction. *)

val heuristic_schedule_ns : n:int -> float
(** Greedy list scheduling of a region. *)

type totals = {
  base_ns : float;  (** AMD scheduler only *)
  seq_ns : float;  (** base + sequential ACO *)
  par_ns : float;  (** base + parallel ACO on the GPU *)
}

val compile_totals : Filters.config -> Compile.suite_report -> totals
(** Totals over the suite's benchmarks (kernels shared by several
    benchmarks are recompiled per benchmark, as template instantiation
    does in rocPRIM). The cycle-threshold gate ({!Filters.region_kept})
    drops a region's ACO times, as in the shipping configuration. *)

val pct_increase : float -> float -> float
(** [pct_increase base x] is [(x - base) / base * 100]. *)
