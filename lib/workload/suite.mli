(** The rocPRIM-like benchmark suite facsimile.

    The paper's evaluation compiles 341 scheduling-sensitive rocPRIM
    benchmarks built on 269 kernels with 181,883 scheduling regions
    (Table 1). This module generates a scaled-down suite with the same
    anatomy: a pool of kernels — each one hot region from a primitive
    family ({!Shapes}) plus many small prologue/epilogue regions — and
    benchmarks that invoke those kernels (some kernels shared by several
    benchmarks, as in rocPRIM) with their own workload parameters.

    Scaling knobs keep a laptop reproduction tractable; DESIGN.md records
    the correspondence. Generation is deterministic in the seed. *)

type kernel = {
  kernel_name : string;
  regions : Ir.Region.t list;
  hot_index : int;  (** index of the hot (loop-body) region in [regions] *)
  mem_ratio : float;  (** 0..1: fraction of runtime that is memory traffic *)
}

type benchmark = {
  bench_name : string;
  kernel : kernel;
  items : int;  (** work items per launch — execution weight of the hot region *)
  bytes_per_item : float;  (** throughput denominator (GB/s reporting) *)
}

type t = { kernels : kernel list; benchmarks : benchmark list }

type scale = {
  seed : int;
  num_kernels : int;
  extra_benchmarks : int;  (** benchmarks beyond one-per-kernel, on shared kernels *)
  size_factor : float;  (** multiplies hot-region size parameters *)
  small_regions_min : int;
  small_regions_max : int;
  include_giant : bool;  (** add one very large region (the Table 1 tail) *)
}

val test_scale : scale
(** Small: unit/property tests. *)

val bench_scale : scale
(** The scale used by [bench/main.exe] to regenerate the paper's tables. *)

val generate : scale -> t

val skewed : ?seed:int -> ?giants:int -> ?tiny:int -> unit -> t
(** A deliberately unbalanced compile workload: [giants] (default 3)
    growing matmul-tile regions next to [tiny] (default 48) small ones,
    one region per kernel, no benchmarks. The adversarial input for the
    executor's load balancing — a static deal strands whoever drew the
    giants — and the shape the scaling benchmark sweeps. Deterministic
    in [seed] (default 4242). *)

val replicate : copies:int -> t -> t
(** The suite with every kernel listed [copies] times (copy 0 keeps the
    original names, later copies get a ["~dup<c>"] suffix), sharing the
    same region values — a duplicate-heavy compile workload, the way
    template instantiation repeats structurally identical regions across
    a real suite. Every replica region is a guaranteed analysis-cache
    hit. Benchmarks are untouched (replication multiplies compile work,
    not execution work); [copies <= 1] is the identity. *)

type stats = {
  num_benchmarks : int;
  num_kernels : int;
  num_regions : int;
  max_region_size : int;
  avg_region_size : float;
}

val stats : t -> stats

val all_regions : t -> Ir.Region.t list
(** Every region of every kernel, each exactly once (kernels shared by
    several benchmarks are not repeated). *)
