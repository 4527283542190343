type kernel = {
  kernel_name : string;
  regions : Ir.Region.t list;
  hot_index : int;
  mem_ratio : float;
}

type benchmark = {
  bench_name : string;
  kernel : kernel;
  items : int;
  bytes_per_item : float;
}

type t = { kernels : kernel list; benchmarks : benchmark list }

type scale = {
  seed : int;
  num_kernels : int;
  extra_benchmarks : int;
  size_factor : float;
  small_regions_min : int;
  small_regions_max : int;
  include_giant : bool;
}

let test_scale =
  {
    seed = 2024;
    num_kernels = 8;
    extra_benchmarks = 2;
    size_factor = 0.5;
    small_regions_min = 2;
    small_regions_max = 6;
    include_giant = false;
  }

let bench_scale =
  {
    seed = 906;
    num_kernels = 40;
    extra_benchmarks = 12;
    size_factor = 1.0;
    small_regions_min = 6;
    small_regions_max = 24;
    include_giant = true;
  }

type family =
  | Reduce
  | Scan
  | Transform
  | Stencil
  | Matmul
  | Histogram
  | Sort
  | Gather
  | WideAccum

(* Matmul/WideAccum appear twice: register-hungry kernels are the ones the
   RP pass exists for, so the pool leans toward them the way rocPRIM leans
   toward tiled primitives. *)
let families =
  [| Reduce; Scan; Transform; Stencil; Matmul; Histogram; Sort; Gather; WideAccum;
     Matmul; WideAccum; Stencil |]

let family_name = function
  | Reduce -> "block_reduce"
  | Scan -> "block_scan"
  | Transform -> "device_transform"
  | Stencil -> "device_adjacent_difference"
  | Matmul -> "block_gemm_tile"
  | Histogram -> "device_histogram"
  | Sort -> "block_radix_sort"
  | Gather -> "device_select"
  | WideAccum -> "device_reduce_unrolled"

(* Scale an integer parameter, keeping a sane floor. *)
let scaled factor lo v = max lo (int_of_float (float_of_int v *. factor))

let hot_region rng factor family =
  let pick lo hi = lo + Support.Rng.int rng (hi - lo + 1) in
  match family with
  | Reduce -> (Shapes.reduction rng ~items:(scaled factor 4 (pick 12 64)), 0.80)
  | Scan -> (Shapes.scan rng ~items:(scaled factor 6 (pick 16 48)), 0.60)
  | Transform ->
      ( Shapes.transform rng ~unroll:(scaled factor 3 (pick 6 24)) ~chain:(pick 2 6),
        0.70 )
  | Stencil ->
      (Shapes.stencil rng ~outputs:(scaled factor 4 (pick 8 32)) ~radius:(pick 2 5), 0.50)
  | Matmul -> (Shapes.matmul_tile rng ~m:(scaled factor 4 (pick 8 26)) ~k:(pick 2 6), 0.30)
  | Histogram -> (Shapes.histogram rng ~items:(scaled factor 4 (pick 8 48)), 0.75)
  | Sort -> (Shapes.sort_pass rng ~items:(scaled factor 4 (pick 8 24)), 0.50)
  | Gather -> (Shapes.gather_compute rng ~lanes:(scaled factor 3 (pick 6 16)) ~chain:(pick 1 3), 0.80)
  | WideAccum ->
      ( Shapes.wide_accum rng
          ~accumulators:(scaled factor 8 (pick 18 34))
          ~rounds:(scaled factor 8 (pick 16 48)),
        0.55 )

let small_region rng =
  let r = Support.Rng.float rng in
  if r < 0.45 then Shapes.scalar_setup rng ~count:(2 + Support.Rng.int rng 10)
  else if r < 0.75 then
    Shapes.gather_compute rng ~lanes:(4 + Support.Rng.int rng 8) ~chain:(1 + Support.Rng.int rng 3)
  else if r < 0.9 then Shapes.reduction rng ~items:(2 + Support.Rng.int rng 6)
  else Shapes.scan rng ~items:(2 + Support.Rng.int rng 4)

let make_kernel rng scale index =
  let family = families.(index mod Array.length families) in
  let hot, mem_ratio = hot_region rng scale.size_factor family in
  let n_small =
    scale.small_regions_min
    + Support.Rng.int rng (max 1 (scale.small_regions_max - scale.small_regions_min + 1))
  in
  let smalls = List.init n_small (fun _ -> small_region rng) in
  {
    kernel_name = Printf.sprintf "%s_%d" (family_name family) index;
    regions = hot :: smalls;
    hot_index = 0;
    mem_ratio;
  }

let giant_kernel rng =
  let hot = Shapes.matmul_tile rng ~m:30 ~k:10 in
  let smalls = List.init 12 (fun _ -> small_region rng) in
  { kernel_name = "device_merge_sort_giant"; regions = hot :: smalls; hot_index = 0; mem_ratio = 0.4 }

let make_benchmark rng suffix kernel =
  let items = 1 lsl (14 + Support.Rng.int rng 8) in
  let bytes_per_item = float_of_int (4 * (1 + Support.Rng.int rng 4)) in
  {
    bench_name = Printf.sprintf "%s.%s" kernel.kernel_name suffix;
    kernel;
    items;
    bytes_per_item;
  }

let generate scale =
  let rng = Support.Rng.create scale.seed in
  let kernels = List.init scale.num_kernels (fun i -> make_kernel (Support.Rng.split rng) scale i) in
  let kernels = if scale.include_giant then kernels @ [ giant_kernel (Support.Rng.split rng) ] else kernels in
  let base_benchmarks = List.map (fun k -> make_benchmark rng "base" k) kernels in
  let kernel_array = Array.of_list kernels in
  let extras =
    List.init scale.extra_benchmarks (fun i ->
        let k = Support.Rng.choose rng kernel_array in
        make_benchmark rng (Printf.sprintf "variant%d" i) k)
  in
  { kernels; benchmarks = base_benchmarks @ extras }

(* A deliberately unbalanced compile workload: a handful of giant
   matmul-tile regions next to a long tail of tiny ones. A static
   round-robin of such a suite strands whoever drew the giants; it is
   the adversarial input for the executor's load balancing (workers
   claim the giants first and level the finish with the tail) and the
   shape the scaling benchmark sweeps. *)
let skewed ?(seed = 4242) ?(giants = 3) ?(tiny = 48) () =
  let rng = Support.Rng.create seed in
  let giant_kernels =
    List.init (max 0 giants) (fun i ->
        let rng = Support.Rng.split rng in
        let hot = Shapes.matmul_tile rng ~m:(24 + (4 * i)) ~k:(6 + i) in
        {
          kernel_name = Printf.sprintf "skew_giant_%d" i;
          regions = [ hot ];
          hot_index = 0;
          mem_ratio = 0.35;
        })
  in
  let tiny_kernels =
    List.init (max 0 tiny) (fun i ->
        let rng = Support.Rng.split rng in
        {
          kernel_name = Printf.sprintf "skew_tiny_%d" i;
          regions = [ small_region rng ];
          hot_index = 0;
          mem_ratio = 0.7;
        })
  in
  { kernels = giant_kernels @ tiny_kernels; benchmarks = [] }

(* Compile-side workload replication: each copy re-lists every kernel
   under a fresh name but shares the region values, the way template
   instantiation multiplies structurally identical regions across a real
   suite. Benchmarks are left untouched (they reference the original
   kernels); replication multiplies compile work, not execution work. *)
let replicate ~copies t =
  if copies <= 1 then t
  else
    let kernels =
      List.concat
        (List.init copies (fun c ->
             if c = 0 then t.kernels
             else
               List.map
                 (fun k ->
                   { k with kernel_name = Printf.sprintf "%s~dup%d" k.kernel_name c })
                 t.kernels))
    in
    { t with kernels }

type stats = {
  num_benchmarks : int;
  num_kernels : int;
  num_regions : int;
  max_region_size : int;
  avg_region_size : float;
}

let all_regions t = List.concat_map (fun k -> k.regions) t.kernels

let stats t =
  let regions = all_regions t in
  let sizes = List.map Ir.Region.size regions in
  let total = List.fold_left ( + ) 0 sizes in
  {
    num_benchmarks = List.length t.benchmarks;
    num_kernels = List.length t.kernels;
    num_regions = List.length regions;
    max_region_size = List.fold_left max 0 sizes;
    avg_region_size = float_of_int total /. float_of_int (List.length regions);
  }
