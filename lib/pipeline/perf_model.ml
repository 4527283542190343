type final_choice = {
  cost : Sched.Cost.t;
  order : int array;
  reverted : bool;
  aco_ran : bool;
}

let final_for (filters : Filters.config) (r : Compile.region_report) =
  (* The cycle-threshold filter is a region-level gate: an unpromising
     region (small heuristic gap to the bound) never invokes ACO. *)
  let aco_ran =
    Filters.region_kept filters r && (r.Compile.pass1_invoked || r.Compile.pass2_invoked)
  in
  if not aco_ran then
    { cost = r.Compile.heuristic_cost; order = r.Compile.heuristic_order; reverted = false; aco_ran }
  else
    let candidate_cost, candidate_order =
      if r.Compile.pass2_invoked then (r.Compile.aco_cost, r.Compile.aco_order)
      else (r.Compile.pass1_only_cost, r.Compile.pass1_only_order)
    in
    match Filters.post_schedule filters ~heuristic:r.Compile.heuristic_cost ~aco:candidate_cost with
    | Filters.Keep_aco -> { cost = candidate_cost; order = candidate_order; reverted = false; aco_ran }
    | Filters.Revert_to_heuristic ->
        { cost = r.Compile.heuristic_cost; order = r.Compile.heuristic_order; reverted = true; aco_ran }

type view = Heuristic | Cp | Final of Filters.config

let region_cost view (r : Compile.region_report) =
  match view with
  | Heuristic -> r.Compile.heuristic_cost
  | Cp -> r.Compile.cp_cost
  | Final filters -> (final_for filters r).cost

let kernel_occupancy view (kr : Compile.kernel_report) =
  List.fold_left
    (fun acc r -> min acc (region_cost view r).Sched.Cost.rp.Sched.Cost.occupancy)
    10 kr.Compile.regions

(* Deterministic hash of an instruction order, via splitmix64 folding. *)
let order_hash order =
  let state = ref 0x2545F4914F6CDD1DL in
  Array.iter
    (fun i ->
      let open Int64 in
      state := add (mul !state 6364136223846793005L) (of_int ((2 * i) + 1)))
    order;
  let z = Int64.logxor !state (Int64.shift_right_logical !state 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

(* Normalized permutation distance: average displacement of instructions
   between two orders, scaled so "shuffled beyond recognition" ~ 1. *)
let reldist a b =
  let n = Array.length a in
  if n = 0 || Array.length b <> n then 0.0
  else begin
    let pos = Array.make n 0 in
    Array.iteri (fun p i -> pos.(i) <- p) a;
    let total = ref 0 in
    Array.iteri (fun p i -> total := !total + abs (pos.(i) - p)) b;
    Float.min 1.0 (3.0 *. float_of_int !total /. float_of_int (n * n))
  end

(* The un-modeled factor: magnitude grows with the distance from the
   heuristic order; sign biased toward harm (you rarely get lucky with
   effects you did not model). *)
let unmodeled_factor ~heuristic_order ~order =
  let d = reldist heuristic_order order in
  if d = 0.0 then 0.0
  else
    let u = order_hash order in
    d *. ((u *. 0.33) -. 0.25)

(* Memory latency is fully hidden once enough wavefronts are resident;
   beyond the saturation point extra occupancy no longer buys time. *)
let occupancy_saturation = 9.0

let benchmark_time view (report : Compile.suite_report) (b : Workload.Suite.benchmark) =
  let kr = Compile.find_kernel report b in
  let hot = Compile.hot_region kr in
  let cost = region_cost view hot in
  let occ = kernel_occupancy view kr in
  let mem_ratio = kr.Compile.kernel.Workload.Suite.mem_ratio in
  let hot_heuristic_len = float_of_int hot.Compile.heuristic_cost.Sched.Cost.length in
  let hiding = Float.min 1.0 (float_of_int occ /. occupancy_saturation) in
  let small_overhead =
    List.fold_left
      (fun acc (r : Compile.region_report) ->
        acc +. (0.01 *. float_of_int (region_cost view r).Sched.Cost.length))
      0.0 kr.Compile.regions
  in
  let raw =
    (float_of_int cost.Sched.Cost.length *. (1.0 -. mem_ratio))
    +. (mem_ratio *. hot_heuristic_len /. hiding)
    +. small_overhead
  in
  let noise =
    match view with
    | Final filters ->
        unmodeled_factor ~heuristic_order:hot.Compile.heuristic_order
          ~order:(final_for filters hot).order
    | Heuristic | Cp -> 0.0
  in
  raw *. (1.0 +. noise)

let benchmark_throughput view report b =
  b.Workload.Suite.bytes_per_item /. benchmark_time view report b

let speedup_pct filters report b =
  let t_base = benchmark_time Heuristic report b in
  let t_aco = benchmark_time (Final filters) report b in
  (t_base -. t_aco) /. t_aco *. 100.0

let sensitive report b =
  let times =
    [
      benchmark_time Heuristic report b;
      benchmark_time Cp report b;
      benchmark_time (Final Filters.default) report b;
    ]
  in
  (* The paper's criterion is 3% CV over measured (hardware-noisy)
     runtimes; our modeled times have no measurement jitter, so the same
     discriminative power sits at a lower bar. *)
  Support.Stats.coeff_of_variation times >= 0.02
