type opts = {
  coalesced_layout : bool;
  batched_alloc : bool;
  tight_ready_ub : bool;
  wavefront_level_explore : bool;
  optional_stall_fraction : float;
  early_wavefront_termination : bool;
  per_wavefront_heuristic : bool;
  ready_list_limiting : [ `Off | `Min | `Mid ];
}

let opts_paper =
  {
    coalesced_layout = true;
    batched_alloc = true;
    tight_ready_ub = true;
    wavefront_level_explore = true;
    optional_stall_fraction = 0.25;
    early_wavefront_termination = true;
    per_wavefront_heuristic = true;
    ready_list_limiting = `Off;
  }

let opts_no_memory =
  { opts_paper with coalesced_layout = false; batched_alloc = false; tight_ready_ub = false }

let opts_no_divergence =
  {
    opts_paper with
    wavefront_level_explore = false;
    optional_stall_fraction = 1.0;
    early_wavefront_termination = false;
    per_wavefront_heuristic = false;
  }

type fault_rates = {
  lane_fault_rate : float;
  wavefront_hang_rate : float;
  reduction_drop_rate : float;
  mem_fault_rate : float;
}

let no_faults =
  {
    lane_fault_rate = 0.0;
    wavefront_hang_rate = 0.0;
    reduction_drop_rate = 0.0;
    mem_fault_rate = 0.0;
  }

(* A single headline rate expands into per-class rates: lane faults at
   the headline rate, memory-transaction replays and lost reduction
   messages at a quarter of it, and the rarer whole-wavefront hangs at a
   sixteenth. Reduction drops are per iteration (not per lane), so the
   quarter rate keeps them visible at drill rates. *)
let uniform_faults rate =
  let rate = Float.max 0.0 (Float.min 1.0 rate) in
  {
    lane_fault_rate = rate;
    wavefront_hang_rate = rate /. 16.0;
    reduction_drop_rate = rate /. 4.0;
    mem_fault_rate = rate /. 4.0;
  }

let faults_enabled f =
  f.lane_fault_rate > 0.0 || f.wavefront_hang_rate > 0.0
  || f.reduction_drop_rate > 0.0 || f.mem_fault_rate > 0.0

type t = {
  target : Machine.Target.t;
  num_wavefronts : int;
  cpu_ns_per_op : float;
  gpu_ns_per_op : float;
  mem_transaction_ns : float;
  launch_overhead_ns : float;
  copy_ns_per_word : float;
  sync_overhead_ns : float;
  alloc_call_ns : float;
  opts : opts;
  faults : fault_rates;
  fault_seed : int;
}

let default =
  {
    target = Machine.Target.vega20;
    num_wavefronts = 180;
    cpu_ns_per_op = 5.0;
    gpu_ns_per_op = 55.0;
    mem_transaction_ns = 18.0;
    launch_overhead_ns = 400_000.0;
    copy_ns_per_word = 1.0;
    sync_overhead_ns = 2_000.0;
    alloc_call_ns = 10_000.0;
    opts = opts_paper;
    faults = no_faults;
    fault_seed = 9001;
  }

let with_faults ?seed t faults =
  { t with faults; fault_seed = Option.value seed ~default:t.fault_seed }

(* Splitmix-style finalizer over (seed, salt): well-spread derived seeds
   so consecutive retry attempts draw unrelated fault patterns, yet the
   whole family is replayable from the request's one seed. *)
let reseed_faults t ~salt =
  if salt = 0 then t
  else
    let mix z =
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
      Int64.logxor z (Int64.shift_right_logical z 31)
    in
    let z =
      mix (Int64.add (Int64.of_int t.fault_seed) (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int salt)))
    in
    { t with fault_seed = Int64.to_int (Int64.logand z 0x3fffffffffffffffL) }

let bench = { default with num_wavefronts = 6 }

let with_opts t opts = { t with opts }

let threads t = t.num_wavefronts * t.target.Machine.Target.wavefront_size
