let counts_to_string (c : Engine.Types.fault_counts) =
  Printf.sprintf "lane:%d hang:%d drop:%d mem:%d" c.Engine.Types.lane_faults
    c.Engine.Types.wavefront_hangs c.Engine.Types.reduction_drops c.Engine.Types.mem_faults

type t = {
  rates : Config.fault_rates;
  rng : Support.Rng.t;
  mutable injected : Engine.Types.fault_counts;
}

let create ?(seed = 0) (rates : Config.fault_rates) =
  { rates; rng = Support.Rng.create seed; injected = Engine.Types.fault_counts_zero }

(* The disabled injector never draws and never counts, so sharing one
   global value is safe. *)
let disabled = create Config.no_faults

let enabled t = Config.faults_enabled t.rates

let counts t = t.injected

(* Each fire test draws from the injector's private stream only when its
   class is armed: a zero-rate class costs nothing and — crucially —
   consumes no randomness, so runs with all rates zero are byte-identical
   to runs without the fault model. *)
let fire t rate bump =
  rate > 0.0
  && Support.Rng.bool t.rng rate
  &&
  (t.injected <- bump t.injected;
   true)

let lane_fault t =
  fire t t.rates.Config.lane_fault_rate (fun c ->
      { c with Engine.Types.lane_faults = c.Engine.Types.lane_faults + 1 })

let wavefront_hang t =
  fire t t.rates.Config.wavefront_hang_rate (fun c ->
      { c with Engine.Types.wavefront_hangs = c.Engine.Types.wavefront_hangs + 1 })

let reduction_drop t =
  fire t t.rates.Config.reduction_drop_rate (fun c ->
      { c with Engine.Types.reduction_drops = c.Engine.Types.reduction_drops + 1 })

let mem_fault t =
  fire t t.rates.Config.mem_fault_rate (fun c ->
      { c with Engine.Types.mem_faults = c.Engine.Types.mem_faults + 1 })

let pick t bound = if bound <= 0 then 0 else Support.Rng.int t.rng bound

(* Simulated time between a wavefront hanging and the watchdog noticing
   and recovering it — one watchdog polling interval. *)
let hang_penalty_ns = 50_000.0

(* Base of the exponential retry backoff charged to simulated time when a
   faulted iteration is re-run with a reseeded RNG. *)
let retry_backoff_ns = 10_000.0
