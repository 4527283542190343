type config = {
  compile_budget_ns : float array;
  iteration_deadline_ns : float;
  max_retries : int;
}

let default =
  {
    compile_budget_ns = [| infinity; infinity; infinity |];
    iteration_deadline_ns = infinity;
    max_retries = 2;
  }

let budgets_of_ms ms =
  let ms = Float.max 0.0 ms in
  [| ms *. 1e6; 2.0 *. ms *. 1e6; 4.0 *. ms *. 1e6 |]

let budget_for t ~n =
  let k = Array.length t.compile_budget_ns in
  if k = 0 then infinity
  else t.compile_budget_ns.(min (Engine.Params.size_category n) (k - 1))

let budget_work_of_ns (gpu : Gpusim.Config.t) ns =
  if ns = infinity then max_int
  else max 0 (int_of_float (Float.min (ns /. gpu.Gpusim.Config.cpu_ns_per_op) 1e15))

type degradation =
  | Clean
  | Retried of int
  | Budget_exceeded
  | Faulted_fallback
  | Shed_overload

let degradation_label = function
  | Clean -> "clean"
  | Retried k -> Printf.sprintf "retried(%d)" k
  | Budget_exceeded -> "budget"
  | Faulted_fallback -> "fallback"
  | Shed_overload -> "shed"

let severity = function
  | Clean -> 0
  | Retried _ -> 1
  | Budget_exceeded -> 2
  | Faulted_fallback -> 3
  | Shed_overload -> 4

(* Classification priority (most severe wins): the driver replaced the
   ACO product with the heuristic schedule, or a pass exhausted its
   retries > a pass ran out of compile budget > faulted iterations were
   retried but the region recovered > nothing happened. A pass that met
   its bound as its budget ran out stopped with [Budget] (stop reasons
   rank by precedence), so it lands on the budget rung. *)
let classify ~fell_back ~stop ~retries =
  if fell_back || stop = Engine.Types.Faults then Faulted_fallback
  else if stop = Engine.Types.Budget then Budget_exceeded
  else if retries > 0 then Retried retries
  else Clean

(* Ledger → flight recorder: one instant on the driver track per
   degraded region plus a stable-named counter per rung (the [Retried]
   payload goes in the event arg, not the metric name, so series stay
   mergeable across runs), and — when a logger is threaded in — one
   warn entry per degraded region so the operational stream carries the
   ladder too. *)
let observe ?(log = Obs.Log.null) trace metrics ~region d =
  if Obs.Trace.enabled trace && severity d > 0 then
    Obs.Trace.instant_arg trace ~track:0
      ~name:("degraded: " ^ region)
      ~ts:(Obs.Trace.now trace) ~key:"severity"
      ~value:(float_of_int (severity d));
  if Obs.Log.enabled log && severity d > 0 then
    Obs.Log.warn log "region.degraded"
      [
        ("region", Obs.Log.Str region);
        ("rung", Obs.Log.Str (degradation_label d));
        ("severity", Obs.Log.Int (severity d));
      ];
  if Obs.Metrics.enabled metrics then
    Obs.Metrics.incr metrics
      (match d with
      | Clean -> "regions.clean"
      | Retried _ -> "regions.retried"
      | Budget_exceeded -> "regions.budget_exceeded"
      | Faulted_fallback -> "regions.faulted_fallback"
      | Shed_overload -> "regions.shed_overload")

type tally = {
  regions : int;
  clean : int;
  retried : int;
  budget_exceeded : int;
  faulted_fallback : int;
  shed_overload : int;
  total_retries : int;
}

let empty_tally =
  {
    regions = 0;
    clean = 0;
    retried = 0;
    budget_exceeded = 0;
    faulted_fallback = 0;
    shed_overload = 0;
    total_retries = 0;
  }

let tally_add t d =
  let t = { t with regions = t.regions + 1 } in
  match d with
  | Clean -> { t with clean = t.clean + 1 }
  | Retried k -> { t with retried = t.retried + 1; total_retries = t.total_retries + k }
  | Budget_exceeded -> { t with budget_exceeded = t.budget_exceeded + 1 }
  | Faulted_fallback -> { t with faulted_fallback = t.faulted_fallback + 1 }
  | Shed_overload -> { t with shed_overload = t.shed_overload + 1 }

let tally_of_list ds = List.fold_left tally_add empty_tally ds
