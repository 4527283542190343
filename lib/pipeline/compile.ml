type config = {
  occ : Machine.Occupancy.t;
  gpu : Gpusim.Config.t;
  params : Engine.Params.t;
  robust : Robust.config;
  dispatch : Engine.Dispatch.policy;
  seq_seed : int;
  par_seed : int;
  run_sequential : bool;
}

(* The product backends ship with the pipeline; anything else (bench
   probes, test stubs) registers itself before compiling. Idempotent, so
   calling it once per region is free. The spill-aware MMAS variant
   prices excess pressure with the bench machine's memory model — the
   same configuration the GPU-model backend simulates. *)
let ensure_backends () =
  Aco.Seq_aco.register ();
  Gpusim.Par_aco.register ();
  Aco.Weighted_aco.register ();
  Engine.Registry.register Aco.Seq_aco.mmas_backend;
  Engine.Registry.register
    (Aco.Seq_aco.mmas_spill_backend (Gpusim.Mem_model.spill_model Gpusim.Config.bench))

let override ~fault_rate ~fault_seed ~compile_budget_ms c =
  match (fault_rate, fault_seed, compile_budget_ms) with
  | None, None, None -> c
  | _ ->
      let gpu =
        match (fault_rate, fault_seed) with
        | None, None -> c.gpu
        | _ ->
            Gpusim.Config.with_faults ?seed:fault_seed c.gpu
              (match fault_rate with
              | Some rate -> Gpusim.Config.uniform_faults rate
              | None -> c.gpu.Gpusim.Config.faults)
      in
      let robust =
        match compile_budget_ms with
        | Some ms -> { c.robust with Robust.compile_budget_ns = Robust.budgets_of_ms ms }
        | None -> c.robust
      in
      { c with gpu; robust }

let make_config ?(gpu = Gpusim.Config.bench) ?(robust = Robust.default) ?fault_rate
    ?fault_seed ?compile_budget_ms ?max_retries ?(dispatch = Engine.Dispatch.default) () =
  let params =
    {
      Engine.Params.default with
      Engine.Params.ants_per_iteration = Gpusim.Config.threads gpu;
    }
  in
  let robust =
    match max_retries with
    | Some k -> { robust with Robust.max_retries = max 0 k }
    | None -> robust
  in
  override ~fault_rate ~fault_seed ~compile_budget_ms
    {
      occ = Machine.Occupancy.default;
      gpu;
      params;
      robust;
      dispatch;
      seq_seed = 101;
      par_seed = 202;
      run_sequential = true;
    }

type invalid_option =
  | Fault_rate of float
  | Compile_budget_ms of float
  | No_backend of string
  | Duplicate_backend of string
  | Unknown_backend of string

(* The comparisons are written so that NaN fails them. *)
let check_options ?auto_threshold ~fault_rate ~compile_budget_ms backend =
  match (fault_rate, compile_budget_ms, backend) with
  | Some rate, _, _ when not (rate >= 0.0 && rate <= 1.0) -> Error (Fault_rate rate)
  | _, Some ms, _ when not (ms >= 0.0) -> Error (Compile_budget_ms ms)
  | _, _, None -> Ok None
  | _, _, Some spec -> (
      match Engine.Dispatch.of_string ?auto_threshold spec with
      | exception Invalid_argument m -> Error (No_backend m)
      | exception Engine.Dispatch.Duplicate_backend b -> Error (Duplicate_backend b)
      | policy -> (
          ensure_backends ();
          match
            List.find_opt
              (fun b -> not (Engine.Registry.mem b))
              (Engine.Dispatch.backend_names policy)
          with
          | Some b -> Error (Unknown_backend b)
          | None -> Ok (Some policy)))

type backend_run = {
  backend : string;
  caps : Engine.Types.caps;
  result : Engine.Types.result;
  run_pass1_time_ns : float;
  run_pass2_time_ns : float;
  run_degradation : Robust.degradation;
  run_retries : int;
  run_fault_counts : Engine.Types.fault_counts;
}

type region_report = {
  region_name : string;
  n : int;
  size_category : int;
  length_lb : int;
  heuristic_cost : Sched.Cost.t;
  heuristic_order : int array;
  cp_cost : Sched.Cost.t;
  pass1_invoked : bool;
  pass2_invoked : bool;
  pass2_gap : int;
  aco_cost : Sched.Cost.t;
  aco_order : int array;
  pass1_only_cost : Sched.Cost.t;
  pass1_only_order : int array;
  product_backend : string;
  runs : backend_run list;
  degradation : Robust.degradation;
  retries : int;
  fault_counts : Engine.Types.fault_counts;
}

type kernel_report = { kernel : Workload.Suite.kernel; regions : region_report list }

type suite_report = {
  suite : Workload.Suite.t;
  compile_config : config;
  kernels : kernel_report list;
}

let find_run r name = List.find_opt (fun run -> String.equal run.backend name) r.runs

let product_run r =
  match find_run r r.product_backend with
  | Some run -> run
  | None -> invalid_arg "Compile.product_run: report lost its product run"

(* Worst-case product: the AMD heuristic schedule dressed up as an ACO
   result. This is what the driver ships when a backend itself trapped —
   the schedule is valid by construction, so compilation always
   completes. *)
let heuristic_fallback (rc : Engine.Region_ctx.t) : Engine.Types.result =
  {
    Engine.Types.schedule = rc.Engine.Region_ctx.amd_schedule;
    cost = rc.Engine.Region_ctx.amd_cost;
    heuristic_schedule = rc.Engine.Region_ctx.amd_schedule;
    heuristic_cost = rc.Engine.Region_ctx.amd_cost;
    rp_target = rc.Engine.Region_ctx.amd_cost.Sched.Cost.rp;
    pass2_initial = rc.Engine.Region_ctx.amd_schedule;
    pass1 = Engine.Types.no_pass;
    pass2 = Engine.Types.no_pass;
  }

(* Compile one region with one backend: resolve it, pick its budget
   currency from its capabilities, trap exceptions into the heuristic
   fallback, guard the emitted schedule, and classify the run's ledger
   entry. Returns the run and whether the backend trapped. *)
let run_backend ?(trace = Obs.Trace.null) ?(metrics = Obs.Metrics.null) config ~name
    ~budget_ns (rc : Engine.Region_ctx.t) bname =
  let backend = Engine.Registry.find_exn bname in
  let caps = Engine.Backend.caps backend in
  let budget =
    if caps.Engine.Types.time_model then
      if budget_ns = infinity then Engine.Types.Unlimited else Engine.Types.Time_ns budget_ns
    else
      let w = Robust.budget_work_of_ns config.gpu budget_ns in
      if w = max_int then Engine.Types.Unlimited else Engine.Types.Work w
  in
  let ctx =
    {
      Engine.Backend.params = config.params;
      seed =
        (* Every CPU two-pass colony (seq, the MMAS variants and
           wrappers that copy their capabilities) shares the
           sequential seed, so policy comparisons start from the same
           stream; everything else keeps the parallel seed. *)
        (if caps.Engine.Types.rp_pass && not caps.Engine.Types.time_model then config.seq_seed
         else config.par_seed);
      budget;
      trace;
      metrics;
      label = name ^ "." ^ bname ^ ".";
      ext =
        [
          Gpusim.Par_aco.Gpu_config config.gpu;
          Gpusim.Par_aco.Watchdog
            {
              iteration_deadline_ns = config.robust.Robust.iteration_deadline_ns;
              max_retries = config.robust.Robust.max_retries;
            };
        ];
    }
  in
  let result, trapped =
    match Engine.Two_pass.run backend ctx rc with
    | r -> (r, false)
    | exception _ -> (heuristic_fallback rc, true)
  in
  (* Last line of defence: whatever the backend went through above, the
     run emits a schedule that validates. *)
  let guarded_schedule, guard_fired =
    Sched.Schedule.guard result.Engine.Types.schedule ~latency_aware:true
      ~fallback:rc.Engine.Region_ctx.amd_schedule
  in
  let result =
    if guard_fired then
      { result with Engine.Types.schedule = guarded_schedule; cost = rc.Engine.Region_ctx.amd_cost }
    else result
  in
  let pass1 = result.Engine.Types.pass1 and pass2 = result.Engine.Types.pass2 in
  let retries = pass1.Engine.Types.retries + pass2.Engine.Types.retries in
  let degradation =
    Robust.classify
      ~fell_back:(trapped || guard_fired)
      ~stop:(max pass1.Engine.Types.stop pass2.Engine.Types.stop)
      ~retries
  in
  let time_of (stats : Engine.Types.pass_stats) =
    if caps.Engine.Types.time_model then stats.Engine.Types.time_ns
    else Gpusim.Cpu_model.pass_time_ns config.gpu ~work:stats.Engine.Types.work
  in
  ( {
      backend = bname;
      caps;
      result;
      run_pass1_time_ns = time_of pass1;
      run_pass2_time_ns = time_of pass2;
      run_degradation = degradation;
      run_retries = retries;
      run_fault_counts =
        Engine.Types.fault_counts_add pass1.Engine.Types.fault_counts
          pass2.Engine.Types.fault_counts;
    },
    trapped )

(* Portfolio selection: best RP (occupancy first) then shortest length;
   the earlier candidate wins ties, so a single-backend dispatch is the
   identity. *)
let pick_product = function
  | [] -> invalid_arg "Compile.run_region: dispatch produced no backends"
  | first :: rest ->
      List.fold_left
        (fun acc run ->
          if
            Sched.Cost.better_rp_then_length run.result.Engine.Types.cost
              acc.result.Engine.Types.cost
          then run
          else acc)
        first rest

let run_region ?(trace = Obs.Trace.null) ?(metrics = Obs.Metrics.null)
    ?(log = Obs.Log.null) ?ctx ?budget_ns config ~name region =
  ensure_backends ();
  (* The analysis context is computed here exactly once (or arrives
     precomputed from the executor's cache); every backend the dispatch
     races consumes it instead of re-deriving region analyses. *)
  let rc =
    match ctx with
    | Some rc -> rc
    | None -> Engine.Region_ctx.of_region config.occ region
  in
  let graph = rc.Engine.Region_ctx.graph in
  let n = graph.Ddg.Graph.n in
  let budget_ns =
    match budget_ns with Some b -> b | None -> Robust.budget_for config.robust ~n
  in
  let region_t0 = Obs.Trace.now trace in
  let candidates = Engine.Dispatch.candidates config.dispatch ~n in
  let runs =
    List.map
      (fun bname -> fst (run_backend ~trace ~metrics config ~name ~budget_ns rc bname))
      candidates
  in
  let product = pick_product runs in
  (* The pass-level set_now calls left the trace clock at the end of the
     traced backends' compiles, so the region span covers their passes. *)
  if Obs.Trace.enabled trace then
    Obs.Trace.span_arg trace ~track:0 ~name:("region " ^ name) ~ts:region_t0
      ~dur:(Obs.Trace.now trace -. region_t0)
      ~key:"n"
      ~value:(float_of_int graph.Ddg.Graph.n);
  if Obs.Log.enabled log then begin
    (* One entry per raced candidate (the backend passes the request id
       threads down to), then the region verdict. *)
    List.iter2
      (fun bname (run : backend_run) ->
        Obs.Log.debug log "compile.backend"
          [
            ("region", Obs.Log.Str name);
            ("backend", Obs.Log.Str bname);
            ("rung", Obs.Log.Str (Robust.degradation_label run.run_degradation));
            ("pass1_ns", Obs.Log.Float run.run_pass1_time_ns);
            ("pass2_ns", Obs.Log.Float run.run_pass2_time_ns);
            ("length", Obs.Log.Int run.result.Engine.Types.cost.Sched.Cost.length);
          ])
      candidates runs;
    Obs.Log.info log "compile.region"
      [
        ("region", Obs.Log.Str name);
        ("n", Obs.Log.Int n);
        ("backend", Obs.Log.Str product.backend);
        ("rung", Obs.Log.Str (Robust.degradation_label product.run_degradation));
        ("length", Obs.Log.Int product.result.Engine.Types.cost.Sched.Cost.length);
        ("length_lb", Obs.Log.Int rc.Engine.Region_ctx.length_lb);
      ]
  end;
  Robust.observe ~log trace metrics ~region:name product.run_degradation;
  (* The CPU timing baseline of Tables 3.a/3.b rides along unless the
     dispatch already ran it as a product candidate. A baseline that
     traps is dropped (the product does not depend on it). *)
  let runs =
    if config.run_sequential && not (List.mem "seq" candidates) then
      match run_backend ~metrics config ~name ~budget_ns rc "seq" with
      | run, false ->
          (* The baseline must start from the same shared context as the
             product candidates — identical heuristic schedule, identical
             lower bounds — or the Tables 3.a/3.b comparison is not
             apples-to-apples. The context hand-off makes this structural;
             the assert keeps it that way. *)
          assert (run.result.Engine.Types.heuristic_cost = rc.Engine.Region_ctx.amd_cost);
          runs @ [ run ]
      | _, true -> runs
      | exception _ -> runs
    else runs
  in
  let presult = product.result in
  let pass2_initial_cost =
    Sched.Cost.of_schedule ~layout:rc.Engine.Region_ctx.rp_layout config.occ
      presult.Engine.Types.pass2_initial
  in
  {
    region_name = name;
    n = Ir.Region.size region;
    size_category = Engine.Params.size_category (Ir.Region.size region);
    length_lb = rc.Engine.Region_ctx.length_lb;
    heuristic_cost = rc.Engine.Region_ctx.amd_cost;
    heuristic_order = Sched.Schedule.order rc.Engine.Region_ctx.amd_schedule;
    cp_cost = rc.Engine.Region_ctx.cp_cost;
    pass1_invoked = presult.Engine.Types.pass1.Engine.Types.invoked;
    pass2_invoked = presult.Engine.Types.pass2.Engine.Types.invoked;
    pass2_gap = rc.Engine.Region_ctx.amd_cost.Sched.Cost.length - rc.Engine.Region_ctx.height_lb;
    aco_cost = presult.Engine.Types.cost;
    aco_order = Sched.Schedule.order presult.Engine.Types.schedule;
    pass1_only_cost = pass2_initial_cost;
    pass1_only_order = Sched.Schedule.order presult.Engine.Types.pass2_initial;
    product_backend = product.backend;
    runs;
    degradation = product.run_degradation;
    retries = product.run_retries;
    fault_counts = product.run_fault_counts;
  }

(* [hot_index] comes from workload metadata; an out-of-range index must
   not crash the reporting path, so clamp it into the region list. *)
let hot_region (kr : kernel_report) =
  match kr.regions with
  | [] -> invalid_arg "Compile.hot_region: kernel has no regions"
  | regions ->
      let i = kr.kernel.Workload.Suite.hot_index in
      List.nth regions (max 0 (min (List.length regions - 1) i))

let find_kernel (report : suite_report) (b : Workload.Suite.benchmark) =
  List.find
    (fun (kr : kernel_report) ->
      String.equal kr.kernel.Workload.Suite.kernel_name
        b.Workload.Suite.kernel.Workload.Suite.kernel_name)
    report.kernels
