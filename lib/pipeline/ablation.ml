type time_row = {
  category : int;
  pass1_overall_pct : float;
  pass1_max_pct : float;
  pass2_overall_pct : float;
  pass2_max_pct : float;
}

(* Pair each compiled region report with its IR region. *)
let eligible_regions (report : Compile.suite_report) =
  List.concat_map
    (fun (kr : Compile.kernel_report) ->
      List.map2
        (fun region rr -> (region, rr))
        kr.Compile.kernel.Workload.Suite.regions kr.Compile.regions)
    report.Compile.kernels

let improvement_pct ~slow ~fast = (slow -. fast) /. fast *. 100.0

let compare_opts (config : Compile.config) report ~baseline ~optimized =
  let gpu_base = Gpusim.Config.with_opts config.Compile.gpu baseline in
  let gpu_opt = Gpusim.Config.with_opts config.Compile.gpu optimized in
  (* accumulators.(cat) = (p1 slow, p1 fast, p1 max, p2 slow, p2 fast, p2 max) *)
  let acc = Array.make 3 (0.0, 0.0, 0.0, 0.0, 0.0, 0.0) in
  List.iter
    (fun (region, (rr : Compile.region_report)) ->
      if rr.Compile.pass1_invoked || rr.Compile.pass2_invoked then begin
        let graph = Ddg.Graph.build region in
        let run gpu =
          Gpusim.Par_aco.run ~params:config.Compile.params ~seed:config.Compile.par_seed gpu
            config.Compile.occ graph
        in
        let rb = run gpu_base in
        let ro = run gpu_opt in
        let cat = rr.Compile.size_category in
        let s1, f1, m1, s2, f2, m2 = acc.(cat) in
        let s1, f1, m1 =
          if rr.Compile.pass1_invoked then
            let slow = rb.Engine.Types.pass1.Engine.Types.time_ns in
            let fast = ro.Engine.Types.pass1.Engine.Types.time_ns in
            (s1 +. slow, f1 +. fast, Float.max m1 (improvement_pct ~slow ~fast))
          else (s1, f1, m1)
        in
        let s2, f2, m2 =
          if rr.Compile.pass2_invoked then
            let slow = rb.Engine.Types.pass2.Engine.Types.time_ns in
            let fast = ro.Engine.Types.pass2.Engine.Types.time_ns in
            (s2 +. slow, f2 +. fast, Float.max m2 (improvement_pct ~slow ~fast))
          else (s2, f2, m2)
        in
        acc.(cat) <- (s1, f1, m1, s2, f2, m2)
      end)
    (eligible_regions report);
  List.map
    (fun category ->
      let s1, f1, m1, s2, f2, m2 = acc.(category) in
      {
        category;
        pass1_overall_pct = (if f1 > 0.0 then improvement_pct ~slow:s1 ~fast:f1 else 0.0);
        pass1_max_pct = m1;
        pass2_overall_pct = (if f2 > 0.0 then improvement_pct ~slow:s2 ~fast:f2 else 0.0);
        pass2_max_pct = m2;
      })
    [ 0; 1; 2 ]

type stall_row = {
  fraction : float;
  aco_time_increase_pct : float;
  length_improvement_pct : float;
  max_length_improvement_pct : float;
}

let stall_fraction_sweep (config : Compile.config) report ~fractions ~min_region_size =
  let targets =
    List.filter
      (fun ((_ : Ir.Region.t), (rr : Compile.region_report)) ->
        rr.Compile.n >= min_region_size && rr.Compile.pass2_invoked)
      (eligible_regions report)
  in
  let run fraction =
    let opts = { config.Compile.gpu.Gpusim.Config.opts with Gpusim.Config.optional_stall_fraction = fraction } in
    let gpu = Gpusim.Config.with_opts config.Compile.gpu opts in
    List.map
      (fun (region, (_ : Compile.region_report)) ->
        let r =
          Gpusim.Par_aco.run ~params:config.Compile.params ~seed:config.Compile.par_seed gpu
            config.Compile.occ (Ddg.Graph.build region)
        in
        ( r.Engine.Types.pass2.Engine.Types.time_ns,
          float_of_int r.Engine.Types.cost.Sched.Cost.length ))
      targets
  in
  let base = run 0.0 in
  let base_time = List.fold_left (fun acc (t, _) -> acc +. t) 0.0 base in
  let base_len = List.fold_left (fun acc (_, l) -> acc +. l) 0.0 base in
  List.map
    (fun fraction ->
      let rs = run fraction in
      let time = List.fold_left (fun acc (t, _) -> acc +. t) 0.0 rs in
      let len = List.fold_left (fun acc (_, l) -> acc +. l) 0.0 rs in
      let max_len_pct =
        List.fold_left2
          (fun acc (_, l0) (_, lf) -> Float.max acc ((l0 -. lf) /. l0 *. 100.0))
          0.0 base rs
      in
      {
        fraction;
        aco_time_increase_pct = (if base_time > 0.0 then (time -. base_time) /. base_time *. 100.0 else 0.0);
        length_improvement_pct = (if base_len > 0.0 then (base_len -. len) /. base_len *. 100.0 else 0.0);
        max_length_improvement_pct = max_len_pct;
      })
    fractions

type ready_limit_row = {
  limiting : string;
  time_change_pct : float;
  quality_change_pct : float;
}

let ready_limit_experiment (config : Compile.config) report =
  let targets =
    List.filter
      (fun ((_ : Ir.Region.t), (rr : Compile.region_report)) -> rr.Compile.pass1_invoked)
      (eligible_regions report)
  in
  let run mode =
    let opts = { config.Compile.gpu.Gpusim.Config.opts with Gpusim.Config.ready_list_limiting = mode } in
    let gpu = Gpusim.Config.with_opts config.Compile.gpu opts in
    List.fold_left
      (fun (time, len) (region, (_ : Compile.region_report)) ->
        let r =
          Gpusim.Par_aco.run ~params:config.Compile.params ~seed:config.Compile.par_seed gpu
            config.Compile.occ (Ddg.Graph.build region)
        in
        ( time +. Gpusim.Par_aco.total_time_ns r,
          len +. float_of_int r.Engine.Types.cost.Sched.Cost.length ))
      (0.0, 0.0) targets
  in
  let t0, l0 = run `Off in
  List.map
    (fun (name, mode) ->
      let t, l = run mode in
      {
        limiting = name;
        time_change_pct = (if t0 > 0.0 then (t -. t0) /. t0 *. 100.0 else 0.0);
        quality_change_pct = (if l0 > 0.0 then (l -. l0) /. l0 *. 100.0 else 0.0);
      })
    [ ("min", `Min); ("mid", `Mid) ]

type objective_row = {
  objective : string;
  kernels_at_better_occupancy : int;
  total_occupancy : int;
  total_length : int;
}

let objective_comparison (config : Compile.config) report =
  let targets =
    List.filter
      (fun ((_ : Ir.Region.t), (rr : Compile.region_report)) ->
        rr.Compile.pass1_invoked || rr.Compile.pass2_invoked)
      (eligible_regions report)
  in
  let outcomes =
    List.map
      (fun (region, (_ : Compile.region_report)) ->
        let graph = Ddg.Graph.build region in
        let two =
          Aco.Seq_aco.run ~params:config.Compile.params ~seed:config.Compile.seq_seed
            config.Compile.occ graph
        in
        let weighted =
          Aco.Weighted_aco.run ~params:config.Compile.params ~seed:config.Compile.seq_seed
            config.Compile.occ graph
        in
        (two.Engine.Types.cost, weighted.Aco.Weighted_aco.cost))
      targets
  in
  let row name pick other =
    {
      objective = name;
      kernels_at_better_occupancy =
        List.length
          (List.filter
             (fun pair ->
               (pick pair).Sched.Cost.rp.Sched.Cost.occupancy
               > (other pair).Sched.Cost.rp.Sched.Cost.occupancy)
             outcomes);
      total_occupancy =
        List.fold_left (fun acc pair -> acc + (pick pair).Sched.Cost.rp.Sched.Cost.occupancy) 0 outcomes;
      total_length =
        List.fold_left (fun acc pair -> acc + (pick pair).Sched.Cost.length) 0 outcomes;
    }
  in
  [ row "two-pass" fst snd; row "weighted-sum" snd fst ]
