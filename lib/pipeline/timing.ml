let frontend_ns_per_benchmark = 0.14e9
let codegen_ns_per_instr = 8_000.0

let heuristic_schedule_ns ~n = float_of_int n *. 2_500.0

type totals = { base_ns : float; seq_ns : float; par_ns : float }

let region_base_ns (r : Compile.region_report) =
  (float_of_int r.Compile.n *. codegen_ns_per_instr) +. heuristic_schedule_ns ~n:r.Compile.n

(* The simulated ACO time [backend] spent on a region the filters keep:
   the passes the product invoked, zero when the backend did not run. *)
let region_aco_ns filters backend (r : Compile.region_report) =
  match Compile.find_run r backend with
  | Some run when Filters.region_kept filters r ->
      (if r.Compile.pass1_invoked then run.Compile.run_pass1_time_ns else 0.0)
      +. if r.Compile.pass2_invoked then run.Compile.run_pass2_time_ns else 0.0
  | Some _ | None -> 0.0

let compile_totals filters (report : Compile.suite_report) =
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (kr : Compile.kernel_report) ->
      Hashtbl.replace by_name kr.Compile.kernel.Workload.Suite.kernel_name kr)
    report.Compile.kernels;
  let base = ref 0.0 and seq = ref 0.0 and par = ref 0.0 in
  List.iter
    (fun (b : Workload.Suite.benchmark) ->
      base := !base +. frontend_ns_per_benchmark;
      match Hashtbl.find_opt by_name b.Workload.Suite.kernel.Workload.Suite.kernel_name with
      | None -> ()
      | Some kr ->
          List.iter
            (fun (r : Compile.region_report) ->
              base := !base +. region_base_ns r;
              seq := !seq +. region_aco_ns filters "seq" r;
              par := !par +. region_aco_ns filters "par" r)
            kr.Compile.regions)
    report.Compile.suite.Workload.Suite.benchmarks;
  { base_ns = !base; seq_ns = !base +. !seq; par_ns = !base +. !par }

let pct_increase base x = (x -. base) /. base *. 100.0
