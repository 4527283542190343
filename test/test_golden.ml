(* Golden behavioural digests.

   Each case compiles the test-scale suite the way
   [gpuaco compile --suite --backend B] does, under one fixed backend and
   one robustness setting, and compares the report digest with a value
   captured from the engine before its colonies shared one constructor.
   Every pass's [minor_words] is zeroed before digesting: allocation is a
   host metric, bounded by the alloc gate, not behaviour. Everything else
   the digest spells out — schedules, costs, convergence series, work,
   simulated time, fault tallies, ledger entries — must match exactly.

   The standalone weighted-sum search feeds the [objective] bench table
   outside the pipeline, so its results are pinned separately. *)

let workload =
  lazy (Workload.Suite.generate { Workload.Suite.test_scale with Workload.Suite.seed = 2024 })

(* One analysis cache for every case: the report is independent of the
   cache, and the suite is analysed once instead of once per case. *)
let cache = lazy (Pipeline.Analysis.create ())

let compile ?(fault_rate = 0.0) ?compile_budget_ms backend =
  let config =
    Pipeline.Compile.make_config ~fault_rate ?compile_budget_ms ~max_retries:2
      ~dispatch:(Engine.Dispatch.Fixed backend) ()
  in
  Pipeline.Compile.run_suite ~cache:(Lazy.force cache)
    { config with Pipeline.Compile.run_sequential = false }
    (Lazy.force workload)

(* Default-setting reports are shared with the seq-prune check below. *)
let reports = Hashtbl.create 8

let default_report backend =
  match Hashtbl.find_opt reports backend with
  | Some r -> r
  | None ->
      let r = compile backend in
      Hashtbl.replace reports backend r;
      r

let scrub_pass (p : Engine.Types.pass_stats) = { p with Engine.Types.minor_words = 0.0 }

let scrub (report : Pipeline.Compile.suite_report) =
  let run (r : Pipeline.Compile.backend_run) =
    let res = r.Pipeline.Compile.result in
    {
      r with
      Pipeline.Compile.result =
        {
          res with
          Engine.Types.pass1 = scrub_pass res.Engine.Types.pass1;
          pass2 = scrub_pass res.Engine.Types.pass2;
        };
    }
  in
  let region (r : Pipeline.Compile.region_report) =
    { r with Pipeline.Compile.runs = List.map run r.Pipeline.Compile.runs }
  in
  let kernel (k : Pipeline.Compile.kernel_report) =
    { k with Pipeline.Compile.regions = List.map region k.Pipeline.Compile.regions }
  in
  { report with Pipeline.Compile.kernels = List.map kernel report.Pipeline.Compile.kernels }

let digest report = Pipeline.Report_digest.digest (scrub report)

(* [invoked] is kept beside [stop] for external readers; the two must
   never disagree. *)
let check_invoked name (report : Pipeline.Compile.suite_report) =
  List.iter
    (fun (k : Pipeline.Compile.kernel_report) ->
      List.iter
        (fun (r : Pipeline.Compile.region_report) ->
          List.iter
            (fun (run : Pipeline.Compile.backend_run) ->
              let res = run.Pipeline.Compile.result in
              List.iter
                (fun (p : Engine.Types.pass_stats) ->
                  if p.Engine.Types.invoked <> (p.Engine.Types.stop <> Engine.Types.Skipped) then
                    Alcotest.failf "%s: %s/%s: invoked disagrees with the stop reason" name
                      r.Pipeline.Compile.region_name run.Pipeline.Compile.backend)
                [ res.Engine.Types.pass1; res.Engine.Types.pass2 ])
            r.Pipeline.Compile.runs)
        k.Pipeline.Compile.regions)
    report.Pipeline.Compile.kernels

let golden name expected report () =
  let report = report () in
  check_invoked name report;
  Alcotest.(check string) (name ^ " behavioural digest") expected (digest report)

let goldens =
  [
    ("seq", "72b13368e74e9276f8b31750f6d8f5b7", fun () -> default_report "seq");
    ("par", "7a6dafa94f5ff3ef76a85b9e2e117e88", fun () -> default_report "par");
    ("weighted", "aac7efabfb9ae39c4b4df6227dc50f2e", fun () -> default_report "weighted");
    ("mmas", "36217f22e3d0fbe9b94f89ef4e66026d", fun () -> default_report "mmas");
    ("mmas-spill", "cfa5870ec7c17b87a591ca7bbceeb7ea", fun () -> default_report "mmas-spill");
    ( "seq at fault rate 0.2",
      "72b13368e74e9276f8b31750f6d8f5b7",
      fun () -> compile ~fault_rate:0.2 "seq" );
    ( "par at fault rate 0.2",
      "0b722ac731759076a48b6f439a0c5cb6",
      fun () -> compile ~fault_rate:0.2 "par" );
    ( "seq at a 0.05 ms budget",
      "b5cb289949ed3f6fbc83bd5ea5a772f0",
      fun () -> compile ~compile_budget_ms:0.05 "seq" );
    ( "par at a 0.05 ms budget",
      "f01cb9cf89a806ffbc8e34581c42f641",
      fun () -> compile ~compile_budget_ms:0.05 "par" );
  ]

(* Min-register pruning is sound-only, so the pruning colony must search
   exactly like the plain one when the pipeline hands both the same
   seed. *)
let test_prune_matches_seq () =
  let regions backend =
    List.concat_map
      (fun (k : Pipeline.Compile.kernel_report) -> k.Pipeline.Compile.regions)
      (default_report backend).Pipeline.Compile.kernels
  in
  List.iter2
    (fun (a : Pipeline.Compile.region_report) (b : Pipeline.Compile.region_report) ->
      let name = a.Pipeline.Compile.region_name in
      Alcotest.(check (array int))
        (name ^ " order") a.Pipeline.Compile.aco_order b.Pipeline.Compile.aco_order;
      let best_costs r =
        (Pipeline.Compile.product_run r).Pipeline.Compile.result.Engine.Types.pass2
          .Engine.Types.best_costs
      in
      Alcotest.(check (array int)) (name ^ " pass-2 best costs") (best_costs a) (best_costs b))
    (regions "seq") (regions "seq-prune")

(* [Weighted_aco.run] on fixed suite regions, keyed by kernel and region
   index: cost, iterations, work and a digest of the order. *)
let weighted_pins =
  [
    ( "device_transform_2",
      0,
      "occ=10 aprp(v)=24 aprp(s)=80 len=112",
      2,
      721503,
      "e251212ac33ee9af7f02781aef3acbb9" );
    ( "device_adjacent_difference_3",
      0,
      "occ=10 aprp(v)=24 aprp(s)=80 len=141",
      3,
      1692371,
      "81904359815d09f66f57b0a26b9f6afe" );
    ( "block_gemm_tile_4",
      0,
      "occ=6 aprp(v)=40 aprp(s)=80 len=100",
      3,
      1596567,
      "82d9a60c10005cad0e8a088d8e4206f0" );
    ( "block_radix_sort_6",
      0,
      "occ=10 aprp(v)=24 aprp(s)=80 len=102",
      2,
      569557,
      "9ec26adcc122cf564cee4c96434ce1bf" );
  ]

let test_weighted_run () =
  let config = Pipeline.Compile.make_config () in
  List.iter
    (fun (kernel, index, cost, iterations, work, order) ->
      let k =
        List.find
          (fun (k : Workload.Suite.kernel) -> k.Workload.Suite.kernel_name = kernel)
          (Lazy.force workload).Workload.Suite.kernels
      in
      let graph = Ddg.Graph.build (List.nth k.Workload.Suite.regions index) in
      let r =
        Aco.Weighted_aco.run ~params:config.Pipeline.Compile.params
          ~seed:config.Pipeline.Compile.seq_seed config.Pipeline.Compile.occ graph
      in
      let label = Printf.sprintf "%s/r%d" kernel index in
      Alcotest.(check string)
        (label ^ " cost") cost
        (Sched.Cost.to_string r.Aco.Weighted_aco.cost);
      Alcotest.(check int) (label ^ " iterations") iterations r.Aco.Weighted_aco.iterations;
      Alcotest.(check int) (label ^ " work") work r.Aco.Weighted_aco.work;
      Alcotest.(check string)
        (label ^ " order") order
        (Digest.to_hex
           (Digest.string
              (String.concat ","
                 (Array.to_list
                    (Array.map string_of_int
                       (Sched.Schedule.order r.Aco.Weighted_aco.schedule)))))))
    weighted_pins

let suite =
  List.map
    (fun (name, expected, report) ->
      Alcotest.test_case ("golden " ^ name) `Quick (golden name expected report))
    goldens
  @ [
      Alcotest.test_case "seq-prune searches like seq" `Quick test_prune_matches_seq;
      Alcotest.test_case "weighted standalone run pinned" `Quick test_weighted_run;
    ]
