(* Golden behavioural digests.

   Each case compiles the test-scale suite the way
   [gpuaco compile --suite --backend B] does, under one fixed backend and
   one robustness setting, and compares the report digest with a value
   captured when the tight length bound began gating pass 2 (the
   shipped schedules match the earlier captures in length and
   occupancy; the digests moved with the pass statistics).
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
    ("seq", "258645b8457b34f309651a5ead67ceb2", fun () -> default_report "seq");
    ("par", "5e52dd15eaf36f39924ad217553392a2", fun () -> default_report "par");
    ("weighted", "bef1a2e8d22282f0825fb99e759f3a75", fun () -> default_report "weighted");
    ("mmas", "4c1b8e4dbbbdcf379017517615482931", fun () -> default_report "mmas");
    ("mmas-spill", "56dc64b12aab9741b7c0161de33717ef", fun () -> default_report "mmas-spill");
    ( "seq at fault rate 0.2",
      "258645b8457b34f309651a5ead67ceb2",
      fun () -> compile ~fault_rate:0.2 "seq" );
    ( "par at fault rate 0.2",
      "dddbf8b995b89eb195fefccad3a48da5",
      fun () -> compile ~fault_rate:0.2 "par" );
    ( "seq at a 0.05 ms budget",
      "09c32e2bbc2d538cf843e54c28de3626",
      fun () -> compile ~compile_budget_ms:0.05 "seq" );
    ( "par at a 0.05 ms budget",
      "2942cd9b1a544318e976fc1b0434c349",
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

(* [Weighted_aco.run] on fixed regions whose AMD schedule sits above a
   bound, so the search iterates: the hot region of one suite kernel and
   three generator shapes. Pinned: cost, iterations, work and a digest
   of the order. *)
let suite_region kernel index () =
  let k =
    List.find
      (fun (k : Workload.Suite.kernel) -> k.Workload.Suite.kernel_name = kernel)
      (Lazy.force workload).Workload.Suite.kernels
  in
  List.nth k.Workload.Suite.regions index

let weighted_pins =
  [
    ( "block_gemm_tile_4/r0",
      suite_region "block_gemm_tile_4" 0,
      "occ=6 aprp(v)=40 aprp(s)=80 len=100",
      3,
      1596567,
      "82d9a60c10005cad0e8a088d8e4206f0" );
    ( "reduction items=24",
      (fun () -> Workload.Shapes.reduction (Support.Rng.create 1) ~items:24),
      "occ=9 aprp(v)=28 aprp(s)=80 len=86",
      2,
      556516,
      "e0a4b4c7ef4649a05b22a3b5e2993d5b" );
    ( "matmul_tile m=5 k=4",
      (fun () -> Workload.Shapes.matmul_tile (Support.Rng.create 4) ~m:5 ~k:4),
      "occ=8 aprp(v)=32 aprp(s)=80 len=88",
      4,
      1413947,
      "7dc8696a5d06e7c5d78b91717d5b0ed2" );
    ( "wide_accum accumulators=32 rounds=3",
      (fun () -> Workload.Shapes.wide_accum (Support.Rng.create 1) ~accumulators:32 ~rounds:3),
      "occ=7 aprp(v)=36 aprp(s)=80 len=96",
      2,
      894449,
      "fa7f23a606516773a6e2242f211d0fe8" );
  ]

let test_weighted_run () =
  let config = Pipeline.Compile.make_config () in
  List.iter
    (fun (label, region, cost, iterations, work, order) ->
      let graph = Ddg.Graph.build (region ()) in
      let r =
        Aco.Weighted_aco.run ~params:config.Pipeline.Compile.params
          ~seed:config.Pipeline.Compile.seq_seed config.Pipeline.Compile.occ graph
      in
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
