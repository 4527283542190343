(* Golden behavioural digests.

   Each suite case compiles the test-scale suite the way
   [gpuaco compile --suite --backend B] does, under one fixed backend and
   one robustness setting, and compares the report digest with a value
   captured when the CPU colony began stopping ants that cannot win their
   iteration (with work, the candidate meters and the modelled pass
   times zeroed, every digest matched the previous captures; the CPU
   backends' digests moved only with those fields). The tight length
   bound leaves one test-scale region open, so each backend also has a
   digest over eight generator shapes every backend searches (the open
   fixture of [Tables.mmas_check_regions]).
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

let scrub_pass (p : Engine.Types.pass_stats) = { p with Engine.Types.minor_words = 0.0 }

let scrub_region (r : Pipeline.Compile.region_report) =
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
  { r with Pipeline.Compile.runs = List.map run r.Pipeline.Compile.runs }

let scrub (report : Pipeline.Compile.suite_report) =
  let kernel (k : Pipeline.Compile.kernel_report) =
    { k with Pipeline.Compile.regions = List.map scrub_region k.Pipeline.Compile.regions }
  in
  { report with Pipeline.Compile.kernels = List.map kernel report.Pipeline.Compile.kernels }

let digest report = Pipeline.Report_digest.digest (scrub report)

let regions_of (report : Pipeline.Compile.suite_report) =
  List.concat_map
    (fun (k : Pipeline.Compile.kernel_report) -> k.Pipeline.Compile.regions)
    report.Pipeline.Compile.kernels

(* [invoked] is kept beside [stop] for external readers; the two must
   never disagree. *)
let check_invoked name regions =
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
    regions

let golden name expected report () =
  let report = report () in
  check_invoked name (regions_of report);
  Alcotest.(check string) (name ^ " behavioural digest") expected (digest report)

let goldens =
  [
    ("seq", "d14c460ef16cb20f8c2c9610280c5d7d", fun () -> compile "seq");
    ("par", "5e52dd15eaf36f39924ad217553392a2", fun () -> compile "par");
    ("weighted", "f955ce3f13c789452f0ed262e01d1b05", fun () -> compile "weighted");
    ("mmas", "f4df0a0cb910f2c2e03f87c69324f5d5", fun () -> compile "mmas");
    ("mmas-spill", "30893df693cce3d5ee7a002e62cfd69a", fun () -> compile "mmas-spill");
    ( "seq at fault rate 0.2",
      "d14c460ef16cb20f8c2c9610280c5d7d",
      fun () -> compile ~fault_rate:0.2 "seq" );
    ( "par at fault rate 0.2",
      "dddbf8b995b89eb195fefccad3a48da5",
      fun () -> compile ~fault_rate:0.2 "par" );
    ( "seq at a 0.05 ms budget",
      "af4a41c347fa5739188c8f7b9b339657",
      fun () -> compile ~compile_budget_ms:0.05 "seq" );
    ( "par at a 0.05 ms budget",
      "2942cd9b1a544318e976fc1b0434c349",
      fun () -> compile ~compile_budget_ms:0.05 "par" );
  ]

(* The open fixture: generator shapes whose heuristic schedule the
   length and RP bounds leave open, so every backend with an RP pass
   searches all eight (pass 1 on the gather tile, pass 2 on the rest);
   the weighted backend, which has no RP pass, searches all but the
   gather tile. Each backend compiles them as the dispatch's only
   candidate; the digest covers every region report in order. *)
let open_regions =
  lazy
    (let rng = Support.Rng.create in
     Workload.Shapes.
       [
         ("reduction/items=24", reduction (rng 1) ~items:24);
         ("stencil/outputs=6,radius=2", stencil (rng 1) ~outputs:6 ~radius:2);
         ("matmul/m=4,k=4", matmul_tile (rng 1) ~m:4 ~k:4);
         ("matmul/m=5,k=4", matmul_tile (rng 4) ~m:5 ~k:4);
         ("sort/items=8", sort_pass (rng 5) ~items:8);
         ("gather/lanes=24,chain=1", gather_compute (rng 1) ~lanes:24 ~chain:1);
         ("wide_accum/accumulators=6,rounds=4", wide_accum (rng 1) ~accumulators:6 ~rounds:4);
         ("wide_accum/accumulators=32,rounds=3", wide_accum (rng 1) ~accumulators:32 ~rounds:3);
       ])

let open_golden backend ~searched expected () =
  let config =
    {
      (Pipeline.Compile.make_config ~dispatch:(Engine.Dispatch.Fixed backend) ()) with
      Pipeline.Compile.run_sequential = false;
    }
  in
  let regions =
    List.map
      (fun (name, region) -> Pipeline.Compile.run_region config ~name region)
      (Lazy.force open_regions)
  in
  let name = backend ^ " on the open fixture" in
  check_invoked name regions;
  Alcotest.(check int) (name ^ ": regions searched") searched
    (List.length
       (List.filter
          (fun (r : Pipeline.Compile.region_report) ->
            r.Pipeline.Compile.pass1_invoked || r.Pipeline.Compile.pass2_invoked)
          regions));
  Alcotest.(check string)
    (name ^ " behavioural digest")
    expected
    (Digest.to_hex
       (Digest.string
          (String.concat ""
             (List.map (fun r -> Pipeline.Report_digest.render_region (scrub_region r)) regions))))

let open_goldens =
  [
    ("seq", 8, "a8fe446537e054c9c9fd532b95ccaaa8");
    ("par", 8, "eb74960196211e52b80a1ff51665337b");
    ("mmas", 8, "d95e365b92b1e00b3420792f8ee370b7");
    ("mmas-spill", 8, "6760966abe637ca93a3b9dd63b396ac9");
    ("weighted", 7, "a1246cb881e12b055caf258b33615445");
  ]

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
      1393666,
      "82d9a60c10005cad0e8a088d8e4206f0" );
    ( "reduction items=24",
      (fun () -> Workload.Shapes.reduction (Support.Rng.create 1) ~items:24),
      "occ=9 aprp(v)=28 aprp(s)=80 len=86",
      2,
      482389,
      "e0a4b4c7ef4649a05b22a3b5e2993d5b" );
    ( "matmul_tile m=5 k=4",
      (fun () -> Workload.Shapes.matmul_tile (Support.Rng.create 4) ~m:5 ~k:4),
      "occ=8 aprp(v)=32 aprp(s)=80 len=88",
      4,
      1226112,
      "7dc8696a5d06e7c5d78b91717d5b0ed2" );
    ( "wide_accum accumulators=32 rounds=3",
      (fun () -> Workload.Shapes.wide_accum (Support.Rng.create 1) ~accumulators:32 ~rounds:3),
      "occ=7 aprp(v)=36 aprp(s)=80 len=96",
      2,
      711858,
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
  @ List.map
      (fun (backend, searched, expected) ->
        Alcotest.test_case
          ("golden " ^ backend ^ " on the open fixture")
          `Quick
          (open_golden backend ~searched expected))
      open_goldens
  @ [
      Alcotest.test_case "weighted standalone run pinned" `Quick test_weighted_run;
    ]
