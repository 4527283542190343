(* The compile-service benchmark and its CI gate.

   [run] times the same suite compile four ways — cold cache, warm
   cache, cache off, and multi-domain — checks that all four reports
   agree canonically, sweeps a skewed suite over jobs 1/2/4 (the
   [scaling] series of BENCH_compile.json), and writes the file.
   [scaling_gate] asserts the multi-domain executor actually wins on
   multicore hosts (and at least does no harm on small ones). The
   once-per-distinct-region analysis and the cache hit rate are
   test_exec's "analysis runs once per distinct region". *)

type row = {
  label : string;
  wall_s : float;
  stats : Pipeline.Analysis.stats option;
  digest : string;
}

let default_jobs =
  let d = Domain.recommended_domain_count () in
  if d >= 4 then 4 else max 2 d

(* The compile work itself is identical across rows; keep it modest so
   the benchmark is about analysis and orchestration, not ACO search. *)
let config () =
  let c = Pipeline.Compile.make_config ~gpu:Gpusim.Config.bench () in
  { c with Pipeline.Compile.run_sequential = false }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let compile_row ~label ~jobs ~cache config suite =
  let wall_s, report =
    timed (fun () -> Pipeline.Executor.run_suite ~jobs ?cache config suite)
  in
  {
    label;
    wall_s;
    stats = Option.map Pipeline.Analysis.stats cache;
    digest = Pipeline.Report_digest.digest report;
  }

(* Minor words [Engine.Region_ctx.of_region] allocates per region over
   the 39 regions of the test-scale suite (DDG build included): the
   deterministic analysis series [bench check] holds. *)
let analysis_words_per_region () =
  let regions =
    List.concat_map
      (fun (k : Workload.Suite.kernel) -> k.Workload.Suite.regions)
      (Workload.Suite.generate Workload.Suite.test_scale).Workload.Suite.kernels
  in
  let before = Gc.minor_words () in
  List.iter
    (fun region ->
      ignore (Sys.opaque_identity (Engine.Region_ctx.of_region Machine.Occupancy.default region)))
    regions;
  (Gc.minor_words () -. before) /. float_of_int (List.length regions)

let write_json ~file ~jobs rows ~scaling =
  let oc = open_out file in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"jobs\": ";
  Buffer.add_string buf (string_of_int jobs);
  Buffer.add_string buf
    (Printf.sprintf ",\n  \"analysis\": {\"minor_words_per_region\": %.1f}"
       (analysis_words_per_region ()));
  Buffer.add_string buf ",\n  \"rows\": [\n";
  let cold = (List.hd rows).wall_s in
  List.iteri
    (fun i r ->
      let stats_json =
        match r.stats with
        | None -> "null"
        | Some s ->
            Printf.sprintf
              "{\"hits\": %d, \"misses\": %d, \"evictions\": %d, \"hit_rate\": %.3f}"
              s.Pipeline.Analysis.hits s.Pipeline.Analysis.misses
              s.Pipeline.Analysis.evictions
              (Pipeline.Analysis.hit_rate s)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"wall_s\": %.4f, \"speedup_vs_cold\": %s, \"cache\": %s, \
            \"digest\": %S}%s\n"
           r.label r.wall_s
           (if r.wall_s > 0.0 then Printf.sprintf "%.2f" (cold /. r.wall_s) else "null")
           stats_json r.digest
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n  \"scaling\": [\n";
  let base = match scaling with r :: _ -> r.wall_s | [] -> 0.0 in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"wall_s\": %.4f, \"speedup_vs_jobs1\": %s, \"digest\": \
            %S}%s\n"
           r.label r.wall_s
           (if r.wall_s > 0.0 then Printf.sprintf "%.2f" (base /. r.wall_s) else "null")
           r.digest
           (if i = List.length scaling - 1 then "" else ",")))
    scaling;
  Buffer.add_string buf "  ]\n}\n";
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.eprintf "# wrote %s\n%!" file

let run ~small () =
  let scale = if small then Workload.Suite.test_scale else Workload.Suite.bench_scale in
  (* Two copies of every kernel: the duplicate-heavy workload the cache
     exists for (shared kernels and template instantiations). *)
  let suite = Workload.Suite.replicate ~copies:2 (Workload.Suite.generate scale) in
  let config = config () in
  let jobs = default_jobs in
  let warm_cache = Pipeline.Analysis.create () in
  (* Bind each row in sequence: the warm row must reuse the cache the
     cold row just filled (a list literal would evaluate right to left). *)
  let cold =
    compile_row ~label:"compile/cold-cache" ~jobs:1 ~cache:(Some warm_cache) config suite
  in
  let warm =
    compile_row ~label:"compile/warm-cache" ~jobs:1 ~cache:(Some warm_cache) config suite
  in
  let off = compile_row ~label:"compile/cache-off" ~jobs:1 ~cache:None config suite in
  let fanned =
    compile_row
      ~label:(Printf.sprintf "compile/jobs-%d" jobs)
      ~jobs
      ~cache:(Some (Pipeline.Analysis.create ()))
      config suite
  in
  let rows = [ cold; warm; off; fanned ] in
  let reference = (List.hd rows).digest in
  List.iter
    (fun r ->
      if not (String.equal r.digest reference) then begin
        Printf.eprintf "compile bench: FAIL — %s diverged from cold-cache report\n"
          r.label;
        exit 1
      end)
    rows;
  print_string "COMPILE SERVICE — COLD/WARM CACHE AND MULTI-DOMAIN WALL CLOCK\n";
  List.iter
    (fun r ->
      Printf.printf "  %-22s %8.3f s%s\n" r.label r.wall_s
        (match r.stats with
        | None -> ""
        | Some s ->
            Printf.sprintf "  (%d hits / %d misses, %.0f%% hit rate)"
              s.Pipeline.Analysis.hits s.Pipeline.Analysis.misses
              (100.0 *. Pipeline.Analysis.hit_rate s)))
    rows;
  Printf.printf "  reports: canonically identical across all %d configurations\n\n"
    (List.length rows);
  (* Jobs sweep on the skewed suite — the workload the executor's
     largest-first claim order exists for. Fresh cache per row so every
     row pays the same analysis bill. *)
  let skew =
    if small then Workload.Suite.skewed ~giants:2 ~tiny:16 ()
    else Workload.Suite.skewed ()
  in
  let scaling =
    List.map
      (fun jobs ->
        compile_row
          ~label:(Printf.sprintf "scaling/jobs-%d" jobs)
          ~jobs
          ~cache:(Some (Pipeline.Analysis.create ()))
          config skew)
      [ 1; 2; 4 ]
  in
  let sref = (List.hd scaling).digest in
  List.iter
    (fun r ->
      if not (String.equal r.digest sref) then begin
        Printf.eprintf "compile bench: FAIL — %s diverged from jobs-1 report\n" r.label;
        exit 1
      end)
    scaling;
  print_string "COMPILE SERVICE — JOBS SWEEP (SKEWED SUITE)\n";
  let base = (List.hd scaling).wall_s in
  List.iter
    (fun r ->
      Printf.printf "  %-22s %8.3f s  (%.2fx vs jobs-1)\n" r.label r.wall_s
        (if r.wall_s > 0.0 then base /. r.wall_s else 0.0))
    scaling;
  Printf.printf "  reports: byte-identical digests across the sweep\n\n";
  write_json ~file:"BENCH_compile.json" ~jobs rows ~scaling

(* CI gate: the parallel executor must pay for itself. On a >= 4-core
   host, jobs-4 must beat jobs-1 by 1.5x on the skewed suite; on 2-3
   cores it must at least break even; on a single core it may cost at
   most 10% (the parallel branch's claim and join overhead, with
   every job on the calling domain). Trials interleave jobs-1 and jobs-4
   (three each, best per side) so wall-clock drift on a shared runner
   hits both sides alike; digests must match in every trial. *)
let scaling_gate () =
  let cores = Domain.recommended_domain_count () in
  let threshold = if cores >= 4 then 1.5 else if cores >= 2 then 1.0 else 0.9 in
  let suite = Workload.Suite.skewed ~giants:2 ~tiny:24 () in
  let config = config () in
  let one ~jobs =
    compile_row
      ~label:(Printf.sprintf "scaling-gate/jobs-%d" jobs)
      ~jobs
      ~cache:(Some (Pipeline.Analysis.create ()))
      config suite
  in
  let best rows =
    let r = List.hd rows in
    List.iter
      (fun (r' : row) ->
        if not (String.equal r'.digest r.digest) then begin
          Printf.eprintf "scaling-gate: FAIL — %s digest unstable across trials\n"
            r'.label;
          exit 1
        end)
      rows;
    List.fold_left (fun acc (r' : row) -> if r'.wall_s < acc.wall_s then r' else acc) r rows
  in
  let trials =
    List.init 3 (fun _ ->
        let s = one ~jobs:1 in
        let p = one ~jobs:4 in
        (s, p))
  in
  let seq = best (List.map fst trials) in
  let par = best (List.map snd trials) in
  if not (String.equal seq.digest par.digest) then begin
    Printf.eprintf "scaling-gate: FAIL — jobs-4 report diverged from jobs-1\n";
    exit 1
  end;
  let speedup = if par.wall_s > 0.0 then seq.wall_s /. par.wall_s else 0.0 in
  Printf.printf
    "scaling-gate: %d cores, jobs-1 %.3f s, jobs-4 %.3f s, speedup %.2fx (floor %.2fx), \
     digests identical\n"
    cores seq.wall_s par.wall_s speedup threshold;
  if speedup < threshold then begin
    Printf.eprintf "scaling-gate: FAIL — speedup %.2fx below the %.2fx floor\n" speedup
      threshold;
    exit 1
  end;
  print_endline "scaling-gate: OK"
