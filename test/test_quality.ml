(* Schedule-quality telemetry: ledger records derived from compiled
   regions, the JSONL round-trip, corruption tolerance on load, and the
   corpus summary `gpuaco report` renders. *)

let compile_cfg () =
  {
    (Pipeline.Compile.make_config ~gpu:Tu.test_gpu ())
    with
    Pipeline.Compile.params =
      {
        Tu.test_params with
        Engine.Params.ants_per_iteration = Gpusim.Config.threads Tu.test_gpu;
      };
  }

let sample_record i =
  {
    Pipeline.Quality.q_region = Printf.sprintf "k%d/r0" i;
    q_n = 20 + i;
    q_backend = "par";
    q_rung = "clean";
    q_length = 40 + i;
    q_length_lb = 40;
    q_gap = i;
    q_occupancy = 8;
    q_occ_target = 10;
    q_aprp_vgpr = 64;
    q_aprp_sgpr = 32;
    q_iterations = 16;
    q_iters_to_best = 9;
    q_improved = i mod 2 = 0;
  }

let test_iters_to_best () =
  Alcotest.(check int) "empty series" 0 (Pipeline.Quality.iters_to_best [||]);
  Alcotest.(check int) "monotone descent ends at last improvement" 3
    (Pipeline.Quality.iters_to_best [| 9; 7; 7; 5; 5; 5 |]);
  Alcotest.(check int) "flat series converged immediately" 0
    (Pipeline.Quality.iters_to_best [| 4; 4; 4 |]);
  Alcotest.(check int) "first index of the minimum wins" 1
    (Pipeline.Quality.iters_to_best [| 8; 3; 6; 3 |])

let test_of_region () =
  (* 24 instructions whose pass 2 starts above the length bound, so the
     product's search runs *)
  let region = Tu.random_region ~max_size:25 41 in
  let report = Pipeline.Compile.run_region (compile_cfg ()) ~name:"q/r" region in
  let r = Pipeline.Quality.of_region report in
  Alcotest.(check string) "region name" "q/r" r.Pipeline.Quality.q_region;
  Alcotest.(check int) "size" (Ir.Region.size region) r.Pipeline.Quality.q_n;
  Alcotest.(check int) "gap is length - lb"
    (r.Pipeline.Quality.q_length - r.Pipeline.Quality.q_length_lb)
    r.Pipeline.Quality.q_gap;
  Alcotest.(check bool) "lower bound holds" true (r.Pipeline.Quality.q_gap >= 0);
  Alcotest.(check string) "rung from the ledger"
    (Pipeline.Robust.degradation_label report.Pipeline.Compile.degradation)
    r.Pipeline.Quality.q_rung;
  Alcotest.(check bool) "iterations positive" true
    (r.Pipeline.Quality.q_iterations > 0);
  Alcotest.(check bool) "iters_to_best within the run" true
    (r.Pipeline.Quality.q_iters_to_best >= 0
    && r.Pipeline.Quality.q_iters_to_best <= r.Pipeline.Quality.q_iterations)

let test_json_roundtrip () =
  List.iter
    (fun i ->
      let r = sample_record i in
      let line = Pipeline.Quality.to_json_line r in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Pipeline.Quality.of_json_line line with
      | Some r' -> Alcotest.(check bool) "round-trips" true (r = r')
      | None -> Alcotest.failf "round-trip failed on %s" line)
    [ 0; 1; 7 ];
  (* a region name with JSON-hostile bytes survives the trip *)
  let hostile = { (sample_record 0) with Pipeline.Quality.q_region = "k\"0\\r\n1" } in
  (match Pipeline.Quality.of_json_line (Pipeline.Quality.to_json_line hostile) with
  | Some r' ->
      Alcotest.(check string) "escaped name round-trips" "k\"0\\r\n1"
        r'.Pipeline.Quality.q_region
  | None -> Alcotest.fail "hostile name broke the round-trip");
  (* malformed and foreign lines are None, not exceptions *)
  List.iter
    (fun line ->
      match Pipeline.Quality.of_json_line line with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted malformed line %S" line)
    [ ""; "{"; "not json"; "{\"region\": \"x\"}"; "[1,2,3]" ]

let test_ledger_load_skips_torn_lines () =
  let file = Filename.temp_file "quality" ".jsonl" in
  Pipeline.Quality.append ~file [ sample_record 1; sample_record 2 ];
  (* simulate a torn write mid-stream, then keep appending *)
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc "{\"q_region\": \"torn";
  output_string oc "\n";
  close_out oc;
  Pipeline.Quality.append ~file [ sample_record 3 ];
  let records = Pipeline.Quality.load ~file in
  Alcotest.(check int) "torn line skipped, rest kept" 3 (List.length records);
  Alcotest.(check (list string)) "order preserved" [ "k1/r0"; "k2/r0"; "k3/r0" ]
    (List.map (fun r -> r.Pipeline.Quality.q_region) records);
  Sys.remove file

let test_summary () =
  let records = List.map sample_record [ 0; 1; 2; 3 ] in
  let s = Pipeline.Quality.summarize records in
  Alcotest.(check int) "count" 4 s.Pipeline.Quality.s_count;
  Alcotest.(check int) "all clean" 4 s.Pipeline.Quality.s_clean;
  Alcotest.(check int) "regions at the lower bound" 1 s.Pipeline.Quality.s_at_lb;
  Alcotest.(check (float 1e-9)) "mean gap" 1.5 s.Pipeline.Quality.s_mean_gap;
  Alcotest.(check int) "max gap" 3 s.Pipeline.Quality.s_max_gap;
  Alcotest.(check string) "max gap region" "k3/r0" s.Pipeline.Quality.s_max_gap_region;
  Alcotest.(check int) "occupancy target missed everywhere" 0
    s.Pipeline.Quality.s_occ_met;
  Alcotest.(check int) "improved half the corpus" 2 s.Pipeline.Quality.s_improved;
  let text = Pipeline.Quality.render_summary ~top:2 records in
  Alcotest.(check bool) "summary names the corpus size" true
    (String.length text > 0
    &&
    let contains needle =
      let nh = String.length text and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
      go 0
    in
    contains "4 region(s)" && contains "k3/r0");
  (* the empty corpus renders without dividing by zero *)
  let empty = Pipeline.Quality.summarize [] in
  Alcotest.(check int) "empty count" 0 empty.Pipeline.Quality.s_count;
  ignore (Pipeline.Quality.render_summary [])

let test_summary_by_backend () =
  let records =
    List.map sample_record [ 0; 1; 2 ]
    @ List.map
        (fun i -> { (sample_record i) with Pipeline.Quality.q_backend = "mmas" })
        [ 3; 4 ]
  in
  let by_backend = Pipeline.Quality.summarize_by_backend records in
  Alcotest.(check (list string))
    "one summary per backend, sorted" [ "mmas"; "par" ] (List.map fst by_backend);
  let counts = List.map (fun (_, s) -> s.Pipeline.Quality.s_count) by_backend in
  Alcotest.(check (list int)) "records split by backend" [ 2; 3 ] counts;
  let text = Pipeline.Quality.render_summary records in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mixed corpus renders the per-backend split" true
    (contains "per backend:" && contains "mmas" && contains "par");
  (* a single-backend corpus keeps the flat rendering *)
  let flat = Pipeline.Quality.render_summary (List.map sample_record [ 0; 1 ]) in
  let flat_contains needle =
    let nh = String.length flat and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub flat i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no split for one backend" false (flat_contains "per backend:")

(* A ledger append whose flush fails (/dev/full fails every write)
   raises a plain [Sys_error], the exception the serve daemon counts as
   [serve.quality.write_failed] and the CLI reports in one line. *)
let test_append_reports_a_full_disk () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  match Pipeline.Quality.append ~file:"/dev/full" [ sample_record 0 ] with
  | () -> Alcotest.fail "an append to a full disk succeeded"
  | exception Sys_error _ -> ()

let suite =
  [
    Alcotest.test_case "iters_to_best" `Quick test_iters_to_best;
    Alcotest.test_case "record derived from a compiled region" `Quick test_of_region;
    Alcotest.test_case "JSONL round-trip and malformed lines" `Quick
      test_json_roundtrip;
    Alcotest.test_case "ledger load skips torn lines" `Quick
      test_ledger_load_skips_torn_lines;
    Alcotest.test_case "corpus summary" `Quick test_summary;
    Alcotest.test_case "per-backend summary split" `Quick test_summary_by_backend;
    Alcotest.test_case "an append to a full disk raises Sys_error" `Quick
      test_append_reports_a_full_disk;
  ]
