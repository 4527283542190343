(* Schedule-quality telemetry: distill each compiled region's report
   into one ledger record — how close the schedule came to the
   critical-path lower bound, whether register pressure met the
   occupancy target, and how fast the colony converged — appended as
   JSONL so a daemon can stream it and `gpuaco report` can summarize a
   corpus after the fact.

   The record is derived from the region report alone (no recompute):
   the gap is the product schedule's length over the region's tight
   length lower bound, the occupancy columns compare the
   achieved APRP-derived occupancy against the target the backend was
   aiming for, and iterations-to-best is the index where the product
   backend's best_costs convergence series first reached its final
   value — Skinderowicz's stagnation signal: a large iterations/
   iters_to_best ratio means the colony idled after converging. *)

type record = {
  q_region : string;
  q_n : int;
  q_backend : string;
  q_rung : string; (* degradation ladder label *)
  q_length : int;
  q_length_lb : int;
  q_gap : int; (* length - length_lb, >= 0 unless degraded *)
  q_occupancy : int;
  q_occ_target : int;
  q_aprp_vgpr : int;
  q_aprp_sgpr : int;
  q_iterations : int; (* both passes of the product run *)
  q_iters_to_best : int;
  q_improved : bool;
}

(* First index where the convergence series reaches its minimum — the
   series records best-so-far per iteration, so this is the iteration
   after which the colony stopped improving. *)
let iters_to_best series =
  let n = Array.length series in
  if n = 0 then 0
  else begin
    let best = ref series.(0) and at = ref 0 in
    for i = 1 to n - 1 do
      if series.(i) < !best then begin
        best := series.(i);
        at := i
      end
    done;
    !at
  end

let of_region (r : Compile.region_report) =
  let product = Compile.product_run r in
  let pres = product.Compile.result in
  let pass1 = pres.Engine.Types.pass1 and pass2 = pres.Engine.Types.pass2 in
  let series =
    if pass2.Engine.Types.invoked && Array.length pass2.Engine.Types.best_costs > 0 then
      pass2.Engine.Types.best_costs
    else pass1.Engine.Types.best_costs
  in
  let cost = r.Compile.aco_cost in
  let rp = cost.Sched.Cost.rp in
  {
    q_region = r.Compile.region_name;
    q_n = r.Compile.n;
    q_backend = r.Compile.product_backend;
    q_rung = Robust.degradation_label r.Compile.degradation;
    q_length = cost.Sched.Cost.length;
    q_length_lb = r.Compile.length_lb;
    q_gap = cost.Sched.Cost.length - r.Compile.length_lb;
    q_occupancy = rp.Sched.Cost.occupancy;
    q_occ_target = pres.Engine.Types.rp_target.Sched.Cost.occupancy;
    q_aprp_vgpr = rp.Sched.Cost.aprp_vgpr;
    q_aprp_sgpr = rp.Sched.Cost.aprp_sgpr;
    q_iterations = pass1.Engine.Types.iterations + pass2.Engine.Types.iterations;
    q_iters_to_best = iters_to_best series;
    q_improved = pass1.Engine.Types.improved || pass2.Engine.Types.improved;
  }

let of_report (report : Compile.suite_report) =
  List.concat_map
    (fun (kr : Compile.kernel_report) -> List.map of_region kr.Compile.regions)
    report.Compile.kernels

(* --- JSONL ---------------------------------------------------------------- *)

let to_json_line q =
  Printf.sprintf
    "{\"region\":\"%s\",\"n\":%d,\"backend\":\"%s\",\"rung\":\"%s\",\"length\":%d,\"length_lb\":%d,\"gap\":%d,\"occupancy\":%d,\"occ_target\":%d,\"aprp_vgpr\":%d,\"aprp_sgpr\":%d,\"iterations\":%d,\"iters_to_best\":%d,\"improved\":%s}"
    (Obs.Trace_check.json_escape q.q_region)
    q.q_n
    (Obs.Trace_check.json_escape q.q_backend)
    (Obs.Trace_check.json_escape q.q_rung)
    q.q_length q.q_length_lb q.q_gap q.q_occupancy q.q_occ_target q.q_aprp_vgpr
    q.q_aprp_sgpr q.q_iterations q.q_iters_to_best
    (if q.q_improved then "true" else "false")

(* Reuses the lint's JSON parser — the repo's one JSON reader. *)
let of_json_line line =
  match Obs.Trace_check.parse_json line with
  | exception Obs.Trace_check.Parse_error _ -> None
  | Obs.Trace_check.Obj fields ->
      let str k =
        match List.assoc_opt k fields with
        | Some (Obs.Trace_check.Str s) -> Some s
        | _ -> None
      in
      let num k =
        match List.assoc_opt k fields with
        | Some (Obs.Trace_check.Num v) -> Some (int_of_float v)
        | _ -> None
      in
      let boolean k =
        match List.assoc_opt k fields with
        | Some (Obs.Trace_check.Bool b) -> Some b
        | _ -> None
      in
      let ( let* ) = Option.bind in
      let* q_region = str "region" in
      let* q_n = num "n" in
      let* q_backend = str "backend" in
      let* q_rung = str "rung" in
      let* q_length = num "length" in
      let* q_length_lb = num "length_lb" in
      let* q_gap = num "gap" in
      let* q_occupancy = num "occupancy" in
      let* q_occ_target = num "occ_target" in
      let* q_aprp_vgpr = num "aprp_vgpr" in
      let* q_aprp_sgpr = num "aprp_sgpr" in
      let* q_iterations = num "iterations" in
      let* q_iters_to_best = num "iters_to_best" in
      let* q_improved = boolean "improved" in
      Some
        {
          q_region;
          q_n;
          q_backend;
          q_rung;
          q_length;
          q_length_lb;
          q_gap;
          q_occupancy;
          q_occ_target;
          q_aprp_vgpr;
          q_aprp_sgpr;
          q_iterations;
          q_iters_to_best;
          q_improved;
        }
  | _ -> None

let append ~file records =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun q ->
          output_string oc (to_json_line q);
          output_char oc '\n')
        records;
      close_out oc)

let load ~file =
  let ic = open_in file in
  let records = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then
            match of_json_line line with
            | Some q -> records := q :: !records
            | None -> () (* malformed lines skip; the ledger is append-only *)
        done;
        assert false
      with End_of_file -> List.rev !records)

(* --- Summary -------------------------------------------------------------- *)

type summary = {
  s_count : int;
  s_clean : int; (* rung = clean *)
  s_at_lb : int; (* gap = 0 *)
  s_mean_gap : float;
  s_mean_gap_ratio : float; (* gap / lb over records with lb > 0 *)
  s_max_gap : int;
  s_max_gap_region : string;
  s_occ_met : int; (* occupancy >= target *)
  s_mean_iterations : float;
  s_mean_iters_to_best : float;
  s_improved : int;
}

let summarize records =
  let count = List.length records in
  let fold f init = List.fold_left f init records in
  let clean = fold (fun a q -> if String.equal q.q_rung "clean" then a + 1 else a) 0 in
  let at_lb = fold (fun a q -> if q.q_gap <= 0 then a + 1 else a) 0 in
  let gap_sum = fold (fun a q -> a + q.q_gap) 0 in
  let ratio_sum, ratio_n =
    fold
      (fun (s, n) q ->
        if q.q_length_lb > 0 then
          (s +. (float_of_int q.q_gap /. float_of_int q.q_length_lb), n + 1)
        else (s, n))
      (0.0, 0)
  in
  let max_gap, max_gap_region =
    fold
      (fun ((g, _) as acc) q -> if q.q_gap > g then (q.q_gap, q.q_region) else acc)
      (min_int, "-")
  in
  let occ_met = fold (fun a q -> if q.q_occupancy >= q.q_occ_target then a + 1 else a) 0 in
  let iter_sum = fold (fun a q -> a + q.q_iterations) 0 in
  let itb_sum = fold (fun a q -> a + q.q_iters_to_best) 0 in
  let improved = fold (fun a q -> if q.q_improved then a + 1 else a) 0 in
  let mean v = if count = 0 then 0.0 else float_of_int v /. float_of_int count in
  {
    s_count = count;
    s_clean = clean;
    s_at_lb = at_lb;
    s_mean_gap = mean gap_sum;
    s_mean_gap_ratio = (if ratio_n = 0 then 0.0 else ratio_sum /. float_of_int ratio_n);
    s_max_gap = (if count = 0 then 0 else max_gap);
    s_max_gap_region = max_gap_region;
    s_occ_met = occ_met;
    s_mean_iterations = mean iter_sum;
    s_mean_iters_to_best = mean itb_sum;
    s_improved = improved;
  }

let summarize_by_backend records =
  let names = List.sort_uniq String.compare (List.map (fun q -> q.q_backend) records) in
  List.map
    (fun b -> (b, summarize (List.filter (fun q -> String.equal q.q_backend b) records)))
    names

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

(* Gap distribution buckets: at-bound, near (1-2 cycles), moderate
   (3-5), far (6+). Coarse on purpose — the split is for spotting a
   backend that ships systematically worse tails, not for plotting. *)
let gap_buckets records =
  let buckets = [| 0; 0; 0; 0 |] in
  List.iter
    (fun q ->
      let k =
        if q.q_gap <= 0 then 0 else if q.q_gap <= 2 then 1 else if q.q_gap <= 5 then 2 else 3
      in
      buckets.(k) <- buckets.(k) + 1)
    records;
  buckets

let render_summary ?(top = 5) records =
  let s = summarize records in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun str -> Buffer.add_string buf (str ^ "\n")) fmt in
  line "SCHEDULE QUALITY — %d region(s)" s.s_count;
  if s.s_count > 0 then begin
    line "  clean compiles        %6d  (%.0f%%)" s.s_clean (pct s.s_clean s.s_count);
    line "  at length lower bound %6d  (%.0f%%)" s.s_at_lb (pct s.s_at_lb s.s_count);
    line "  mean gap              %8.1f cycles  (%.1f%% of lower bound)" s.s_mean_gap
      (100.0 *. s.s_mean_gap_ratio);
    line "  worst gap             %6d  (%s)" s.s_max_gap s.s_max_gap_region;
    line "  occupancy target met  %6d  (%.0f%%)" s.s_occ_met (pct s.s_occ_met s.s_count);
    line "  ACO improved on AMD   %6d  (%.0f%%)" s.s_improved
      (pct s.s_improved s.s_count);
    line "  mean iterations       %8.1f  (%.1f to best — %.0f%% of the budget idles)"
      s.s_mean_iterations s.s_mean_iters_to_best
      (if s.s_mean_iterations > 0.0 then
         100.0
         *. (1.0 -. (s.s_mean_iters_to_best /. Float.max 1.0 s.s_mean_iterations))
       else 0.0);
    let worst =
      List.filteri
        (fun i _ -> i < top)
        (List.stable_sort (fun a b -> compare b.q_gap a.q_gap) records)
    in
    if worst <> [] && top > 0 then begin
      line "  worst regions by gap:";
      List.iter
        (fun q ->
          line "    %-28s n=%-4d gap=%-5d occ %d/%d  %s via %s" q.q_region q.q_n
            q.q_gap q.q_occupancy q.q_occ_target q.q_rung q.q_backend)
        worst
    end;
    (* Per-backend split: only worth printing when the corpus actually
       mixes backends (a race or an auto policy). *)
    let by_backend = summarize_by_backend records in
    if List.length by_backend > 1 then begin
      line "  per backend:";
      List.iter
        (fun (b, bs) ->
          let rs = List.filter (fun q -> String.equal q.q_backend b) records in
          let bk = gap_buckets rs in
          line
            "    %-10s %5d region(s)  gap[0]=%d [1-2]=%d [3-5]=%d [6+]=%d  occ met \
             %.0f%%  mean gap %.1f"
            b bs.s_count bk.(0) bk.(1) bk.(2) bk.(3)
            (pct bs.s_occ_met bs.s_count)
            bs.s_mean_gap)
        by_backend
    end
  end;
  Buffer.contents buf
