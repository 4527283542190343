(* The batched-arena refactor's safety net.

   1. Unit tests of [Support.Arena] (bump offsets, exact capacities,
      exhaustion).
   2. qcheck differential: the arena-backed [Aco.Ant] stepped through
      [step_hot] must be byte-identical to [Ant_ref] (the original
      list-based implementation) on random regions — same events, same
      RNG consumption, same constructed order — across both passes,
      heuristics, forced exploration modes, ready-list limits and
      mid-construction kills.
   3. qcheck differential at the wavefront level: a reference lockstep
      loop built from [Ant_ref] and the retained list-level cost models
      must reproduce [Gpusim.Wavefront.run_iteration] exactly, including
      under nonzero injected-fault rates (twin [Faults] instances with
      equal seeds replay the same fault stream). *)

let arena_offsets () =
  let a = Support.Arena.create ~ints:10 ~floats:4 in
  Alcotest.(check int) "first int base" 0 (Support.Arena.alloc_ints a 6);
  Alcotest.(check int) "second int base" 6 (Support.Arena.alloc_ints a 4);
  Alcotest.(check int) "ints used" 10 (Support.Arena.int_used a);
  Alcotest.(check int) "first float base" 0 (Support.Arena.alloc_floats a 4);
  Alcotest.(check int) "floats used" 4 (Support.Arena.float_used a);
  Alcotest.(check int) "int capacity" 10 (Support.Arena.int_capacity a);
  Alcotest.(check int) "float capacity" 4 (Support.Arena.float_capacity a);
  Alcotest.(check bool) "zero-filled ints" true
    (Array.for_all (fun x -> x = 0) (Support.Arena.ints a));
  Alcotest.(check bool) "zero-filled floats" true
    (Array.for_all (fun x -> x = 0.0) (Support.Arena.floats a))

let arena_exhaustion () =
  let a = Support.Arena.create ~ints:4 ~floats:2 in
  let _ = Support.Arena.alloc_ints a 3 in
  Alcotest.(check bool) "int overflow raises" true
    (try
       ignore (Support.Arena.alloc_ints a 2);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "float overflow raises" true
    (try
       ignore (Support.Arena.alloc_floats a 3);
       false
     with Invalid_argument _ -> true);
  (* a fitting request still succeeds after a refused one *)
  Alcotest.(check int) "remaining int" 3 (Support.Arena.alloc_ints a 1)

(* --- single-ant differential -------------------------------------------- *)

let rank_name = function
  | 0 -> "exploit"
  | 1 -> "explore"
  | 2 -> "mandatory-stall"
  | 3 -> "optional-stall"
  | _ -> "death"

(* Step the arena ant and the reference ant in lockstep with twin RNGs
   and assert every observable agrees. [kill_at] kills both mid-flight
   (the wavefront quarantine path); [initial] = 0.0 exercises the
   degenerate roulette. *)
let lockstep_compare ?(initial = 1.0) ?kill_at ~force_explore ~ready_limit ~mode ~heuristic
    graph params seed =
  let shared = Aco.Ant.prepare_shared ~beta:params.Engine.Params.beta graph in
  let ints, floats = Aco.Ant.arena_demand shared in
  let arena = Support.Arena.create ~ints ~floats in
  let ant = Aco.Ant.create ~shared ~arena graph params in
  let ant_ref = Ant_ref.create graph params in
  let n = graph.Ddg.Graph.n in
  let pheromone = Aco.Pheromone.create ~n ~initial in
  (* a non-uniform trail so the wheel has structure *)
  if initial > 0.0 then Aco.Pheromone.deposit_path pheromone (Ddg.Topo.order graph) 0.75;
  let rng_a = Support.Rng.create seed and rng_b = Support.Rng.create seed in
  Aco.Ant.start ant ~rng:rng_a ~heuristic ~allow_optional_stalls:true mode;
  Ant_ref.start ant_ref ~rng:rng_b ~heuristic ~allow_optional_stalls:true mode;
  let steps = ref 0 in
  while Aco.Ant.status ant = Aco.Ant.Active do
    incr steps;
    if kill_at = Some !steps then begin
      Aco.Ant.kill ant;
      Ant_ref.kill ant_ref
    end
    else begin
      let fe = match force_explore with None -> -1 | Some true -> 1 | Some false -> 0 in
      let rl = match ready_limit with None -> 0 | Some k -> k in
      Aco.Ant.step_hot ant ~pheromone ~force_explore:fe ~ready_limit:rl;
      let ev = Ant_ref.step ?force_explore ?ready_limit ant_ref ~pheromone in
      let rank = Aco.Ant.last_rank ant and ref_rank = Ant_ref.rank_of_op ev.Ant_ref.op in
      if rank <> ref_rank then
        Alcotest.failf "step %d: rank %s (arena) vs %s (ref)" !steps (rank_name rank)
          (rank_name ref_rank);
      Alcotest.(check int) "ready_scanned" ev.Ant_ref.ready_scanned (Aco.Ant.last_scanned ant);
      Alcotest.(check int) "succs_updated" ev.Ant_ref.succs_updated (Aco.Ant.last_succs ant)
    end;
    Alcotest.(check bool) "status agrees" true
      (Aco.Ant.status ant = Ant_ref.status ant_ref);
    Alcotest.(check int) "ready_count agrees" (Ant_ref.ready_count ant_ref)
      (Aco.Ant.ready_count ant)
  done;
  Alcotest.(check bool) "final status agrees" true
    (Aco.Ant.status ant = Ant_ref.status ant_ref);
  Alcotest.(check (array int)) "order" (Ant_ref.order ant_ref) (Aco.Ant.order ant);
  Alcotest.(check int) "length" (Ant_ref.length ant_ref) (Aco.Ant.length ant);
  Alcotest.(check int) "optional stalls" (Ant_ref.optional_stalls ant_ref)
    (Aco.Ant.optional_stalls ant);
  Alcotest.(check int) "work" (Ant_ref.work ant_ref) (Aco.Ant.work ant);
  let pv, ps = Aco.Ant.rp_peaks ant and rv, rs = Ant_ref.rp_peaks ant_ref in
  Alcotest.(check (pair int int)) "rp peaks" (rv, rs) (pv, ps);
  (* the two RNGs must have consumed the same number of draws *)
  Alcotest.(check int64) "rng stream position" (Support.Rng.int64 rng_b)
    (Support.Rng.int64 rng_a)

let tight_targets graph =
  (* targets at the heuristic schedule's peaks force the stall/death
     machinery to fire on most regions *)
  let s = Sched.List_scheduler.run graph Sched.Heuristic.Critical_path in
  let peaks = Sched.Rp_tracker.naive_peaks graph (Sched.Schedule.order s) in
  Aco.Ant.Ilp_pass
    { target_vgpr = max 1 (peaks Ir.Reg.Vgpr - 1); target_sgpr = max 1 (peaks Ir.Reg.Sgpr) }

let ant_differential =
  QCheck.Test.make ~count:25 ~name:"arena ant byte-identical to seed reference"
    (QCheck.pair (Tu.arb_graph ~max_size:30 ()) QCheck.small_int)
    (fun (graph, seed) ->
      let params = Tu.test_params in
      let modes =
        [
          Aco.Ant.Rp_pass;
          Aco.Ant.Ilp_pass { target_vgpr = 256; target_sgpr = 800 };
          tight_targets graph;
        ]
      in
      let heuristics =
        [ Sched.Heuristic.Critical_path; Sched.Heuristic.Last_use_count;
          Sched.Heuristic.Source_order ]
      in
      List.iter
        (fun mode ->
          List.iter
            (fun heuristic ->
              lockstep_compare ~force_explore:None ~ready_limit:None ~mode ~heuristic graph
                params seed;
              lockstep_compare ~force_explore:(Some true) ~ready_limit:(Some 2) ~mode
                ~heuristic graph params (seed + 1);
              lockstep_compare ~force_explore:(Some false) ~ready_limit:None ~mode ~heuristic
                graph params (seed + 2);
              lockstep_compare ~kill_at:(1 + (seed mod 11)) ~force_explore:None
                ~ready_limit:None ~mode ~heuristic graph params (seed + 3))
            heuristics)
        modes;
      (* degenerate roulette: zero trail everywhere, always explore *)
      lockstep_compare ~initial:0.0 ~force_explore:(Some true) ~ready_limit:None
        ~mode:Aco.Ant.Rp_pass ~heuristic:Sched.Heuristic.Critical_path graph params seed;
      true)

(* --- colony-wide eta^beta rows ------------------------------------------- *)

(* Ants carved from one colony — one [shared], one arena, one score
   matrix — each on its own heuristic, stepped round-robin against
   reference ants with twin RNGs. The standalone differential above
   gives every ant a private table; here the lanes read one set of
   eta^beta rows, so a lane writing through them, or a row read for the
   wrong heuristic, shows up as a diverging step. *)
let shared_colony_lockstep ~mode graph params seed =
  let heuristics =
    [| Sched.Heuristic.Critical_path; Sched.Heuristic.Last_use_count;
       Sched.Heuristic.Source_order; Sched.Heuristic.Critical_path |]
  in
  let lanes = Array.length heuristics in
  let shared = Aco.Ant.prepare_shared ~beta:params.Engine.Params.beta graph in
  let ints, floats = Aco.Ant.arena_demand shared in
  let rows, cols = Aco.Ant.fmat_demand shared in
  let arena = Support.Arena.create ~ints:(lanes * ints) ~floats:(lanes * floats) in
  let fmat = Support.Fmat.create ~rows:(lanes * rows) ~cols in
  let ants =
    Array.init lanes (fun lane ->
        Aco.Ant.create ~shared ~arena ~fmat:(fmat, lane * rows) graph params)
  in
  let refs = Array.init lanes (fun _ -> Ant_ref.create graph params) in
  let pheromone = Aco.Pheromone.create ~n:graph.Ddg.Graph.n ~initial:1.0 in
  Aco.Pheromone.deposit_path pheromone (Ddg.Topo.order graph) 0.75;
  let rngs = Array.init lanes (fun lane -> Support.Rng.create (seed + lane)) in
  let ref_rngs = Array.init lanes (fun lane -> Support.Rng.create (seed + lane)) in
  Array.iteri
    (fun lane heuristic ->
      Aco.Ant.start ants.(lane) ~rng:rngs.(lane) ~heuristic ~allow_optional_stalls:true mode;
      Ant_ref.start refs.(lane) ~rng:ref_rngs.(lane) ~heuristic ~allow_optional_stalls:true
        mode)
    heuristics;
  while Array.exists (fun a -> Aco.Ant.status a = Aco.Ant.Active) ants do
    Array.iteri
      (fun lane ant ->
        if Aco.Ant.status ant = Aco.Ant.Active then begin
          Aco.Ant.step_hot ant ~pheromone ~force_explore:(-1) ~ready_limit:0;
          let ev = Ant_ref.step refs.(lane) ~pheromone in
          Alcotest.(check string)
            (Printf.sprintf "lane %d step" lane)
            (rank_name (Ant_ref.rank_of_op ev.Ant_ref.op))
            (rank_name (Aco.Ant.last_rank ant));
          Alcotest.(check int) "ready_scanned" ev.Ant_ref.ready_scanned
            (Aco.Ant.last_scanned ant)
        end)
      ants
  done;
  Array.iteri
    (fun lane ant ->
      let r = refs.(lane) in
      Alcotest.(check bool) "final status agrees" true
        (Aco.Ant.status ant = Ant_ref.status r);
      Alcotest.(check (array int)) "order" (Ant_ref.order r) (Aco.Ant.order ant);
      Alcotest.(check int) "length" (Ant_ref.length r) (Aco.Ant.length ant);
      Alcotest.(check int) "work" (Ant_ref.work r) (Aco.Ant.work ant);
      Alcotest.(check (pair int int)) "rp peaks" (Ant_ref.rp_peaks r) (Aco.Ant.rp_peaks ant);
      Alcotest.(check int64) "rng stream position" (Support.Rng.int64 ref_rngs.(lane))
        (Support.Rng.int64 rngs.(lane)))
    ants

let shared_eta_differential =
  QCheck.Test.make ~count:20 ~name:"colony-shared eta^beta rows byte-identical to reference"
    (QCheck.pair (Tu.arb_graph ~max_size:30 ()) QCheck.small_int)
    (fun (graph, seed) ->
      List.iter
        (fun mode -> shared_colony_lockstep ~mode graph Tu.test_params seed)
        [
          Aco.Ant.Rp_pass;
          Aco.Ant.Ilp_pass { target_vgpr = 256; target_sgpr = 800 };
          tight_targets graph;
        ];
      true)

(* The rows are raised to the colony's beta once, so an ant whose params
   carry another beta must not read them — just as it must not read
   another graph's. *)
let shared_mismatch () =
  let graph = Ddg.Graph.build (Tu.random_region 5) in
  let params = Tu.test_params in
  let rejects what shared =
    match Aco.Ant.create ~shared graph params with
    | _ -> Alcotest.failf "Ant.create accepted a shared state for %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "another beta"
    (Aco.Ant.prepare_shared ~beta:(params.Engine.Params.beta +. 1.0) graph);
  rejects "another graph"
    (Aco.Ant.prepare_shared ~beta:params.Engine.Params.beta
       (Ddg.Graph.build (Tu.random_region 6)));
  ignore
    (Aco.Ant.create
       ~shared:(Aco.Ant.prepare_shared ~beta:params.Engine.Params.beta graph)
       graph params)

(* --- wavefront-level differential --------------------------------------- *)

type ref_outcome = {
  r_time_ns : float;
  r_work : int;
  r_serialized : int;
  r_single : int;
  r_steps : int;
  r_ant_steps : int;
  r_selections : int;
  r_orders : int array list;
  r_hung : bool;
  r_quarantined : int;
  r_mem_faults : int;
}

(* Reference lockstep loop: [Gpusim.Wavefront.run_iteration] re-derived
   from [Ant_ref] and the list-level cost models, consuming [rng] and
   [faults] in exactly the production order (hang coin, lane seed
   splits, fault schedule, one exploration coin per step, one mem-fault
   coin per step with transactions). *)
let ref_run_iteration config ~faults ~ants ~rng ~mode ~pheromone ~heuristic =
  let opts = config.Gpusim.Config.opts in
  if Gpusim.Faults.enabled faults && Gpusim.Faults.wavefront_hang faults then
    {
      r_time_ns = Gpusim.Faults.hang_penalty_ns;
      r_work = 0;
      r_serialized = 0;
      r_single = 0;
      r_steps = 0;
      r_ant_steps = 0;
      r_selections = 0;
      r_orders = [];
      r_hung = true;
      r_quarantined = 0;
      r_mem_faults = 0;
    }
  else begin
    Array.iter
      (fun a ->
        Ant_ref.start a ~rng:(Support.Rng.split rng) ~heuristic ~allow_optional_stalls:true
          mode)
      ants;
    let lanes = Array.length ants in
    let faults_on = Gpusim.Faults.enabled faults in
    let fault_at = Array.make lanes (-1) in
    if faults_on then begin
      let n = Aco.Pheromone.size pheromone in
      for i = 0 to lanes - 1 do
        fault_at.(i) <-
          (if Gpusim.Faults.lane_fault faults then
             1 + Gpusim.Faults.pick faults (max 1 n)
           else -1)
      done
    end;
    let quarantined = ref 0 and mem_faults = ref 0 in
    let time = ref 0.0 and serialized = ref 0 and single = ref 0 in
    let steps = ref 0 and ant_steps = ref 0 and selections = ref 0 in
    let any_active () =
      Array.exists (fun a -> Ant_ref.status a = Aco.Ant.Active) ants
    in
    while any_active () do
      incr steps;
      if faults_on then
        Array.iteri
          (fun i a ->
            if fault_at.(i) = !steps && Ant_ref.status a = Aco.Ant.Active then begin
              Ant_ref.kill a;
              incr quarantined
            end)
          ants;
      let force_explore =
        if opts.Gpusim.Config.wavefront_level_explore then
          Some (not (Support.Rng.bool rng Tu.test_params.Engine.Params.q0))
        else None
      in
      let ready_limit =
        match opts.Gpusim.Config.ready_list_limiting with
        | `Off -> None
        | (`Min | `Mid) as m ->
            let mn = ref max_int and mx = ref 0 in
            Array.iter
              (fun a ->
                if Ant_ref.status a = Aco.Ant.Active then begin
                  let c = Ant_ref.ready_count a in
                  if c < !mn then mn := c;
                  if c > !mx then mx := c
                end)
              ants;
            if !mn = max_int then None
            else Some (max 1 (match m with `Min -> !mn | `Mid -> (!mn + !mx + 1) / 2))
      in
      let events = ref [] in
      Array.iter
        (fun a ->
          if Ant_ref.status a = Aco.Ant.Active then begin
            let ev = Ant_ref.step ?force_explore ?ready_limit a ~pheromone in
            if Ant_ref.rank_of_op ev.Ant_ref.op <= 1 then incr selections;
            events :=
              {
                Aco.Ant.op =
                  (match ev.Ant_ref.op with
                  | Ant_ref.Selected { instr; explored } ->
                      Aco.Ant.Selected { instr; explored }
                  | Ant_ref.Mandatory_stall -> Aco.Ant.Mandatory_stall
                  | Ant_ref.Optional_stall -> Aco.Ant.Optional_stall
                  | Ant_ref.Died -> Aco.Ant.Died);
                ready_scanned = ev.Ant_ref.ready_scanned;
                succs_updated = ev.Ant_ref.succs_updated;
              }
              :: !events
          end)
        ants;
      let events = List.rev !events in
      ant_steps := !ant_steps + List.length events;
      let charge = Gpusim.Divergence.step_charge events in
      let transactions =
        Gpusim.Mem_model.step_transactions config
          ~reads_per_lane:(List.map Gpusim.Divergence.lane_reads events)
      in
      let transactions =
        if faults_on && transactions > 0 && Gpusim.Faults.mem_fault faults then begin
          incr mem_faults;
          2 * transactions
        end
        else transactions
      in
      time :=
        !time
        +. (float_of_int charge.Gpusim.Divergence.serialized_ops
           *. config.Gpusim.Config.gpu_ns_per_op)
        +. (float_of_int transactions *. config.Gpusim.Config.mem_transaction_ns);
      serialized := !serialized + charge.Gpusim.Divergence.serialized_ops;
      single := !single + charge.Gpusim.Divergence.max_single_path_ops;
      if
        opts.Gpusim.Config.early_wavefront_termination
        && Array.exists (fun a -> Ant_ref.status a = Aco.Ant.Finished) ants
      then
        Array.iter
          (fun a -> if Ant_ref.status a = Aco.Ant.Active then Ant_ref.kill a)
          ants
    done;
    let work = Array.fold_left (fun acc a -> acc + Ant_ref.work a) 0 ants in
    let orders =
      Array.fold_left
        (fun acc a -> if Ant_ref.status a = Aco.Ant.Finished then Ant_ref.order a :: acc else acc)
        [] ants
      |> List.rev
    in
    {
      r_time_ns = !time;
      r_work = work;
      r_serialized = !serialized;
      r_single = !single;
      r_steps = !steps;
      r_ant_steps = !ant_steps;
      r_selections = !selections;
      r_orders = orders;
      r_hung = false;
      r_quarantined = !quarantined;
      r_mem_faults = !mem_faults;
    }
  end

let wavefront_differential =
  QCheck.Test.make ~count:12 ~name:"wavefront iteration matches reference loop (with faults)"
    (QCheck.pair (Tu.arb_graph ~max_size:25 ()) QCheck.small_int)
    (fun (graph, seed) ->
      let params = Tu.test_params in
      let config = Tu.test_gpu in
      let w =
        Gpusim.Wavefront.create config graph params
          ~heuristic:Sched.Heuristic.Critical_path ~allow_optional_stalls:true
      in
      let lanes = Gpusim.Wavefront.lanes w in
      let ref_ants = Array.init lanes (fun _ -> Ant_ref.create graph params) in
      let pheromone = Aco.Pheromone.create ~n:graph.Ddg.Graph.n ~initial:1.0 in
      Aco.Pheromone.deposit_path pheromone (Ddg.Topo.order graph) 0.5;
      List.iter
        (fun (fault_rate, mode) ->
          let mk_faults () =
            if fault_rate = 0.0 then Gpusim.Faults.disabled
            else
              Gpusim.Faults.create ~seed:(seed + 17)
                (Gpusim.Config.uniform_faults fault_rate)
          in
          let rng_a = Support.Rng.create seed and rng_b = Support.Rng.create seed in
          let o =
            Gpusim.Wavefront.run_iteration ~faults:(mk_faults ()) w ~rng:rng_a ~mode
              ~pheromone
          in
          let r =
            ref_run_iteration config ~faults:(mk_faults ()) ~ants:ref_ants ~rng:rng_b
              ~mode ~pheromone ~heuristic:Sched.Heuristic.Critical_path
          in
          Alcotest.(check bool) "hung" r.r_hung o.Gpusim.Wavefront.hung;
          Alcotest.(check int) "steps" r.r_steps o.Gpusim.Wavefront.steps;
          Alcotest.(check int) "ant_steps" r.r_ant_steps o.Gpusim.Wavefront.ant_steps;
          Alcotest.(check int) "selections" r.r_selections o.Gpusim.Wavefront.selections;
          Alcotest.(check int) "serialized" r.r_serialized
            o.Gpusim.Wavefront.serialized_ops;
          Alcotest.(check int) "single-path" r.r_single
            o.Gpusim.Wavefront.single_path_ops;
          Alcotest.(check int) "work" r.r_work o.Gpusim.Wavefront.work;
          Alcotest.(check int) "quarantined" r.r_quarantined
            o.Gpusim.Wavefront.quarantined;
          Alcotest.(check int) "mem faults" r.r_mem_faults o.Gpusim.Wavefront.mem_faults;
          Alcotest.(check (float 0.0)) "time bit-identical" r.r_time_ns
            o.Gpusim.Wavefront.time_ns;
          let orders = List.map Aco.Ant.order o.Gpusim.Wavefront.finished in
          Alcotest.(check (list (array int))) "finished orders" r.r_orders orders)
        [
          (0.0, Aco.Ant.Rp_pass);
          (0.0, Aco.Ant.Ilp_pass { target_vgpr = 256; target_sgpr = 800 });
          (0.15, Aco.Ant.Rp_pass);
          (0.15, tight_targets graph);
        ];
      true)

let wavefront_determinism =
  QCheck.Test.make ~count:10 ~name:"wavefront iteration deterministic under faults"
    (QCheck.pair (Tu.arb_graph ~max_size:25 ()) QCheck.small_int)
    (fun (graph, seed) ->
      let params = Tu.test_params in
      let config = Tu.test_gpu in
      let run () =
        let w =
          Gpusim.Wavefront.create config graph params
            ~heuristic:Sched.Heuristic.Last_use_count ~allow_optional_stalls:true
        in
        let faults =
          Gpusim.Faults.create ~seed:(seed + 5) (Gpusim.Config.uniform_faults 0.2)
        in
        let rng = Support.Rng.create seed in
        let pheromone = Aco.Pheromone.create ~n:graph.Ddg.Graph.n ~initial:1.0 in
        let o = Gpusim.Wavefront.run_iteration ~faults w ~rng ~mode:Aco.Ant.Rp_pass ~pheromone in
        ( o.Gpusim.Wavefront.time_ns,
          o.Gpusim.Wavefront.steps,
          o.Gpusim.Wavefront.quarantined,
          o.Gpusim.Wavefront.mem_faults,
          List.map Aco.Ant.order o.Gpusim.Wavefront.finished )
      in
      run () = run ())

(* --- Fmat: the unboxed score-matrix layer ------------------------------- *)

let fmat_layout () =
  let m = Support.Fmat.create ~rows:3 ~cols:5 in
  Alcotest.(check int) "rows" 3 (Support.Fmat.rows m);
  Alcotest.(check int) "cols" 5 (Support.Fmat.cols m);
  Alcotest.(check int) "stride rounds to a cache line" 8 (Support.Fmat.stride m);
  Alcotest.(check int) "stride at boundary" 8 (Support.Fmat.stride_of_cols 8);
  Alcotest.(check int) "stride past boundary" 16 (Support.Fmat.stride_of_cols 9);
  Alcotest.(check int) "row base" 16 (Support.Fmat.row_base m 2);
  Support.Fmat.set m (Support.Fmat.row_base m 1 + 4) 2.5;
  Alcotest.(check (float 0.0)) "get/set roundtrip" 2.5 (Support.Fmat.row_get m 1 4);
  (* the hot-path idiom: raw bigarray access through the concrete type
     must see exactly what the accessors wrote *)
  Alcotest.(check (float 0.0)) "raw data view agrees" 2.5
    (Bigarray.Array1.get m.Support.Fmat.data ((1 * Support.Fmat.stride m) + 4));
  Support.Fmat.fill m 1.0;
  Alcotest.(check (float 0.0)) "fill reaches real cells" 1.0 (Support.Fmat.row_get m 2 4);
  Alcotest.(check (float 0.0)) "padding stays zero after fill" 0.0
    (Support.Fmat.get m (Support.Fmat.row_base m 0 + 7));
  Support.Fmat.clear m;
  Alcotest.(check bool) "clear zeroes everything" true
    (Array.for_all (Array.for_all (fun v -> v = 0.0)) (Support.Fmat.to_array m))

let fmat_pool () =
  let m = Support.Fmat.take ~rows:2 ~cols:3 in
  Support.Fmat.set m (Support.Fmat.row_base m 1 + 2) 9.0;
  Support.Fmat.give m;
  let reuses_before = Support.Fmat.reuses () in
  let m2 = Support.Fmat.take ~rows:2 ~cols:3 in
  Alcotest.(check bool) "same-shape take reuses the pooled store" true
    (Support.Fmat.reuses () > reuses_before);
  (* re-zeroed on give: a pooled matrix is indistinguishable from fresh *)
  Alcotest.(check bool) "pooled matrix comes back zeroed" true
    (Array.for_all (Array.for_all (fun v -> v = 0.0)) (Support.Fmat.to_array m2));
  Support.Fmat.give m2

(* --- the Chen bound ---------------------------------------------------- *)

(* The Chen per-instruction bound must hold at the issue point of every
   instruction in *any* valid schedule. The issue-point pressure is the
   tracker's transient — current plus the instruction's opens minus its
   closes, *before* dead-on-arrival defs are dropped — which is exactly
   [current + delta_if_scheduled] read before scheduling, and exactly
   the quantity [fits_within]/[filter_fits_prefix] compare against a
   target.
   Replay random topological orders and check every issue against the
   table. On tiny graphs, cross-check against exhaustive search: the
   best achievable peak can never undercut the largest per-instruction
   bound. *)
let min_lb_soundness =
  QCheck.Test.make ~count:40 ~name:"chen min-reg lower bound sound on random orders"
    (QCheck.pair (Tu.arb_graph ~max_size:14 ()) QCheck.small_int)
    (fun (graph, seed) ->
      let n = graph.Ddg.Graph.n in
      let closure = Ddg.Closure.compute graph in
      let lbv = Ddg.Lower_bounds.min_reg_lb closure graph Ir.Reg.Vgpr in
      let lbs = Ddg.Lower_bounds.min_reg_lb closure graph Ir.Reg.Sgpr in
      let rng = Support.Rng.create seed in
      for _ = 1 to 8 do
        let ready = Sched.Ready_list.create ~latency_aware:false graph in
        let t = Sched.Rp_tracker.create graph in
        for _ = 1 to n do
          let k = Support.Rng.int rng (Sched.Ready_list.ready_count ready) in
          let i = Sched.Ready_list.ready ready k in
          let issue_v =
            Sched.Rp_tracker.current t Ir.Reg.Vgpr
            + Sched.Rp_tracker.delta_if_scheduled t i Ir.Reg.Vgpr
          in
          let issue_s =
            Sched.Rp_tracker.current t Ir.Reg.Sgpr
            + Sched.Rp_tracker.delta_if_scheduled t i Ir.Reg.Sgpr
          in
          if issue_v < lbv.(i) then
            Alcotest.failf "vgpr bound %d exceeds issue-point pressure %d at instr %d"
              lbv.(i) issue_v i;
          if issue_s < lbs.(i) then
            Alcotest.failf "sgpr bound %d exceeds issue-point pressure %d at instr %d"
              lbs.(i) issue_s i;
          Sched.Ready_list.schedule ready i;
          Sched.Rp_tracker.schedule t i
        done
      done;
      if n <= 12 then begin
        let maxa a = Array.fold_left max 0 a in
        let bfv = Sched.Brute_force.min_peak_pressure graph Ir.Reg.Vgpr in
        let bfs = Sched.Brute_force.min_peak_pressure graph Ir.Reg.Sgpr in
        if bfv < maxa lbv then
          Alcotest.failf "vgpr: brute-force min peak %d < max per-instr bound %d" bfv
            (maxa lbv);
        if bfs < maxa lbs then
          Alcotest.failf "sgpr: brute-force min peak %d < max per-instr bound %d" bfs
            (maxa lbs)
      end;
      true)

let suite =
  [
    ("arena offsets", `Quick, arena_offsets);
    ("arena exhaustion", `Quick, arena_exhaustion);
    ("fmat layout", `Quick, fmat_layout);
    ("fmat pool", `Quick, fmat_pool);
    ("shared state rejects another beta or graph", `Quick, shared_mismatch);
  ]
  @ Tu.qtests
      [
        ant_differential;
        shared_eta_differential;
        wavefront_differential;
        wavefront_determinism;
        min_lb_soundness;
      ]
