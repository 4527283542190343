let build = Ddg.Graph.build

let test_flow_edges_diamond () =
  let g = build (Tu.diamond_region ()) in
  (* 0:s_load 1:v_load 2:valu 3:valu 4:valu 5:store *)
  Alcotest.(check (option int)) "s_load -> v_load carries s_load latency"
    (Some (Ir.Opcode.default_latency Ir.Opcode.Smem_load))
    (Ddg.Graph.latency_between g 0 1);
  Alcotest.(check (option int)) "v_load -> valu carries load latency"
    (Some (Ir.Opcode.default_latency Ir.Opcode.Vmem_load))
    (Ddg.Graph.latency_between g 1 2);
  Alcotest.(check (option int)) "no edge between independent" None
    (Ddg.Graph.latency_between g 2 3);
  let nodes p = List.filter p (List.init g.n Fun.id) in
  Alcotest.(check (list int)) "roots" [ 0 ] (nodes (fun i -> Ddg.Graph.num_preds g i = 0));
  Alcotest.(check (list int)) "leaves" [ 5 ] (nodes (fun i -> Ddg.Graph.num_succs g i = 0))

let test_anti_output_edges () =
  (* non-SSA sequence: v0 = ...; use v0; v0 = ... again *)
  let v0 = Ir.Reg.vgpr 0 and v1 = Ir.Reg.vgpr 1 in
  let instrs =
    [
      Ir.Instr.make ~id:0 ~kind:Ir.Opcode.Valu ~defs:[ v0 ] ~uses:[] ();
      Ir.Instr.make ~id:1 ~kind:Ir.Opcode.Valu ~defs:[ v1 ] ~uses:[ v0 ] ();
      Ir.Instr.make ~id:2 ~kind:Ir.Opcode.Valu ~defs:[ v0 ] ~uses:[] ();
    ]
  in
  let g = build (Ir.Region.create_exn ~name:"antiout" instrs) in
  Alcotest.(check bool) "output dep 0->2" true (Ddg.Graph.latency_between g 0 2 <> None);
  Alcotest.(check bool) "anti dep 1->2" true (Ddg.Graph.latency_between g 1 2 <> None)

let test_mem_ordering () =
  let b = Ir.Builder.create ~name:"mem" in
  let a = Ir.Builder.valu b [] in
  Ir.Builder.vstore b ~data:[ a ] ~addr:[ a ] ();
  let l = Ir.Builder.vload b ~addr:[ a ] () in
  Ir.Builder.vstore b ~data:[ l ] ~addr:[ a ] ();
  let g = build (Ir.Builder.finish b) in
  (* store(1) -> load(2), load(2) -> store(3), store(1) -> store(3) *)
  Alcotest.(check bool) "store->load ordered" true (Ddg.Graph.latency_between g 1 2 <> None);
  Alcotest.(check bool) "load->store ordered" true (Ddg.Graph.latency_between g 2 3 <> None);
  Alcotest.(check bool) "store->store ordered" true (Ddg.Graph.latency_between g 1 3 <> None)

let test_scalar_loads_not_ordered () =
  let b = Ir.Builder.create ~name:"sload" in
  let a = Ir.Builder.valu b [] in
  Ir.Builder.vstore b ~data:[ a ] ~addr:[ a ] ();
  let s = Ir.Builder.sload b ~addr:[] () in
  ignore s;
  let g = build (Ir.Builder.finish b) in
  Alcotest.(check (option int)) "scalar load independent of store" None
    (Ddg.Graph.latency_between g 1 2)

let test_branch_depends_on_all () =
  let b = Ir.Builder.create ~name:"br" in
  let x = Ir.Builder.valu b [] in
  let y = Ir.Builder.valu b [ x ] in
  ignore y;
  Ir.Builder.emit b Ir.Opcode.Branch ~defs:[] ~uses:[];
  let g = build (Ir.Builder.finish b) in
  Alcotest.(check bool) "0 -> branch" true (Ddg.Graph.latency_between g 0 2 <> None);
  Alcotest.(check bool) "1 -> branch" true (Ddg.Graph.latency_between g 1 2 <> None)

(* Row [i] of one direction, as (neighbour, latency) pairs in order. *)
let row start list lat i =
  let acc = ref [] in
  for k = start.(i + 1) - 1 downto start.(i) do
    acc := (list.(k), lat.(k)) :: !acc
  done;
  !acc

let succs (g : Ddg.Graph.t) = row g.succ_start g.succ_list g.succ_lat
let preds (g : Ddg.Graph.t) = row g.pred_start g.pred_list g.pred_lat

let prop_edges_forward =
  QCheck.Test.make ~name:"all DDG edges point forward in program order" ~count:100
    (Tu.arb_graph ()) (fun g ->
      List.for_all
        (fun i ->
          List.for_all (fun (j, _) -> i < j) (succs g i)
          && List.for_all (fun (j, _) -> j < i) (preds g i))
        (List.init g.n Fun.id))

let rec strictly_ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && strictly_ascending rest
  | [] | [ _ ] -> true

(* Both directions hold the same edges at the same latencies, once each
   (strictly ascending rows admit no parallel edge), and each offset
   array spans its flat arrays exactly. *)
let prop_preds_succs_consistent =
  QCheck.Test.make ~name:"preds and succs are mirror images" ~count:100 (Tu.arb_graph ())
    (fun g ->
      let n = g.n in
      let spans start list lat =
        Array.length start = n + 1
        && start.(0) = 0
        && start.(n) = Array.length list
        && start.(n) = Array.length lat
      in
      spans g.succ_start g.succ_list g.succ_lat
      && spans g.pred_start g.pred_list g.pred_lat
      && g.succ_start.(n) = g.pred_start.(n)
      && List.for_all
           (fun i ->
             strictly_ascending (succs g i)
             && strictly_ascending (preds g i)
             && List.for_all (fun (j, lat) -> List.mem (i, lat) (preds g j)) (succs g i)
             && List.for_all (fun (p, lat) -> List.mem (i, lat) (succs g p)) (preds g i))
           (List.init n Fun.id))

(* Two rules order 0 -> 1 (flow at the load's latency, then memory at
   0) and 1 -> 2 (anti at 0, then memory at 1), and 3 reads 2's result
   twice: each pair keeps one edge, at the larger latency whichever
   rule came first. *)
let test_parallel_edges_merge () =
  let v0 = Ir.Reg.vgpr 0 and v1 = Ir.Reg.vgpr 1 and v2 = Ir.Reg.vgpr 2 in
  let load = Ir.Opcode.default_latency Ir.Opcode.Vmem_load in
  let g =
    build
      (Ir.Region.create_exn ~name:"parallel"
         [
           Ir.Instr.make ~id:0 ~kind:Ir.Opcode.Vmem_load ~defs:[ v0 ] ~uses:[] ();
           Ir.Instr.make ~id:1 ~kind:Ir.Opcode.Vmem_store ~defs:[] ~uses:[ v0; v1 ] ();
           Ir.Instr.make ~id:2 ~kind:Ir.Opcode.Vmem_load ~defs:[ v1 ] ~uses:[] ();
           Ir.Instr.make ~id:3 ~kind:Ir.Opcode.Valu ~defs:[ v2 ] ~uses:[ v1; v1 ] ();
         ])
  in
  Alcotest.(check (list (pair int int))) "succs of 0" [ (1, load) ] (succs g 0);
  Alcotest.(check (list (pair int int))) "succs of 1" [ (2, 1) ] (succs g 1);
  Alcotest.(check (list (pair int int))) "preds of 3" [ (2, load) ] (preds g 3);
  Alcotest.(check int) "edges" 3 g.succ_start.(g.n)

(* The dependence rules, decided pair by pair from the instructions
   alone: the latency of edge [s -> d] (the largest any rule gives), or
   -1 when no rule orders the pair. *)
let expected_latency (g : Ddg.Graph.t) s d =
  let ins = g.region.Ir.Region.instrs in
  let defines i r = List.exists (Ir.Reg.equal r) ins.(i).Ir.Instr.defs in
  let uses i r = List.exists (Ir.Reg.equal r) ins.(i).Ir.Instr.uses in
  let none_in a b p = List.for_all (fun i -> not (p i)) (List.init (max 0 (b - a)) (( + ) a)) in
  let mem i =
    match ins.(i).Ir.Instr.kind with
    | Ir.Opcode.Vmem_load -> `Read
    | Ir.Opcode.Vmem_store -> `Write
    | Ir.Opcode.Lds -> if ins.(i).Ir.Instr.defs = [] then `Write else `Read
    | _ -> `None
  in
  let lat = ref (-1) in
  let rule l = if l > !lat then lat := l in
  if s < d then begin
    (* flow: [d] reads the value [s] defined last *)
    List.iter
      (fun r -> if defines s r && none_in (s + 1) d (fun i -> defines i r) then rule ins.(s).latency)
      ins.(d).Ir.Instr.uses;
    List.iter
      (fun r ->
        (* output: [d] redefines what [s] defined last *)
        if defines s r && none_in (s + 1) d (fun i -> defines i r) then rule 1;
        (* anti: [d] redefines what [s] read, with no definition since *)
        if uses s r && none_in s d (fun i -> defines i r) then rule 0)
      ins.(d).Ir.Instr.defs;
    (* memory: the last store before an access, and each load since the
       last store before a store *)
    let no_store_between = none_in (s + 1) d (fun i -> mem i = `Write) in
    (match (mem s, mem d) with
    | `Write, (`Read | `Write) when no_store_between -> rule 1
    | `Read, `Write when no_store_between -> rule 0
    | _ -> ());
    (* branch: the terminator follows everything *)
    if Ir.Opcode.equal ins.(d).Ir.Instr.kind Ir.Opcode.Branch then rule 1
  end;
  !lat

let rows_follow_the_rules (g : Ddg.Graph.t) =
  let nodes = List.init g.n Fun.id in
  let want f = List.filter_map (fun j -> let l = f j in if l >= 0 then Some (j, l) else None) nodes in
  List.for_all
    (fun i ->
      succs g i = want (fun d -> expected_latency g i d)
      && preds g i = want (fun s -> expected_latency g s i))
    nodes

(* [region] with a branch terminator appended, when [branch] holds. *)
let ending ~branch (r : Ir.Region.t) =
  if not branch then r
  else
    Ir.Region.create_exn ~name:r.name ~live_out:r.live_out
      (Array.to_list r.instrs
      @ [ Ir.Instr.make ~id:(Array.length r.instrs) ~kind:Ir.Opcode.Branch ~defs:[] ~uses:[] () ])

let prop_rows_follow_the_rules =
  QCheck.Test.make ~name:"rows follow the dependence rules (SSA)" ~count:100
    QCheck.(pair (Tu.arb_graph ()) bool)
    (fun (g, branch) -> rows_follow_the_rules (build (ending ~branch g.Ddg.Graph.region)))

let prop_rows_follow_the_rules_nonssa =
  QCheck.Test.make ~name:"rows follow the dependence rules (non-SSA)" ~count:100
    QCheck.(pair Tu.arb_nonssa_region bool)
    (fun (r, branch) -> rows_follow_the_rules (build (ending ~branch r)))

(* Naive reachability by DFS, for cross-checking the bitset closure. *)
let naive_reaches (g : Ddg.Graph.t) src dst =
  let visited = Array.make g.Ddg.Graph.n false in
  let rec dfs i =
    List.exists
      (fun (j, _) -> j = dst || ((not visited.(j)) && (visited.(j) <- true; dfs j)))
      (succs g i)
  in
  dfs src

let prop_closure_matches_dfs =
  QCheck.Test.make ~name:"closure = DFS reachability" ~count:40 (Tu.arb_graph ~max_size:25 ())
    (fun g ->
      let c = Ddg.Closure.compute g in
      let ok = ref true in
      for i = 0 to g.Ddg.Graph.n - 1 do
        for j = 0 to g.Ddg.Graph.n - 1 do
          if i <> j && Ddg.Closure.reaches c i j <> naive_reaches g i j then ok := false
        done
      done;
      !ok)

let prop_independent_symmetric =
  QCheck.Test.make ~name:"independence is symmetric" ~count:40 (Tu.arb_graph ~max_size:20 ())
    (fun g ->
      let c = Ddg.Closure.compute g in
      let ok = ref true in
      for i = 0 to g.Ddg.Graph.n - 1 do
        for j = 0 to g.Ddg.Graph.n - 1 do
          if Ddg.Closure.independent c i j <> Ddg.Closure.independent c j i then ok := false
        done
      done;
      !ok)

let prop_ready_ub_holds =
  QCheck.Test.make ~name:"ready-list UB bounds observed ready sizes" ~count:60
    (Tu.arb_graph ()) (fun g ->
      let c = Ddg.Closure.compute g in
      let ub = Ddg.Closure.ready_list_upper_bound c in
      let rl = Sched.Ready_list.create ~latency_aware:true g in
      let ok = ref true in
      while not (Sched.Ready_list.finished rl) do
        if Sched.Ready_list.ready_count rl > ub then ok := false;
        if Sched.Ready_list.ready_count rl > 0 then
          Sched.Ready_list.schedule rl (Sched.Ready_list.ready rl 0)
        else Sched.Ready_list.stall rl
      done;
      !ok)

let test_closure_example_figure1 () =
  (* A chain a->b->c plus two independent nodes: max independent = 2 for
     the chain members... construct a small graph and check the counts. *)
  let b = Ir.Builder.create ~name:"cl" in
  let x = Ir.Builder.valu b [] in
  let y = Ir.Builder.valu b [ x ] in
  ignore (Ir.Builder.valu b [ y ]);
  ignore (Ir.Builder.valu b []);
  (* independent of the chain *)
  let g = build (Ir.Builder.finish b) in
  let c = Ddg.Closure.compute g in
  Alcotest.(check int) "chain head independents" 1 (Ddg.Closure.independent_count c 0);
  Alcotest.(check int) "lone node independents" 3 (Ddg.Closure.independent_count c 3);
  Alcotest.(check int) "UB = max + 1" 4 (Ddg.Closure.ready_list_upper_bound c)

let test_critpath_diamond () =
  let g = build (Tu.diamond_region ()) in
  let cp = Ddg.Critpath.compute g in
  let sl = Ir.Opcode.default_latency Ir.Opcode.Smem_load in
  let vl = Ir.Opcode.default_latency Ir.Opcode.Vmem_load in
  (* 0:s_load 1:v_load 2/3:valu 4:valu 5:store *)
  Alcotest.(check int) "fwd at root" 0 (Ddg.Critpath.forward cp 0);
  Alcotest.(check int) "fwd at v_load" sl (Ddg.Critpath.forward cp 1);
  Alcotest.(check int) "fwd at mid" (sl + vl) (Ddg.Critpath.forward cp 2);
  Alcotest.(check int) "fwd at join" (sl + vl + 1) (Ddg.Critpath.forward cp 4);
  Alcotest.(check int) "bwd at root" (sl + vl + 2) (Ddg.Critpath.backward cp 0);
  Alcotest.(check int) "bwd at leaf" 0 (Ddg.Critpath.backward cp 5);
  Alcotest.(check int) "cp length" (sl + vl + 2) (Ddg.Critpath.critical_path_length cp)

(* The recursive bound dominates the plain relaxation, which dominates
   the dependence height; skipping the recursive step when a known
   schedule already meets the plain bound never changes the result. *)
let prop_length_lb_sound =
  QCheck.Test.make ~name:"length LB <= every list schedule" ~count:60 (Tu.arb_graph ())
    (fun g ->
      let plain = Ddg.Lower_bounds.single_issue g in
      let lb = Ddg.Lower_bounds.schedule_length g in
      let lengths =
        List.map (fun h -> Sched.Schedule.length (Sched.List_scheduler.run g h)) Sched.Heuristic.all
      in
      let best = List.fold_left min max_int lengths in
      Ddg.Lower_bounds.dependence_height g <= plain
      && plain <= lb
      && List.for_all (fun len -> len >= lb) lengths
      && Ddg.Lower_bounds.schedule_length ~upper:best g = lb)

let prop_rp_lb_sound =
  QCheck.Test.make ~name:"RP LB <= peak of every list schedule" ~count:60 (Tu.arb_graph ())
    (fun g ->
      List.for_all
        (fun h ->
          let s = Sched.List_scheduler.run g h in
          let peaks = Sched.Rp_tracker.naive_peaks g (Sched.Schedule.order s) in
          peaks Ir.Reg.Vgpr >= Ddg.Lower_bounds.register_pressure g Ir.Reg.Vgpr
          && peaks Ir.Reg.Sgpr >= Ddg.Lower_bounds.register_pressure g Ir.Reg.Sgpr)
        Sched.Heuristic.all)

(* The diamond's rendering, node lines then one line per edge in
   (src, dst) order. *)
let diamond_dot =
  {|digraph ddg {
  n0 [label="%0: s_load s0 <- "];
  n1 [label="%1: v_load v0 <- s0"];
  n2 [label="%2: v_alu v1 <- v0"];
  n3 [label="%3: v_alu v2 <- v0"];
  n4 [label="%4: v_alu v3 <- v1 v2"];
  n5 [label="%5: v_store v3 s0"];
  n0 -> n1 [label="16"];
  n0 -> n5 [label="16"];
  n1 -> n2 [label="40"];
  n1 -> n3 [label="40"];
  n1 -> n5 [label="0"];
  n2 -> n4 [label="1"];
  n3 -> n4 [label="1"];
  n4 -> n5 [label="1"];
}
|}

let test_to_dot () =
  Alcotest.(check string) "diamond dot" diamond_dot
    (Ddg.Graph.to_dot (build (Tu.diamond_region ())))

let suite =
  [
    Alcotest.test_case "flow edges + latencies" `Quick test_flow_edges_diamond;
    Alcotest.test_case "anti/output edges" `Quick test_anti_output_edges;
    Alcotest.test_case "memory ordering" `Quick test_mem_ordering;
    Alcotest.test_case "scalar loads unordered" `Quick test_scalar_loads_not_ordered;
    Alcotest.test_case "branch is a sink" `Quick test_branch_depends_on_all;
    Alcotest.test_case "parallel edges keep the largest latency" `Quick
      test_parallel_edges_merge;
    Alcotest.test_case "closure small example" `Quick test_closure_example_figure1;
    Alcotest.test_case "critical path diamond" `Quick test_critpath_diamond;
    Alcotest.test_case "dot rendering" `Quick test_to_dot;
  ]
  @ Tu.qtests
      [
        prop_edges_forward;
        prop_preds_succs_consistent;
        prop_rows_follow_the_rules;
        prop_rows_follow_the_rules_nonssa;
        prop_closure_matches_dfs;
        prop_independent_symmetric;
        prop_ready_ub_holds;
        prop_length_lb_sound;
        prop_rp_lb_sound;
      ]
