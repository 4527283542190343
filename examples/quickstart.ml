(* Quickstart: build a small region, inspect its DDG, schedule it with
   the AMD baseline and with two-pass ACO, and print both schedules.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Build a scheduling region with the IR builder: four loads feeding
     a combine tree, the classic latency-vs-pressure tension. *)
  let b = Ir.Builder.create ~name:"quickstart" in
  let base = Ir.Builder.sload b ~addr:[] () in
  let loads = List.init 4 (fun _ -> Ir.Builder.vload b ~addr:[ base ] ()) in
  let sum =
    match loads with
    | [ a; b'; c; d ] ->
        let ab = Ir.Builder.valu b [ a; b' ] in
        let cd = Ir.Builder.valu b [ c; d ] in
        Ir.Builder.valu b [ ab; cd ]
    | _ -> assert false
  in
  Ir.Builder.vstore b ~data:[ sum ] ~addr:[ base ] ();
  let region = Ir.Builder.finish b in
  print_string (Ir.Region.to_string region);
  print_newline ();

  (* 2. Build the data dependence graph and look at its bounds. *)
  let graph = Ddg.Graph.build region in
  let closure = Ddg.Closure.compute graph in
  Printf.printf "length lower bound: %d cycles (dependence height %d)\n"
    (Ddg.Lower_bounds.schedule_length graph)
    (Ddg.Lower_bounds.dependence_height graph);
  Printf.printf "ready-list upper bound (Section V-A): %d\n\n"
    (Ddg.Closure.ready_list_upper_bound closure);

  (* 3. Schedule with the AMD production-scheduler stand-in. *)
  let occ = Machine.Occupancy.default in
  let amd = Sched.List_scheduler.amd occ graph in
  let amd_cost = Sched.Cost.of_schedule occ amd in
  Printf.printf "AMD baseline: %s\n%s\n" (Sched.Cost.to_string amd_cost)
    (Sched.Schedule.to_string amd);

  (* 4. Schedule with the two-pass ACO search. *)
  let result = Aco.Seq_aco.run ~seed:2024 occ graph in
  Printf.printf "ACO schedule: %s\n%s\n"
    (Sched.Cost.to_string result.Engine.Types.cost)
    (Sched.Schedule.to_string result.Engine.Types.schedule);
  Printf.printf "pass 1 iterations: %d, pass 2 iterations: %d\n"
    result.Engine.Types.pass1.Engine.Types.iterations
    result.Engine.Types.pass2.Engine.Types.iterations
