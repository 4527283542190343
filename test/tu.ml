(* Shared test utilities: deterministic random regions and common
   fixtures. *)

let occ = Machine.Occupancy.default

(* A small diamond with a long-latency load at the top:
     s0 = s_load          (latency 6)
     a  = v_load [s0]     (latency 12)
     b  = v_alu  [a]
     c  = v_alu  [a]
     d  = v_alu  [b; c]
     store d *)
let diamond_region () =
  let b = Ir.Builder.create ~name:"diamond" in
  let s0 = Ir.Builder.sload b ~addr:[] () in
  let a = Ir.Builder.vload b ~addr:[ s0 ] () in
  let x = Ir.Builder.valu b [ a ] in
  let y = Ir.Builder.valu b [ a ] in
  let d = Ir.Builder.valu b [ x; y ] in
  Ir.Builder.vstore b ~data:[ d ] ~addr:[ s0 ] ();
  Ir.Builder.finish b

(* Deterministic random SSA region driven by our own RNG. *)
let random_region ?(max_size = 40) seed =
  let rng = Support.Rng.create seed in
  let b = Ir.Builder.create ~name:(Printf.sprintf "rand%d" seed) in
  let n = 2 + Support.Rng.int rng (max 1 (max_size - 2)) in
  (* the seed register is live-in: it is used before any definition *)
  let live_in = Ir.Builder.fresh_vgpr b in
  let vpool = ref [ Ir.Builder.valu b [ live_in ]; live_in ] in
  let spool = ref [] in
  let pick pool =
    let arr = Array.of_list pool in
    Support.Rng.choose rng arr
  in
  let uses_from pool k =
    List.init k (fun _ -> pick pool)
  in
  for _i = 1 to n do
    let r = Support.Rng.float rng in
    if r < 0.35 then begin
      let k = 1 + Support.Rng.int rng (min 3 (List.length !vpool)) in
      let d = Ir.Builder.valu b (uses_from !vpool k) in
      vpool := d :: !vpool
    end
    else if r < 0.5 then begin
      let addr = if !spool = [] then [] else [ pick !spool ] in
      let d = Ir.Builder.vload b ~addr () in
      vpool := d :: !vpool
    end
    else if r < 0.62 then begin
      let addr = if !spool = [] then [] else [ pick !spool ] in
      let d = Ir.Builder.sload b ~addr () in
      spool := d :: !spool
    end
    else if r < 0.74 && !spool <> [] then begin
      let d = Ir.Builder.salu b [ pick !spool ] in
      spool := d :: !spool
    end
    else if r < 0.86 then
      Ir.Builder.vstore b ~data:[ pick !vpool ] ~addr:[ pick !vpool ] ()
    else begin
      let d = Ir.Builder.lds_read b ~addr:[ pick !vpool ] () in
      vpool := d :: !vpool
    end
  done;
  (match !vpool with v :: _ -> Ir.Builder.mark_live_out b v | [] -> ());
  Ir.Builder.finish b

(* Deterministic random region that is not SSA, over a handful of
   register names: registers are redefined, an instruction may use and
   define one register or read one register twice, a register read
   before its first definition is a redefined live-in, and some
   registers are live-out. *)
let random_nonssa_region seed =
  let rng = Support.Rng.create seed in
  let b = Ir.Builder.create ~name:(Printf.sprintf "nonssa%d" seed) in
  let names =
    [| Ir.Reg.vgpr 0; Ir.Reg.vgpr 1; Ir.Reg.vgpr 2; Ir.Reg.vgpr 3; Ir.Reg.sgpr 0; Ir.Reg.sgpr 1 |]
  in
  let seen = ref [] in
  for _ = 1 to 1 + Support.Rng.int rng 24 do
    let draw k = List.init (Support.Rng.int rng k) (fun _ -> Support.Rng.choose rng names) in
    let uses = draw 4 in
    let defs = List.sort_uniq Ir.Reg.compare (draw 3) in
    Ir.Builder.emit b Ir.Opcode.Valu ~defs ~uses;
    seen := defs @ uses @ !seen
  done;
  (* a register that appears is defined or live-in, so it may be live-out *)
  Array.iter
    (fun r ->
      if List.exists (Ir.Reg.equal r) !seen && Support.Rng.int rng 3 = 0 then
        Ir.Builder.mark_live_out b r)
    names;
  Ir.Builder.finish b

let arb_nonssa_region =
  QCheck.make
    ~print:(fun r -> Ir.Region.to_string r)
    (QCheck.Gen.map (fun seed -> random_nonssa_region (abs seed)) QCheck.Gen.int)

(* 23 instructions whose pass 2 can meet its length lower bound in one
   iteration: under [test_params] the seq colony does so from seed 1 and
   the GPU model on [test_gpu] from seed 12; other seeds stop one cycle
   short on patience. *)
let bound_region () = random_region ~max_size:40 47

let arb_region ?max_size () =
  QCheck.make
    ~print:(fun r -> Ir.Region.to_string r)
    (QCheck.Gen.map (fun seed -> random_region ?max_size (abs seed)) QCheck.Gen.int)

(* Whether the seq two-pass would search [region]: pass 1 is needed, or
   pass 2's seed schedule sits above the length bound. *)
let searches region =
  let rc = Engine.Region_ctx.of_region occ region in
  rc.Engine.Region_ctx.pass1_needed
  || Sched.Schedule.length
       (Engine.Region_ctx.pass2_initial rc
          ~best_pass1_order:rc.Engine.Region_ctx.pass1_initial_order
          ~rp_target:rc.Engine.Region_ctx.pass1_initial_rp)
     > rc.Engine.Region_ctx.length_lb

(* Random regions the bounds leave open: the first searched region at or
   after the drawn seed. About one random region in twenty qualifies. *)
let arb_searched_region ?max_size () =
  let rec first seed =
    let r = random_region ?max_size seed in
    if searches r then r else first (seed + 1)
  in
  QCheck.make
    ~print:(fun r -> Ir.Region.to_string r)
    (QCheck.Gen.map (fun seed -> first (abs seed mod 1_000_000_000)) QCheck.Gen.int)

let arb_graph ?max_size () =
  QCheck.make
    ~print:(fun g -> Ir.Region.to_string g.Ddg.Graph.region)
    (QCheck.Gen.map (fun seed -> Ddg.Graph.build (random_region ?max_size (abs seed))) QCheck.Gen.int)

let check_valid ?(latency_aware = true) schedule =
  match Sched.Schedule.validate schedule ~latency_aware with
  | Ok () -> true
  | Error v -> Alcotest.failf "invalid schedule: %s" (Sched.Schedule.violation_to_string v)

let qtests cases = List.map QCheck_alcotest.to_alcotest cases

(* [prop] as an alcotest case that also fails unless, for every
   [(witness, what)], at least one of its generated cases bumped
   [witness] — for properties whose point is an effect (or a branch)
   that need not show on every case. [qtest_witnessed] watches one. *)
let qtest_witnessed_all witnesses prop =
  let name, speed, run = QCheck_alcotest.to_alcotest prop in
  ( name,
    speed,
    fun () ->
      List.iter (fun (witness, _) -> witness := 0) witnesses;
      run ();
      List.iter
        (fun (witness, what) ->
          if !witness = 0 then Alcotest.failf "%s: no generated case showed %s" name what)
        witnesses )

let qtest_witnessed ~witness ~what prop = qtest_witnessed_all [ (witness, what) ] prop

(* Minor-heap words per call of [f] over [calls] calls, net of the
   measuring loop itself (the same loop around a no-op), so an
   allocation-free [f] reads exactly 0. *)
let minor_words_per_call ~calls f =
  let measure g =
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      g ()
    done;
    Gc.minor_words () -. before
  in
  let harness = measure ignore in
  (measure f -. harness) /. float_of_int calls

(* Degradation-ledger rungs, printed by their label. *)
let rung =
  Alcotest.testable
    (fun ppf d -> Format.pp_print_string ppf (Pipeline.Robust.degradation_label d))
    ( = )

(* Fast ACO parameters for tests. *)
let test_params = { Engine.Params.default with Engine.Params.ants_per_iteration = 24; max_iterations = 8 }

let test_gpu = { Gpusim.Config.bench with Gpusim.Config.num_wavefronts = 2 }

(* The shared state a colony over [g] builds from its region context,
   for ants carrying [test_params]. *)
let shared_of_graph g =
  Aco.Ant.shared_of_region_ctx ~beta:test_params.Engine.Params.beta
    (Engine.Region_ctx.of_graph occ g)

(* One stand-alone ant: a one-lane store over [shared_of_graph g]. *)
let lane g = (Aco.Ant.lanes (shared_of_graph g) ~count:1 test_params).(0)
