let test_reg_basics () =
  Alcotest.(check bool) "equal" true (Ir.Reg.equal (Ir.Reg.vgpr 3) (Ir.Reg.vgpr 3));
  Alcotest.(check bool) "class distinguishes" false (Ir.Reg.equal (Ir.Reg.vgpr 3) (Ir.Reg.sgpr 3));
  Alcotest.(check bool) "compare orders classes" true
    (Ir.Reg.compare (Ir.Reg.vgpr 999) (Ir.Reg.sgpr 0) < 0);
  Alcotest.(check string) "to_string v" "v3" (Ir.Reg.to_string (Ir.Reg.vgpr 3));
  Alcotest.(check string) "to_string s" "s7" (Ir.Reg.to_string (Ir.Reg.sgpr 7));
  Alcotest.(check bool) "hash consistent" true
    (Ir.Reg.hash (Ir.Reg.vgpr 5) = Ir.Reg.hash (Ir.Reg.vgpr 5))

let test_opcode_latencies () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Ir.Opcode.to_string k ^ " latency positive")
        true
        (Ir.Opcode.default_latency k >= 1))
    Ir.Opcode.all;
  Alcotest.(check bool) "loads slower than alu" true
    (Ir.Opcode.default_latency Ir.Opcode.Vmem_load > Ir.Opcode.default_latency Ir.Opcode.Valu);
  Alcotest.(check bool) "vload is memory" true (Ir.Opcode.is_memory Ir.Opcode.Vmem_load);
  Alcotest.(check bool) "valu is not memory" false (Ir.Opcode.is_memory Ir.Opcode.Valu)

let test_instr_make () =
  let i =
    Ir.Instr.make ~id:4 ~kind:Ir.Opcode.Valu ~defs:[ Ir.Reg.vgpr 1 ]
      ~uses:[ Ir.Reg.vgpr 0; Ir.Reg.sgpr 0 ] ()
  in
  Alcotest.(check int) "id" 4 i.Ir.Instr.id;
  Alcotest.(check int) "default latency" 1 i.Ir.Instr.latency;
  Alcotest.(check int) "defs of cls" 1 (List.length (Ir.Instr.defs_of_cls i Ir.Reg.Vgpr));
  Alcotest.(check int) "uses of cls sgpr" 1 (List.length (Ir.Instr.uses_of_cls i Ir.Reg.Sgpr));
  let renumbered = Ir.Instr.with_id i 9 in
  Alcotest.(check int) "with_id" 9 renumbered.Ir.Instr.id

let test_instr_rejects_bad () =
  Alcotest.check_raises "negative latency" (Invalid_argument "Instr.make: negative latency")
    (fun () ->
      ignore (Ir.Instr.make ~id:0 ~latency:(-1) ~kind:Ir.Opcode.Valu ~defs:[] ~uses:[] ()));
  Alcotest.check_raises "latency above the bound"
    (Invalid_argument "Instr.make: latency above 1024 cycles") (fun () ->
      ignore (Ir.Instr.make ~id:0 ~latency:1025 ~kind:Ir.Opcode.Valu ~defs:[] ~uses:[] ()));
  Alcotest.check_raises "duplicate defs"
    (Invalid_argument "Instr.make: duplicate register in defs") (fun () ->
      ignore
        (Ir.Instr.make ~id:0 ~kind:Ir.Opcode.Valu
           ~defs:[ Ir.Reg.vgpr 1; Ir.Reg.vgpr 1 ]
           ~uses:[] ()))

let test_region_validation () =
  let i0 = Ir.Instr.make ~id:0 ~kind:Ir.Opcode.Valu ~defs:[ Ir.Reg.vgpr 0 ] ~uses:[] () in
  let bad = Ir.Instr.make ~id:5 ~kind:Ir.Opcode.Valu ~defs:[] ~uses:[] () in
  (match Ir.Region.create ~name:"x" [ i0; bad ] with
  | Error (Ir.Region.Bad_id { expected = 1; got = 5 }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Bad_id");
  (match Ir.Region.create ~name:"x" [] with
  | Error Ir.Region.Empty_region -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Empty_region");
  match Ir.Region.create ~name:"x" ~live_out:[ Ir.Reg.vgpr 9 ] [ i0 ] with
  | Error (Ir.Region.Use_after_exit r) ->
      Alcotest.(check string) "dangling live-out" "v9" (Ir.Reg.to_string r)
  | Ok _ | Error _ -> Alcotest.fail "expected Use_after_exit"

let test_region_live_in () =
  let b = Ir.Builder.create ~name:"li" in
  let v0 = Ir.Builder.fresh_vgpr b in
  (* v0 used before being defined anywhere: live-in *)
  let x = Ir.Builder.valu b [ v0 ] in
  Ir.Builder.vstore b ~data:[ x ] ~addr:[ v0 ] ();
  let r = Ir.Builder.finish b in
  Alcotest.(check (list string)) "live-in detected" [ "v0" ]
    (List.map Ir.Reg.to_string (Ir.Region.live_in r))

let test_region_live_out () =
  let b = Ir.Builder.create ~name:"lo" in
  let x = Ir.Builder.valu b [] in
  Ir.Builder.mark_live_out b x;
  let r = Ir.Builder.finish b in
  Alcotest.(check bool) "live-out flagged" true (Ir.Region.is_live_out r x);
  Alcotest.(check bool) "other reg not live-out" false (Ir.Region.is_live_out r (Ir.Reg.vgpr 99))

let test_builder_ids_consecutive () =
  let r = Tu.diamond_region () in
  Array.iteri
    (fun i (ins : Ir.Instr.t) -> Alcotest.(check int) "id = index" i ins.Ir.Instr.id)
    (r : Ir.Region.t).Ir.Region.instrs

let prop_random_regions_valid =
  QCheck.Test.make ~name:"random regions validate" ~count:100 (Tu.arb_region ())
    (fun r -> Ir.Region.size r > 0)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_region_to_string () =
  let r = Tu.diamond_region () in
  let s = Ir.Region.to_string r in
  Alcotest.(check bool) "mentions name" true (contains ~needle:"diamond" s)

let suite =
  [
    Alcotest.test_case "reg basics" `Quick test_reg_basics;
    Alcotest.test_case "opcode latencies" `Quick test_opcode_latencies;
    Alcotest.test_case "instr make" `Quick test_instr_make;
    Alcotest.test_case "instr rejects bad input" `Quick test_instr_rejects_bad;
    Alcotest.test_case "region validation" `Quick test_region_validation;
    Alcotest.test_case "region live-in" `Quick test_region_live_in;
    Alcotest.test_case "region live-out" `Quick test_region_live_out;
    Alcotest.test_case "builder ids" `Quick test_builder_ids_consecutive;
    Alcotest.test_case "region to_string" `Quick test_region_to_string;
  ]
  @ Tu.qtests [ prop_random_regions_valid ]
