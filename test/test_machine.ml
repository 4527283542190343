let occ = Machine.Occupancy.default

let test_paper_mapping () =
  (* Section II-A: PRP <= 24 VGPRs -> occupancy 10; 25..28 -> 9. *)
  Alcotest.(check int) "24 -> 10" 10 (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr 24);
  Alcotest.(check int) "1 -> 10" 10 (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr 1);
  Alcotest.(check int) "25 -> 9" 9 (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr 25);
  Alcotest.(check int) "28 -> 9" 9 (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr 28);
  Alcotest.(check int) "29 -> 8" 8 (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr 29);
  Alcotest.(check int) "0 -> max" 10 (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr 0);
  Alcotest.(check int) "huge -> 1" 1 (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr 500)

let test_aprp_paper_values () =
  (* APRP maps 1..24 -> 24 and 25..28 -> 28 (Section II-A). *)
  for p = 1 to 24 do
    Alcotest.(check int) "aprp low bucket" 24 (Machine.Occupancy.aprp occ Ir.Reg.Vgpr p)
  done;
  for p = 25 to 28 do
    Alcotest.(check int) "aprp second bucket" 28 (Machine.Occupancy.aprp occ Ir.Reg.Vgpr p)
  done;
  Alcotest.(check int) "aprp 0" 0 (Machine.Occupancy.aprp occ Ir.Reg.Vgpr 0)

let prop_aprp_idempotent =
  QCheck.Test.make ~name:"aprp idempotent" ~count:300 (QCheck.int_range 0 300) (fun p ->
      let a = Machine.Occupancy.aprp occ Ir.Reg.Vgpr p in
      Machine.Occupancy.aprp occ Ir.Reg.Vgpr a = a)

let prop_aprp_monotone =
  QCheck.Test.make ~name:"aprp monotone" ~count:300
    QCheck.(pair (int_range 0 300) (int_range 0 300))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Machine.Occupancy.aprp occ Ir.Reg.Vgpr lo <= Machine.Occupancy.aprp occ Ir.Reg.Vgpr hi)

let prop_aprp_preserves_occupancy =
  QCheck.Test.make ~name:"aprp preserves occupancy" ~count:300 (QCheck.int_range 1 300)
    (fun p ->
      Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr p
      = Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr
          (Machine.Occupancy.aprp occ Ir.Reg.Vgpr p))

let prop_occupancy_antitone =
  QCheck.Test.make ~name:"occupancy non-increasing in pressure" ~count:300
    QCheck.(pair (int_range 0 300) (int_range 0 300))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr lo
      >= Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr hi)

let test_max_pressure_inverse () =
  for waves = 1 to 10 do
    let p = Machine.Occupancy.max_pressure_for occ Ir.Reg.Vgpr ~occupancy:waves in
    Alcotest.(check bool)
      (Printf.sprintf "pressure %d supports %d waves" p waves)
      true
      (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr p >= waves);
    (* occupancy is floored at 1, so the "one granule more drops below"
       check only applies above that floor *)
    if waves > 1 && waves < 10 then
      Alcotest.(check bool) "p+granularity drops below" true
        (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr (p + 4) < waves)
  done

let test_of_pressures_is_min () =
  Alcotest.(check int) "vgpr limits" 9 (Machine.Occupancy.of_pressures occ ~vgpr:28 ~sgpr:1);
  Alcotest.(check int) "sgpr limits" 8
    (Machine.Occupancy.of_pressures occ ~vgpr:1 ~sgpr:96)

let test_sgpr_mapping () =
  (* 800 SGPRs, granularity 16: 80 -> 10 waves, 96 -> 8 (800/96=8.3). *)
  Alcotest.(check int) "80 sgprs -> 10" 10 (Machine.Occupancy.of_class_pressure occ Ir.Reg.Sgpr 80);
  Alcotest.(check int) "96 sgprs -> 8" 8 (Machine.Occupancy.of_class_pressure occ Ir.Reg.Sgpr 96)

let test_target_constants () =
  let t = Machine.Target.vega20 in
  Alcotest.(check int) "total SIMDs" 240 (Machine.Target.total_simds t);
  Alcotest.(check int) "wavefront size" 64 t.Machine.Target.wavefront_size;
  Alcotest.(check int) "vgpr budget" 256 (Machine.Target.reg_budget t Ir.Reg.Vgpr);
  Alcotest.(check int) "sgpr granularity" 16 (Machine.Target.granularity t Ir.Reg.Sgpr)

let test_occupancy_rejects_negative () =
  Alcotest.check_raises "negative pressure"
    (Invalid_argument "Occupancy.of_class_pressure: negative pressure") (fun () ->
      ignore (Machine.Occupancy.of_class_pressure occ Ir.Reg.Vgpr (-1)))

let suite =
  [
    Alcotest.test_case "paper occupancy mapping" `Quick test_paper_mapping;
    Alcotest.test_case "paper APRP buckets" `Quick test_aprp_paper_values;
    Alcotest.test_case "max_pressure_for inverse" `Quick test_max_pressure_inverse;
    Alcotest.test_case "of_pressures is min" `Quick test_of_pressures_is_min;
    Alcotest.test_case "sgpr mapping" `Quick test_sgpr_mapping;
    Alcotest.test_case "target constants" `Quick test_target_constants;
    Alcotest.test_case "occupancy domain" `Quick test_occupancy_rejects_negative;
  ]
  @ Tu.qtests
      [
        prop_aprp_idempotent;
        prop_aprp_monotone;
        prop_aprp_preserves_occupancy;
        prop_occupancy_antitone;
      ]
