open Darco_timing
module Model = Darco_power.Model
module Code = Darco_host.Code

let run_stream n insn_of =
  let p = Pipeline.create Tconfig.default in
  let b = Darco_host.Retire.create n in
  for i = 0 to n - 1 do
    Ref_pipeline.append b ~pc:(0xC0000000 + (4 * i)) ~desc:(Pipeline.describe (insn_of i))
      ~addr:0 ~branch:0
  done;
  Pipeline.consume p b;
  Pipeline.events p

let test_report_consistency () =
  let e = run_stream 2000 (fun i -> Code.Li (20, i)) in
  let r = Model.evaluate e in
  Alcotest.(check (float 1e-12)) "total = dynamic + leakage" r.total_joules
    (r.dynamic_joules +. r.leakage_joules);
  Alcotest.(check bool) "positive energy" true (r.total_joules > 0.0);
  Alcotest.(check (float 1e-6)) "power = energy/time" r.avg_watts
    (r.total_joules /. r.seconds);
  Alcotest.(check bool) "EPI positive" true (r.epi_nj > 0.0)

let test_fp_costs_more_than_int () =
  let ei = run_stream 2000 (fun _ -> Code.Bin (Add, 20, 21, 22)) in
  let ef = run_stream 2000 (fun _ -> Code.Fbin (Fmul, 8, 9, 10)) in
  let ri = Model.evaluate ei and rf = Model.evaluate ef in
  Alcotest.(check bool) "FP dynamic energy higher" true
    (rf.dynamic_joules > ri.dynamic_joules)

let test_more_work_more_energy () =
  let e1 = run_stream 1000 (fun i -> Code.Li (20, i)) in
  let e2 = run_stream 4000 (fun i -> Code.Li (20, i)) in
  Alcotest.(check bool) "monotone" true
    ((Model.evaluate e2).total_joules > (Model.evaluate e1).total_joules)

let test_perf_per_watt () =
  let e = run_stream 3000 (fun i -> Code.Li (20, i)) in
  let r = Model.evaluate e in
  let ppw = Model.perf_per_watt e r in
  Alcotest.(check bool) "positive" true (ppw > 0.0);
  (* identity: MIPS/W * W * s = M-instructions *)
  let mips = float_of_int e.e_insns /. 1e6 /. r.seconds in
  Alcotest.(check (float 1e-6)) "definition" (mips /. r.avg_watts) ppw

let test_leakage_scales_with_time () =
  let coeffs = { Model.default_coefficients with leakage_watts = 1.0 } in
  let e_fast = run_stream 1000 (fun i -> Code.Li (20 + (i mod 8), i)) in
  let e_slow = run_stream 1000 (fun _ -> Code.Bini (Add, 20, 20, 1)) in
  let rf = Model.evaluate ~coeffs e_fast and rs = Model.evaluate ~coeffs e_slow in
  Alcotest.(check bool) "serial chain leaks more" true
    (rs.leakage_joules > rf.leakage_joules)

let () =
  Alcotest.run "power"
    [
      ( "model",
        [
          Alcotest.test_case "report consistency" `Quick test_report_consistency;
          Alcotest.test_case "fp > int" `Quick test_fp_costs_more_than_int;
          Alcotest.test_case "monotone in work" `Quick test_more_work_more_energy;
          Alcotest.test_case "perf/W" `Quick test_perf_per_watt;
          Alcotest.test_case "leakage vs time" `Quick test_leakage_scales_with_time;
        ] );
    ]
