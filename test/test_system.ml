open Darco_guest
open Darco

(* Whole-system differential validation: the co-designed component (TOL +
   host emulator) against the authoritative x86 component, with
   architectural AND memory state compared at every execution slice. *)

let run_validated ?(cfg = Config.quick) ?input ?max_insns program seed =
  let cfg = { cfg with slice_fuel = 2_000 } in
  let ctl = Controller.create ~cfg ?input ~seed program in
  ctl.validate_at_checkpoints <- true;
  ctl.validate_memory <- true;
  (Controller.run ?max_insns ctl, ctl)

let expect_done what (result, _ctl) =
  match result with
  | `Done -> ()
  | `Limit -> Alcotest.failf "%s: hit instruction limit" what
  | `Diverged d ->
    Alcotest.failf "%s: diverged at %d:\n%s" what d.Controller.at_retired
      (String.concat "\n" d.Controller.details)

let prop_random_programs =
  QCheck.Test.make ~name:"random structured programs validate end-to-end"
    ~count:60 QCheck.small_int (fun seed ->
      let program = Tgen.random_program ~seed ~chunks:6 () in
      match run_validated program seed with
      | `Done, _ -> true
      | `Limit, _ -> false
      | `Diverged d, _ ->
        QCheck.Test.fail_reportf "seed %d diverged at %d:\n%s" seed d.Controller.at_retired
          (String.concat "\n" d.Controller.details))

let prop_random_programs_default_thresholds =
  QCheck.Test.make ~name:"random programs validate with default thresholds"
    ~count:25 QCheck.small_int (fun seed ->
      let program = Tgen.random_program ~seed:(seed + 500) ~chunks:8 () in
      match run_validated ~cfg:Config.default program seed with
      | `Done, _ -> true
      | `Limit, _ -> false
      | `Diverged d, _ ->
        QCheck.Test.fail_reportf "seed %d diverged at %d:\n%s" seed d.Controller.at_retired
          (String.concat "\n" d.Controller.details))

let prop_outputs_match_reference =
  QCheck.Test.make ~name:"co-designed output = plain emulation output" ~count:30
    QCheck.small_int (fun seed ->
      let program = Tgen.random_program ~seed:(seed + 900) ~chunks:5 () in
      let plain = Interp_ref.boot ~seed:3 program in
      ignore (Interp_ref.run_to_halt plain);
      let result, ctl = run_validated program 3 in
      (match result with `Done -> () | _ -> QCheck.Test.fail_report "did not finish");
      Interp_ref.output plain = Controller.output ctl
      && plain.exit_code = Controller.exit_code ctl)

(* --- tiny code cache: mid-run flushes must stay correct ----------------- *)

let test_flush_stress () =
  (* a real workload with many regions, through a drastically undersized
     code cache: repeated full flushes must never affect correctness *)
  let cfg = { Config.default with code_cache_capacity = 2_000 } in
  let e = Darco_workloads.Registry.find "483.xalancbmk" in
  let result, ctl = run_validated ~cfg ~max_insns:60_000 (e.build ()) 42 in
  (match result with
  | `Diverged d ->
    Alcotest.failf "diverged at %d: %s" d.Controller.at_retired
      (String.concat ";" d.Controller.details)
  | `Done | `Limit -> ());
  Alcotest.(check bool) "flushes actually happened" true
    ((Controller.stats ctl).code_cache_flushes > 0);
  Alcotest.(check bool) "validations ran" true ((Controller.stats ctl).validations > 5)

(* --- speculation failure recovery --------------------------------------- *)

let test_assert_failure_recovery () =
  (* A branch that is heavily biased during training, then flips: the
     superblock assert fails and the TOL must recover and eventually
     rebuild without asserts. *)
  let a = Asm.create ~base:0x1000 () in
  (* for i in 2000 down to 1: if i > 400 then path A else path B *)
  Asm.insn a (Mov (Reg EAX, Imm 0));
  Asm.insn a (Mov (Reg ECX, Imm 2000));
  Asm.label a "head";
  Asm.insn a (Cmp (Reg ECX, Imm 400));
  Asm.jcc a LE "low";
  Asm.insn a (Alu (Add, Reg EAX, Imm 3));
  Asm.jmp a "next";
  Asm.label a "low";
  Asm.insn a (Alu (Add, Reg EAX, Imm 7));
  Asm.label a "next";
  Asm.insn a (Dec (Reg ECX));
  Asm.jcc a NE "head";
  Asm.insn a (Mov (Reg EBX, Reg EAX));
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let program = Asm.assemble a in
  let result, ctl = run_validated ~cfg:Config.quick program 1 in
  expect_done "biased-then-flipped branch" (result, ctl);
  let st = Controller.stats ctl in
  Alcotest.(check bool) "asserts rolled back" true (st.assert_rollbacks > 0);
  Alcotest.(check (option int)) "exact result"
    (Some ((1600 * 3) + (400 * 7)))
    (Controller.exit_code ctl)

let test_alias_failure_recovery () =
  (* genuine store-to-load aliasing through different address expressions *)
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg EBP, Imm 0x5000));
  Asm.insn a (Mov (Reg ECX, Imm 3000));
  Asm.label a "loop";
  Asm.insn a (Mov (Mem { base = None; index = None; disp = 0x5000 }, Reg ECX));
  Asm.insn a (Mov (Reg EAX, Mem { base = Some EBP; index = None; disp = 0 }));
  Asm.insn a (Alu (Add, Reg EBX, Reg EAX));
  Asm.insn a (Dec (Reg ECX));
  Asm.jcc a NE "loop";
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let program = Asm.assemble a in
  let result, ctl = run_validated ~cfg:Config.default program 1 in
  expect_done "aliasing loop" (result, ctl);
  ignore (Controller.stats ctl)

(* --- failure injection + debug toolchain -------------------------------- *)

let faulty_program () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg EBP, Imm 0x5000));
  Asm.insn a (Mov (Reg ECX, Imm 4000));
  Asm.label a "loop";
  Asm.insn a (Mov (Mem { base = None; index = None; disp = 0x5000 }, Reg ECX));
  Asm.insn a (Mov (Reg EAX, Mem { base = Some EBP; index = None; disp = 0 }));
  Asm.insn a (Alu (Add, Reg EBX, Reg EAX));
  Asm.insn a (Dec (Reg ECX));
  Asm.jcc a NE "loop";
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  Asm.assemble a

let test_debug_healthy () =
  let r = Debug.investigate ~seed:42 (faulty_program ()) in
  Alcotest.(check bool) "no divergence" false r.diverged

let test_debug_finds_cse_bug () =
  let cfg = { Config.default with inject_fault = Opt_drop_store } in
  let r = Debug.investigate ~cfg ~seed:42 (faulty_program ()) in
  Alcotest.(check bool) "diverged" true r.diverged;
  Alcotest.(check bool) "localized" true (r.first_divergence <> None);
  Alcotest.(check (option string)) "culprit"
    (Some "common-subexpression elimination") r.culprit

let test_debug_finds_sched_bug () =
  let cfg = { Config.default with inject_fault = Sched_break_dep } in
  let r = Debug.investigate ~cfg ~seed:42 (faulty_program ()) in
  Alcotest.(check bool) "diverged" true r.diverged;
  Alcotest.(check (option string)) "culprit" (Some "memory speculation") r.culprit

let test_validation_catches_injected_fault () =
  let cfg = { Config.quick with inject_fault = Opt_drop_store } in
  match run_validated ~cfg (faulty_program ()) 42 with
  | `Diverged _, _ -> ()
  | (`Done | `Limit), _ -> Alcotest.fail "the corrupted translation went unnoticed"

(* --- synchronization events --------------------------------------------- *)

let test_syscall_events_and_input () =
  (* read input, transform, write output *)
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg ECX, Imm 0x3000));
  Asm.insn a (Mov (Reg EDX, Imm 8));
  Asm.insn a (Mov (Reg EAX, Imm 3));
  Asm.insn a Syscall;
  (* uppercase -> lowercase-ish transform: add 1 to each byte *)
  Asm.insn a (Mov (Reg ESI, Imm 0));
  Asm.insn a (Mov (Reg ECX, Imm 8));
  Asm.label a "loop";
  Asm.insn a (Movx (W8, false, EAX, { base = Some ESI; index = None; disp = 0x3000 }));
  Asm.insn a (Inc (Reg EAX));
  Asm.insn a (Movw (W8, { base = Some ESI; index = None; disp = 0x3000 }, EAX));
  Asm.insn a (Inc (Reg ESI));
  Asm.insn a (Dec (Reg ECX));
  Asm.jcc a NE "loop";
  Asm.insn a (Mov (Reg EBX, Imm 1));
  Asm.insn a (Mov (Reg ECX, Imm 0x3000));
  Asm.insn a (Mov (Reg EDX, Imm 8));
  Asm.insn a (Mov (Reg EAX, Imm 4));
  Asm.insn a Syscall;
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let program = Asm.assemble a in
  let result, ctl = run_validated ~input:"HALFWORD" program 5 in
  expect_done "io program" (result, ctl);
  Alcotest.(check string) "transformed output" "IBMGXPSE" (Controller.output ctl);
  Alcotest.(check bool) "syscalls serviced" true ((Controller.stats ctl).syscalls >= 3)

let test_page_requests_counted () =
  let program = Tgen.random_program ~seed:77 ~chunks:4 () in
  let result, ctl = run_validated program 77 in
  expect_done "pages" (result, ctl);
  Alcotest.(check bool) "data requests happened" true
    ((Controller.stats ctl).page_requests > 0)

(* A TOL allocation spanning more than two pages maps all of them: with a
   16 KiB IBTC ([ibtc_bits = 12]) the co-designed component requests no
   more guest pages than with the default 4 KiB one.  An unmapped middle
   page would fault on first touch and be served as a data request. *)
let test_tol_allocation_maps_every_page () =
  let e = Darco_workloads.Registry.find "471.omnetpp" in
  let requests cfg =
    let ctl = Controller.create ~cfg ~seed:42 (e.build ()) in
    expect_done "471.omnetpp" (Controller.run ctl, ctl);
    (Controller.stats ctl).page_requests
  in
  Alcotest.(check int) "page requests, 12-bit IBTC" (requests Config.default)
    (requests { Config.default with ibtc_bits = 12 })

let test_create_at_matches () =
  (* starting mid-program yields the same final state as from the start *)
  let program = Tgen.random_program ~seed:31 ~chunks:5 () in
  let full = Interp_ref.boot ~seed:2 program in
  ignore (Interp_ref.run_to_halt full);
  let ctl = Controller.create_at ~cfg:Config.quick ~seed:2 program ~start:5_000 in
  (match Controller.run ctl with
  | `Done -> ()
  | `Diverged d -> Alcotest.failf "diverged: %s" (String.concat ";" d.Controller.details)
  | `Limit -> Alcotest.fail "limit");
  Alcotest.(check (option int)) "same exit code" full.exit_code (Controller.exit_code ctl)

let test_limit_stops () =
  let program = Tgen.random_program ~seed:5 ~chunks:8 () in
  let cfg = { Config.quick with slice_fuel = 100 } in
  let ctl = Controller.create ~cfg ~seed:5 program in
  match Controller.run ~max_insns:1_000 ctl with
  | `Limit -> Alcotest.(check bool) "stopped promptly" true (Tol.retired ctl.co < 5_000)
  | `Done -> () (* tiny program; fine *)
  | `Diverged _ -> Alcotest.fail "diverged"

(* --- TOL statistics sanity ----------------------------------------------- *)

let test_stats_consistency () =
  let program = Tgen.random_program ~seed:123 ~chunks:8 () in
  let result, ctl = run_validated program 123 in
  expect_done "stats run" (result, ctl);
  let st = Controller.stats ctl in
  Alcotest.(check bool) "all modes used" true
    (st.guest_im > 0 && st.guest_bbm > 0);
  Alcotest.(check bool) "overhead positive" true (Stats.total_overhead st > 0);
  Alcotest.(check bool) "host app stream consistent" true
    (Stats.host_app_total st = st.host_app_bbm + st.host_app_sbm);
  let im, bbm, sbm = Stats.mode_fractions st in
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0 (im +. bbm +. sbm)

let test_startup_metric () =
  let e = Darco_workloads.Registry.find "429.mcf" in
  let ctl = Controller.create ~seed:42 (e.build ()) in
  ignore (Controller.run ~max_insns:100_000 ctl);
  match (Controller.stats ctl).startup_insns with
  | Some n -> Alcotest.(check bool) "startup recorded" true (n > 0)
  | None -> Alcotest.fail "no SBM reached in 100k insns"

let () =
  Alcotest.run "system"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_random_programs;
          QCheck_alcotest.to_alcotest prop_random_programs_default_thresholds;
          QCheck_alcotest.to_alcotest prop_outputs_match_reference;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "assert failure recovery" `Quick test_assert_failure_recovery;
          Alcotest.test_case "alias failure recovery" `Quick test_alias_failure_recovery;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "healthy" `Quick test_debug_healthy;
          Alcotest.test_case "validation catches fault" `Quick
            test_validation_catches_injected_fault;
          Alcotest.test_case "bisects to CSE" `Quick test_debug_finds_cse_bug;
          Alcotest.test_case "bisects to mem-speculation" `Quick test_debug_finds_sched_bug;
        ] );
      ( "events",
        [
          Alcotest.test_case "syscalls + input" `Quick test_syscall_events_and_input;
          Alcotest.test_case "page requests" `Quick test_page_requests_counted;
          Alcotest.test_case "TOL allocation maps every page" `Quick
            test_tol_allocation_maps_every_page;
          Alcotest.test_case "create_at" `Quick test_create_at_matches;
          Alcotest.test_case "instruction limit" `Quick test_limit_stops;
        ] );
      ( "stress",
        [ Alcotest.test_case "code cache flushes" `Quick test_flush_stress ] );
      ( "stats",
        [
          Alcotest.test_case "consistency" `Quick test_stats_consistency;
          Alcotest.test_case "startup metric" `Quick test_startup_metric;
        ] );
    ]
