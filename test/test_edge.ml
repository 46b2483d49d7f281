open Darco_guest
open Darco

(* Edge cases across the stack: page-straddling code, interpreter-only
   instructions inside hot loops, superblock formation limits, IBTC
   collisions, degenerate configurations. *)

let run_validated ?(cfg = Config.quick) ?input program seed =
  let cfg = { cfg with slice_fuel = 1_000 } in
  let ctl = Controller.create ~cfg ?input ~seed program in
  ctl.validate_at_checkpoints <- true;
  ctl.validate_memory <- true;
  match Controller.run ctl with
  | `Done -> ctl
  | `Limit -> Alcotest.fail "limit"
  | `Diverged d ->
    Alcotest.failf "diverged at %d: %s" d.Controller.at_retired
      (String.concat "; " d.Controller.details)

let test_code_straddles_pages () =
  (* place the hot loop so instructions cross the 0x2000 page boundary *)
  let a = Asm.create ~base:0x1FE0 () in
  Asm.insn a (Mov (Reg EAX, Imm 0));
  Asm.insn a (Mov (Reg ECX, Imm 300));
  Asm.label a "loop";
  Asm.insn a (Alu (Add, Reg EAX, Reg ECX));
  Asm.insn a (Alu (Xor, Reg EAX, Imm 0x5A5A));
  Asm.insn a (Dec (Reg ECX));
  Asm.jcc a NE "loop";
  Asm.insn a (Mov (Reg EBX, Reg EAX));
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let p = Asm.assemble a in
  let plain = Interp_ref.boot ~seed:1 p in
  ignore (Interp_ref.run_to_halt plain);
  let ctl = run_validated p 1 in
  Alcotest.(check (option int)) "same result" plain.exit_code (Controller.exit_code ctl)

let test_rep_inside_hot_loop () =
  (* a REP MOVS inside a hot loop: the block is split around the
     interpreter-only instruction; Exit_interp fires every iteration *)
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg EDX, Imm 200));
  Asm.label a "loop";
  Asm.insn a (Mov (Reg ESI, Imm 0x3000));
  Asm.insn a (Mov (Reg EDI, Imm 0x3400));
  Asm.insn a (Mov (Reg ECX, Imm 16));
  Asm.insn a (Str (Movs, W32, Rep));
  Asm.insn a (Mov (Reg EAX, Mem { base = None; index = None; disp = 0x3400 }));
  Asm.insn a (Alu (Add, Reg EBX, Reg EAX));
  Asm.insn a (Inc (Mem { base = None; index = None; disp = 0x3000 }));
  Asm.insn a (Dec (Reg EDX));
  Asm.jcc a NE "loop";
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let p = Asm.assemble a in
  let ctl = run_validated p 2 in
  let st = Controller.stats ctl in
  Alcotest.(check (option int)) "sum of 0..199 offset" (Some (200 * 199 / 2))
    (Controller.exit_code ctl);
  (* the REP instructions stayed in the interpreter *)
  Alcotest.(check bool) "IM share nontrivial" true (st.guest_im > 200)

let test_superblock_limits () =
  (* a long chain of fall-through blocks: the superblock must stop at the
     configured instruction budget *)
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg ECX, Imm 400));
  Asm.label a "loop";
  for _ = 1 to 120 do
    Asm.insn a (Alu (Add, Reg EBX, Imm 1))
  done;
  Asm.insn a (Dec (Reg ECX));
  Asm.jcc a NE "loop";
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let p = Asm.assemble a in
  let cfg = { Config.quick with sb_max_insns = 40; unroll_factor = 1 } in
  let ctl = run_validated ~cfg p 1 in
  Alcotest.(check (option int)) "computation right" (Some (400 * 120))
    (Controller.exit_code ctl)

let test_interp_only_configuration () =
  (* thresholds at infinity: everything interpreted, still correct *)
  let p = Tgen.random_program ~seed:8 ~chunks:4 () in
  let plain = Interp_ref.boot ~seed:4 p in
  ignore (Interp_ref.run_to_halt plain);
  let cfg = { Config.default with bb_threshold = max_int } in
  let ctl = run_validated ~cfg p 4 in
  let st = Controller.stats ctl in
  Alcotest.(check int) "nothing translated" 0 st.bb_translations;
  Alcotest.(check (option int)) "same exit" plain.exit_code (Controller.exit_code ctl)

let test_ibtc_collisions () =
  (* many indirect targets with a 4-entry IBTC: correctness with constant
     eviction *)
  let a = Asm.create ~base:0x1000 () in
  let n = 16 in
  let targets = List.init n (fun k -> Printf.sprintf "t%d" k) in
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg EDX, Imm 600));
  Asm.label a "loop";
  Asm.insn a (Mov (Reg EAX, Reg EDX));
  Asm.insn a (Alu (And, Reg EAX, Imm (n - 1)));
  Asm.jmp_table a "tbl" EAX;
  Asm.align a 4;
  Asm.label a "tbl";
  List.iter (fun t -> Asm.dword_label a t) targets;
  List.iteri
    (fun k t ->
      Asm.label a t;
      Asm.insn a (Alu (Add, Reg EBX, Imm (k + 1)));
      Asm.jmp a "join")
    targets;
  Asm.label a "join";
  Asm.insn a (Dec (Reg EDX));
  Asm.jcc a NE "loop";
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let p = Asm.assemble a in
  let cfg = { Config.quick with ibtc_bits = 2 } in
  let ctl = run_validated ~cfg p 9 in
  let st = Controller.stats ctl in
  Alcotest.(check bool) "misses under collision" true (st.ibtc_misses > 0);
  let expected = ref 0 in
  for d = 1 to 600 do
    expected := !expected + (d land (n - 1)) + 1
  done;
  Alcotest.(check (option int)) "dispatch sums right" (Some !expected)
    (Controller.exit_code ctl)

let test_sub_one_counted_loop_unrolls () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EAX, Imm 0));
  Asm.insn a (Mov (Reg EDI, Imm 500));
  Asm.label a "loop";
  Asm.insn a (Alu (Add, Reg EAX, Reg EDI));
  Asm.insn a (Alu (Sub, Reg EDI, Imm 1));
  Asm.jcc a NE "loop";
  Asm.insn a (Mov (Reg EBX, Reg EAX));
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let p = Asm.assemble a in
  let ctl = run_validated p 1 in
  let st = Controller.stats ctl in
  Alcotest.(check bool) "unrolled" true (st.unrolled_superblocks > 0);
  Alcotest.(check (option int)) "sum" (Some (500 * 501 / 2)) (Controller.exit_code ctl)

let test_negative_displacement () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg ESI, Imm 0x3010));
  Asm.insn a (Mov (Mem { base = Some ESI; index = None; disp = -16 }, Imm 0x77));
  Asm.insn a (Mov (Reg EBX, Mem { base = None; index = None; disp = 0x3000 }));
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let ctl = run_validated (Asm.assemble a) 1 in
  Alcotest.(check (option int)) "negative disp addressing" (Some 0x77)
    (Controller.exit_code ctl)

let test_deep_recursion_stack () =
  let a = Asm.create ~base:0x1000 () in
  Asm.jmp a "main";
  Asm.label a "f";
  Asm.insn a (Test (Reg EAX, Reg EAX));
  Asm.jcc a E "leaf";
  Asm.insn a (Push (Reg EAX));
  Asm.insn a (Dec (Reg EAX));
  Asm.call a "f";
  Asm.insn a (Pop EDX);
  Asm.insn a (Alu (Add, Reg EAX, Reg EDX));
  Asm.insn a Ret;
  Asm.label a "leaf";
  Asm.insn a (Mov (Reg EAX, Imm 0));
  Asm.insn a Ret;
  Asm.label a "main";
  Asm.insn a (Mov (Reg EAX, Imm 1500));
  Asm.call a "f";
  Asm.insn a (Mov (Reg EBX, Reg EAX));
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let ctl = run_validated (Asm.assemble a) 1 in
  Alcotest.(check (option int)) "sum 1..1500" (Some (1500 * 1501 / 2))
    (Controller.exit_code ctl)

let test_read_into_fresh_page () =
  (* read() writes into a page the co-designed side has never touched *)
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg ECX, Imm 0x9000));
  Asm.insn a (Mov (Reg EDX, Imm 4));
  Asm.insn a (Mov (Reg EAX, Imm 3));
  Asm.insn a Syscall;
  Asm.insn a (Mov (Reg EBX, Mem { base = None; index = None; disp = 0x9000 }));
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let ctl = run_validated ~input:"ABCD" (Asm.assemble a) 1 in
  Alcotest.(check (option int)) "bytes landed" (Some 0x44434241)
    (Controller.exit_code ctl)

let test_timing_config_monotonicity () =
  (* a deeper IQ or more physical registers can only help *)
  let feed cfg =
    let p = Darco_timing.Pipeline.create cfg in
    let rng = Darco_util.Rng.create 3 in
    let b = Darco_host.Retire.create 2001 in
    for i = 0 to 2000 do
      let insn : Darco_host.Code.insn =
        if i mod 4 = 0 then Load (W32, false, 20 + (i mod 6), 21 + (i mod 3), 0)
        else Bini (Add, 20 + (i mod 6), 21 + (i mod 3), 1)
      in
      let addr = if i mod 4 = 0 then Darco_util.Rng.int rng 0x8000 else 0 in
      Ref_pipeline.append b ~pc:(0xC0000000 + (4 * i))
        ~desc:(Darco_timing.Pipeline.describe insn) ~addr ~branch:0
    done;
    Darco_timing.Pipeline.consume p b;
    Darco_timing.Pipeline.cycles p
  in
  let base = Darco_timing.Tconfig.default in
  let tiny_iq = feed { base with iq_size = 2 } in
  let big_iq = feed base in
  Alcotest.(check bool) "starved IQ not faster" true (big_iq <= tiny_iq);
  let few_regs = feed { base with phys_regs = 4 } in
  Alcotest.(check bool) "register-starved not faster" true (feed base <= few_regs)

let () =
  Alcotest.run "edge"
    [
      ( "guest-edges",
        [
          Alcotest.test_case "code straddles pages" `Quick test_code_straddles_pages;
          Alcotest.test_case "rep inside hot loop" `Quick test_rep_inside_hot_loop;
          Alcotest.test_case "negative displacement" `Quick test_negative_displacement;
          Alcotest.test_case "deep recursion" `Quick test_deep_recursion_stack;
          Alcotest.test_case "read into fresh page" `Quick test_read_into_fresh_page;
        ] );
      ( "tol-edges",
        [
          Alcotest.test_case "superblock limits" `Quick test_superblock_limits;
          Alcotest.test_case "interpret-only config" `Quick test_interp_only_configuration;
          Alcotest.test_case "ibtc collisions" `Quick test_ibtc_collisions;
          Alcotest.test_case "sub-1 loop unrolls" `Quick test_sub_one_counted_loop_unrolls;
        ] );
      ( "timing-edges",
        [ Alcotest.test_case "config monotonicity" `Quick test_timing_config_monotonicity ] );
    ]
