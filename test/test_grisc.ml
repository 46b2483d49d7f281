open Darco_guest
module G = Darco_grisc.Grisc
module Rng = Darco_util.Rng

(* The second guest front-end: decode/encode roundtrip and differential
   execution (Grisc interpreter vs shared-IR pipeline vs host code). *)

let random_insn rng : G.insn =
  let reg () = Rng.int rng 8 in
  let op () : G.binop =
    match Rng.int rng 6 with
    | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> And | 4 -> Or | _ -> Xor
  in
  match Rng.int rng 5 with
  | 0 -> Li (reg (), Rng.int rng 100000)
  | 1 -> Bini (op (), reg (), reg (), Rng.int rng 4096)
  | 2 -> Bin (op (), reg (), reg (), reg ())
  | 3 -> Lw (reg (), 6, 4 * Rng.int rng 64)   (* r6 = data base *)
  | _ -> Sw (reg (), 6, 4 * Rng.int rng 64)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"grisc encode/decode roundtrip" ~count:500
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 3) in
      let insn = random_insn rng in
      let b = G.encode insn in
      G.decode ~fetch:(fun i -> Char.code (Bytes.get b i)) ~pc:0 = insn)

let fresh_state seed =
  let rng = Rng.create (seed + 19) in
  let cpu = Cpu.create () in
  for r = 0 to 7 do
    Cpu.set cpu Isa.all_regs.(r) (Rng.int rng 0x100000)
  done;
  (* r6 points at the data region *)
  Cpu.set cpu Isa.all_regs.(6) 0x3000;
  let mem = Memory.create `Auto_zero in
  for i = 0 to 127 do
    Memory.write32 mem (0x3000 + (4 * i)) (Rng.int rng 0x1000000)
  done;
  (cpu, mem)

let copy_memory src =
  let dst = Memory.create `Auto_zero in
  List.iter
    (fun idx -> Memory.install_page dst idx (Memory.get_page src idx))
    (Memory.touched_pages src);
  dst

let prop_frontend_differential =
  QCheck.Test.make ~name:"grisc: interpreter = shared pipeline = host code"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed * 131) in
      let insns = List.init (1 + Rng.int rng 15) (fun _ -> random_insn rng) in
      let cpu0, mem0 = fresh_state seed in
      (* reference: the Grisc interpreter *)
      let ref_cpu = Cpu.copy cpu0 and ref_mem = copy_memory mem0 in
      ref_cpu.eip <- 0x1000;
      List.iter (fun i -> G.Interp.step ref_cpu ref_mem i) insns;
      (* shared pipeline: translate, optimize, schedule, evaluate *)
      let region = G.Frontend.translate_block ~entry_pc:0x1000 insns in
      let region = Darco.Opt.run Darco.Config.default region in
      let region = Darco.Sched.run Darco.Config.default region in
      let ir_cpu = Cpu.copy cpu0 and ir_mem = copy_memory mem0 in
      (match Ir_eval.run region ir_cpu ir_mem with
      | Ir_eval.Exited _ -> ()
      | _ -> QCheck.Test.fail_report "ir did not exit");
      (* host code *)
      let alloc = Darco.Regalloc.allocate region in
      let code, _ =
        Darco.Codegen.lower Darco.Config.default region ~alloc
          ~spill_base:(Loader.tol_base + 0x1000) ~ibtc_base:Loader.tol_base
      in
      let hw : Darco_host.Code.region =
        { id = 0; entry_pc = 0x1000; mode = `Super; base = 0xC0000000; code;
          incoming = []; invalidated = false }
      in
      let hw_cpu = Cpu.copy cpu0 and hw_mem = copy_memory mem0 in
      let m = Darco_host.Machine.create hw_mem in
      Darco_host.Machine.copy_guest_in m hw_cpu;
      (match (Darco_host.Emulator.run m ~resolve:(fun _ -> None) hw).stop with
      | Darco_host.Emulator.Stop_exit _ -> ()
      | _ -> QCheck.Test.fail_report "host did not exit");
      Darco_host.Machine.copy_guest_out m hw_cpu;
      let eq a b =
        let a = Cpu.copy a and b = Cpu.copy b in
        a.eip <- 0;
        b.eip <- 0;
        (* the x86-flavoured flag state is not part of Grisc's contract *)
        a.flags <- 0;
        b.flags <- 0;
        Cpu.equal a b
      in
      let mem_eq x y =
        List.for_all
          (fun idx -> Memory.equal_page x y idx)
          (List.sort_uniq compare (Memory.touched_pages x @ Memory.touched_pages y)
          |> List.filter (fun idx -> Memory.page_base idx < Loader.tol_base))
      in
      eq ref_cpu ir_cpu && mem_eq ref_mem ir_mem && eq ref_cpu hw_cpu
      && mem_eq ref_mem hw_mem)

let test_branch_block () =
  (* a loop written in Grisc, run by chasing region exits *)
  let body = [ G.Bin (Add, 0, 0, 1); G.Bini (Sub, 1, 1, 1); G.Bne (1, 7, 0x1000) ] in
  let region = G.Frontend.translate_block ~entry_pc:0x1000 body in
  let cpu = Cpu.create () in
  Cpu.set cpu Isa.all_regs.(0) 0;
  Cpu.set cpu Isa.all_regs.(1) 10;
  Cpu.set cpu Isa.all_regs.(7) 0;
  let mem = Memory.create `Auto_zero in
  let rec chase n =
    if n > 100 then Alcotest.fail "runaway";
    match Ir_eval.run region cpu mem with
    | Ir_eval.Exited (_, 0x1000) -> chase (n + 1)
    | Ir_eval.Exited (_, _) -> ()
    | _ -> Alcotest.fail "unexpected outcome"
  in
  chase 0;
  Alcotest.(check int) "sum 10..1" 55 (Cpu.get cpu Isa.all_regs.(0))

let test_interp_run_from_memory () =
  let program = [ G.Li (0, 7); G.Bini (Mul, 0, 0, 6); G.Halt ] in
  let mem = Memory.create `Auto_zero in
  List.iteri
    (fun i insn -> Memory.blit_bytes mem (0x1000 + (G.insn_bytes * i)) (G.encode insn))
    program;
  let cpu = Cpu.create () in
  cpu.eip <- 0x1000;
  G.Interp.run cpu mem;
  Alcotest.(check int) "7*6" 42 (Cpu.get cpu Isa.all_regs.(0));
  Alcotest.(check bool) "halted" true cpu.halted

let () =
  Alcotest.run "grisc"
    [
      ( "second-frontend",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_frontend_differential;
          Alcotest.test_case "branch block" `Quick test_branch_block;
          Alcotest.test_case "fetch/decode/execute" `Quick test_interp_run_from_memory;
        ] );
    ]
