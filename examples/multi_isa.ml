(* The multiple-guest-ISA requirement (§IV) in action: a program written in
   Grisc — a second, RISC guest ISA — is decoded by its own tiny front-end
   and flows through the *shared* SSA/optimizer/scheduler/code-generator,
   then executes on the host emulator; the Grisc reference interpreter
   validates the result.

     dune exec examples/multi_isa.exe *)

open Darco_guest
module G = Darco_grisc.Grisc

(* sum of squares 1..20, in Grisc: r0 = acc, r1 = i, r7 = 0 *)
let block =
  [
    G.Bin (Mul, 2, 1, 1);     (* r2 = i*i *)
    G.Bin (Add, 0, 0, 2);     (* acc += r2 *)
    G.Bini (Sub, 1, 1, 1);    (* i -= 1 *)
    G.Bne (1, 7, 0x1000);     (* loop while i <> 0 *)
  ]

let () =
  print_endline "=== Grisc source block ===";
  List.iteri (fun i insn -> Printf.printf "  %d: %s\n" i
    (match insn with
     | G.Bin (Mul, d, a, b) -> Printf.sprintf "mul r%d, r%d, r%d" d a b
     | G.Bin (Add, d, a, b) -> Printf.sprintf "add r%d, r%d, r%d" d a b
     | G.Bini (Sub, d, a, k) -> Printf.sprintf "subi r%d, r%d, %d" d a k
     | G.Bne (a, b, t) -> Printf.sprintf "bne r%d, r%d, 0x%x" a b t
     | _ -> "?")) block;

  (* reference execution on the Grisc interpreter *)
  let ref_cpu = Cpu.create () in
  Cpu.set ref_cpu Isa.all_regs.(0) 0;
  Cpu.set ref_cpu Isa.all_regs.(1) 20;
  let ref_mem = Memory.create `Auto_zero in
  ref_cpu.eip <- 0x1000;
  let rec interp () =
    List.iter (fun i -> G.Interp.step ref_cpu ref_mem i) block;
    if ref_cpu.eip = 0x1000 then interp ()
  in
  interp ();

  (* shared pipeline: front-end -> optimizer -> scheduler -> host code *)
  let region = G.Frontend.translate_block ~entry_pc:0x1000 block in
  let region = Darco.Opt.run Darco.Config.default region in
  let region = Darco.Sched.run Darco.Config.default region in
  print_endline "\n=== after the shared optimizer/scheduler (IR) ===";
  Format.printf "%a@." Darco.Ir.pp_block region.body;

  let alloc = Darco.Regalloc.allocate region in
  let code, _ =
    Darco.Codegen.lower Darco.Config.default region ~alloc
      ~spill_base:(Loader.tol_base + 0x1000) ~ibtc_base:Loader.tol_base
  in
  print_endline "=== generated host code ===";
  Array.iteri
    (fun i insn ->
      Printf.printf "  @%d: %s\n" i (Format.asprintf "%a" Darco_host.Code.pp_insn insn))
    code;

  (* run it on the host hardware model, chasing the self re-entry *)
  let hw : Darco_host.Code.region =
    { id = 0; entry_pc = 0x1000; mode = `Super; base = 0xC0000000; code;
      incoming = []; invalidated = false }
  in
  let cpu = Cpu.create () in
  Cpu.set cpu Isa.all_regs.(0) 0;
  Cpu.set cpu Isa.all_regs.(1) 20;
  let m = Darco_host.Machine.create (Memory.create `Auto_zero) in
  Darco_host.Machine.copy_guest_in m cpu;
  let rec chase () =
    match (Darco.Threaded.run m ~resolve:(fun _ -> None) ~get:Darco.Threaded.compile hw).stop with
    | Darco.Threaded.Stop_exit e -> (
      match e.kind with
      | Darco_host.Code.Exit_direct 0x1000 -> chase ()
      | _ -> ())
    | _ -> failwith "unexpected stop"
  in
  chase ();
  Darco_host.Machine.copy_guest_out m cpu;

  Printf.printf "\nGrisc interpreter result: %d\nshared-pipeline result:   %d\n"
    (Cpu.get ref_cpu Isa.all_regs.(0))
    (Cpu.get cpu Isa.all_regs.(0));
  assert (Cpu.get ref_cpu Isa.all_regs.(0) = Cpu.get cpu Isa.all_regs.(0));
  print_endline "results agree: one TOL back end, two guest ISAs"
