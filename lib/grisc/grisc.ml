open Darco_guest

type reg = int
type binop = Add | Sub | Mul | And | Or | Xor

type insn =
  | Li of reg * int
  | Bini of binop * reg * reg * int
  | Bin of binop * reg * reg * reg
  | Lw of reg * reg * int
  | Sw of reg * reg * int
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | J of int
  | Halt

let insn_bytes = 8
let guest_reg (r : reg) = Isa.all_regs.(r land 7)

let binop_code = function Add -> 0 | Sub -> 1 | Mul -> 2 | And -> 3 | Or -> 4 | Xor -> 5

let binop_of_code = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> And | 4 -> Or | _ -> Xor

let encode insn =
  let b = Bytes.make insn_bytes '\000' in
  let set_imm v = Bytes.set_int32_le b 4 (Int32.of_int v) in
  (match insn with
  | Li (rd, imm) ->
    Bytes.set b 0 '\001';
    Bytes.set b 1 (Char.chr rd);
    set_imm imm
  | Bini (op, rd, ra, imm) ->
    Bytes.set b 0 '\002';
    Bytes.set b 1 (Char.chr rd);
    Bytes.set b 2 (Char.chr ra);
    Bytes.set b 3 (Char.chr (binop_code op));
    set_imm imm
  | Bin (op, rd, ra, rb) ->
    Bytes.set b 0 '\003';
    Bytes.set b 1 (Char.chr rd);
    Bytes.set b 2 (Char.chr ra);
    Bytes.set b 3 (Char.chr ((binop_code op lsl 4) lor rb));
    set_imm 0
  | Lw (rd, ra, imm) ->
    Bytes.set b 0 '\004';
    Bytes.set b 1 (Char.chr rd);
    Bytes.set b 2 (Char.chr ra);
    set_imm imm
  | Sw (rd, ra, imm) ->
    Bytes.set b 0 '\005';
    Bytes.set b 1 (Char.chr rd);
    Bytes.set b 2 (Char.chr ra);
    set_imm imm
  | Beq (ra, rb, t) ->
    Bytes.set b 0 '\006';
    Bytes.set b 1 (Char.chr ra);
    Bytes.set b 2 (Char.chr rb);
    set_imm t
  | Bne (ra, rb, t) ->
    Bytes.set b 0 '\007';
    Bytes.set b 1 (Char.chr ra);
    Bytes.set b 2 (Char.chr rb);
    set_imm t
  | Blt (ra, rb, t) ->
    Bytes.set b 0 '\008';
    Bytes.set b 1 (Char.chr ra);
    Bytes.set b 2 (Char.chr rb);
    set_imm t
  | J t ->
    Bytes.set b 0 '\009';
    set_imm t
  | Halt -> Bytes.set b 0 '\010');
  b

let decode ~fetch ~pc =
  let byte i = fetch (pc + i) land 0xFF in
  let imm =
    let v = byte 4 lor (byte 5 lsl 8) lor (byte 6 lsl 16) lor (byte 7 lsl 24) in
    if v land 0x80000000 <> 0 then v - 0x100000000 else v
  in
  match byte 0 with
  | 1 -> Li (byte 1, imm)
  | 2 -> Bini (binop_of_code (byte 3), byte 1, byte 2, imm)
  | 3 -> Bin (binop_of_code (byte 3 lsr 4), byte 1, byte 2, byte 3 land 7)
  | 4 -> Lw (byte 1, byte 2, imm)
  | 5 -> Sw (byte 1, byte 2, imm)
  | 6 -> Beq (byte 1, byte 2, Semantics.mask32 imm)
  | 7 -> Bne (byte 1, byte 2, Semantics.mask32 imm)
  | 8 -> Blt (byte 1, byte 2, Semantics.mask32 imm)
  | 9 -> J (Semantics.mask32 imm)
  | 10 -> Halt
  | op -> invalid_arg (Printf.sprintf "Grisc.decode: bad opcode %d at 0x%x" op pc)

let eval_binop op a b =
  match op with
  | Add -> Semantics.mask32 (a + b)
  | Sub -> Semantics.mask32 (a - b)
  | Mul -> Semantics.result_of (Semantics.mul_u a b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b

module Interp = struct
  let step (cpu : Cpu.t) mem insn =
    let get r = Cpu.get cpu (guest_reg r) in
    let set r v = Cpu.set cpu (guest_reg r) v in
    let next = Semantics.mask32 (cpu.eip + insn_bytes) in
    match insn with
    | Li (rd, imm) ->
      set rd (Semantics.mask32 imm);
      cpu.eip <- next
    | Bini (op, rd, ra, imm) ->
      set rd (eval_binop op (get ra) (Semantics.mask32 imm));
      cpu.eip <- next
    | Bin (op, rd, ra, rb) ->
      set rd (eval_binop op (get ra) (get rb));
      cpu.eip <- next
    | Lw (rd, ra, imm) ->
      set rd (Memory.read mem W32 (Semantics.mask32 (get ra + imm)));
      cpu.eip <- next
    | Sw (rd, ra, imm) ->
      Memory.write mem W32 (Semantics.mask32 (get ra + imm)) (get rd);
      cpu.eip <- next
    | Beq (ra, rb, t) -> cpu.eip <- (if get ra = get rb then t else next)
    | Bne (ra, rb, t) -> cpu.eip <- (if get ra <> get rb then t else next)
    | Blt (ra, rb, t) ->
      cpu.eip <-
        (if Semantics.signed (get ra) < Semantics.signed (get rb) then t else next)
    | J t -> cpu.eip <- t
    | Halt -> cpu.halted <- true

  let run ?(fuel = 1_000_000) cpu mem =
    let steps = ref 0 in
    while (not cpu.Cpu.halted) && !steps < fuel do
      incr steps;
      step cpu mem (decode ~fetch:(Memory.read8 mem) ~pc:cpu.Cpu.eip)
    done
end

module Frontend = struct
  module T = Darco.Translate

  let translate_insn ctx insn ~pc =
    ignore pc;
    (match insn with
    | Li (rd, imm) -> T.set_reg ctx (guest_reg rd) (T.li ctx imm)
    | Bini (op, rd, ra, imm) ->
      let a = T.get_reg ctx (guest_reg ra) in
      let d = T.fresh_vreg ctx in
      let hop : Darco_host.Code.binop =
        match op with Add -> Add | Sub -> Sub | Mul -> Mul | And -> And | Or -> Or | Xor -> Xor
      in
      T.emit_ir ctx (Darco.Ir.Ibini (hop, d, a, imm));
      T.set_reg ctx (guest_reg rd) d
    | Bin (op, rd, ra, rb) ->
      let a = T.get_reg ctx (guest_reg ra) in
      let b = T.get_reg ctx (guest_reg rb) in
      let d = T.fresh_vreg ctx in
      let hop : Darco_host.Code.binop =
        match op with Add -> Add | Sub -> Sub | Mul -> Mul | And -> And | Or -> Or | Xor -> Xor
      in
      T.emit_ir ctx (Darco.Ir.Ibin (hop, d, a, b));
      T.set_reg ctx (guest_reg rd) d
    | Lw (rd, ra, imm) ->
      let a = T.get_reg ctx (guest_reg ra) in
      let d = T.fresh_vreg ctx in
      T.emit_ir ctx (Darco.Ir.Iload (W32, false, d, a, imm));
      T.set_reg ctx (guest_reg rd) d
    | Sw (rd, ra, imm) ->
      let v = T.get_reg ctx (guest_reg rd) in
      let a = T.get_reg ctx (guest_reg ra) in
      T.emit_ir ctx (Darco.Ir.Istore (W32, v, a, imm))
    | Beq _ | Bne _ | Blt _ | J _ | Halt ->
      invalid_arg "Grisc.Frontend.translate_insn: control transfer");
    T.add_retired ctx 1

  let translate_block ~entry_pc insns =
    let ctx = T.create ~entry_pc in
    let rec go pc = function
      | [] -> T.emit_exit ctx (Darco.Ir.Xdirect pc)
      | [ Halt ] ->
        T.add_retired ctx 1;
        T.emit_exit ctx Darco.Ir.Xhalt
      | [ J t ] ->
        T.add_retired ctx 1;
        T.emit_exit ctx (Darco.Ir.Xdirect t)
      | [ (Beq (ra, rb, t) | Bne (ra, rb, t) | Blt (ra, rb, t)) as br ] ->
        T.add_retired ctx 1;
        let a = T.get_reg ctx (guest_reg ra) in
        let b = T.get_reg ctx (guest_reg rb) in
        let cmp : Darco_host.Code.cmp =
          match br with Beq _ -> Beq | Bne _ -> Bne | _ -> Blt
        in
        let fall = Semantics.mask32 (pc + insn_bytes) in
        T.emit_branch_to_stub ctx (T.Cfused (cmp, a, b)) (fun ctx ->
            T.emit_exit ctx (Darco.Ir.Xdirect t));
        T.emit_exit ctx (Darco.Ir.Xdirect fall)
      | insn :: rest ->
        translate_insn ctx insn ~pc;
        go (Semantics.mask32 (pc + insn_bytes)) rest
    in
    go entry_pc insns;
    T.finalize ctx ~mode:`Super ~prof:None
end
