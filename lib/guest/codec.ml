open Isa

exception Bad_encoding of int

(* Opcode space.  One byte per instruction form; sub-operation selectors and
   operand shape descriptors follow as additional bytes. *)
let op_nop = 0x00
and op_mov = 0x01
and op_movx = 0x02
and op_movw = 0x03
and op_lea = 0x04
and op_alu = 0x05
and op_cmp = 0x06
and op_test = 0x07
and op_inc = 0x08
and op_dec = 0x09
and op_neg = 0x0A
and op_not = 0x0B
and op_shift = 0x0C
and op_mul = 0x0D
and op_imul = 0x0E
and op_imul2 = 0x0F
and op_div = 0x10
and op_idiv = 0x11
and op_push = 0x12
and op_pop = 0x13
and op_jmp = 0x14
and op_jmpind = 0x15
and op_jcc = 0x16
and op_call = 0x17
and op_callind = 0x18
and op_ret = 0x19
and op_cmov = 0x1A
and op_setcc = 0x1B
and op_str = 0x1C
and op_fld = 0x1D
and op_fst = 0x1E
and op_fmov = 0x1F
and op_fldi = 0x20
and op_fbin = 0x21
and op_fun = 0x22
and op_fcmp = 0x23
and op_fild = 0x24
and op_fist = 0x25
and op_syscall = 0x26
and op_halt = 0x27

let alu_code = function
  | Add -> 0 | Sub -> 1 | Adc -> 2 | Sbb -> 3 | And -> 4 | Or -> 5 | Xor -> 6

let alu_of_code = function
  | 0 -> Add | 1 -> Sub | 2 -> Adc | 3 -> Sbb | 4 -> And | 5 -> Or | 6 -> Xor
  | _ -> assert false

let shift_code = function Shl -> 0 | Shr -> 1 | Sar -> 2 | Rol -> 3 | Ror -> 4

let shift_of_code = function
  | 0 -> Shl | 1 -> Shr | 2 -> Sar | 3 -> Rol | 4 -> Ror | _ -> assert false

let cond_code c =
  let rec find i = if all_conds.(i) = c then i else find (i + 1) in
  find 0

let width_code = function W8 -> 0 | W16 -> 1 | W32 -> 2
let width_of_code ~at = function 0 -> W8 | 1 -> W16 | 2 -> W32 | _ -> raise (Bad_encoding at)
let scale_code = function S1 -> 0 | S2 -> 1 | S4 -> 2 | S8 -> 3
let scale_of_code = function 0 -> S1 | 1 -> S2 | 2 -> S4 | _ -> S8
let str_code = function Movs -> 0 | Stos -> 1 | Lods -> 2 | Scas -> 3 | Cmps -> 4

let str_of_code = function
  | 0 -> Movs | 1 -> Stos | 2 -> Lods | 3 -> Scas | 4 -> Cmps | _ -> assert false

let rep_code = function NoRep -> 0 | Rep -> 1 | Repe -> 2 | Repne -> 3
let rep_of_code = function 0 -> NoRep | 1 -> Rep | 2 -> Repe | _ -> Repne

let fbin_code = function Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3
let fbin_of_code = function 0 -> Fadd | 1 -> Fsub | 2 -> Fmul | _ -> Fdiv
let fun_code = function Fsqrt -> 0 | Fsin -> 1 | Fcos -> 2 | Fabs -> 3 | Fchs -> 4

let fun_of_code = function
  | 0 -> Fsqrt | 1 -> Fsin | 2 -> Fcos | 3 -> Fabs | 4 -> Fchs | _ -> assert false

let fits_i8 v = v >= -128 && v <= 127

(* --- emission helpers ------------------------------------------------- *)

let byte buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let i32 buf v =
  byte buf v;
  byte buf (v lsr 8);
  byte buf (v lsr 16);
  byte buf (v lsr 24)

let f64 buf x =
  let bits = Int64.bits_of_float x in
  for i = 0 to 7 do
    byte buf (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

let emit_mem buf { base; index; disp } =
  let shape =
    (match base with None -> 0 | Some _ -> 1)
    lor (match index with None -> 0 | Some _ -> 2)
    lor (match index with None -> 0 | Some (_, s) -> scale_code s lsl 2)
    lor if fits_i8 disp then 0x10 else 0
  in
  byte buf shape;
  (match base with None -> () | Some r -> byte buf (reg_index r));
  (match index with None -> () | Some (r, _) -> byte buf (reg_index r));
  if fits_i8 disp then byte buf disp else i32 buf disp

let mem_len { base; index; disp } =
  1
  + (match base with None -> 0 | Some _ -> 1)
  + (match index with None -> 0 | Some _ -> 1)
  + if fits_i8 disp then 1 else 4

let emit_operand buf = function
  | Reg r -> byte buf (reg_index r lsl 2)
  | Imm n ->
    byte buf 1;
    i32 buf n
  | Mem m ->
    byte buf 2;
    emit_mem buf m

let operand_len = function Reg _ -> 1 | Imm _ -> 5 | Mem m -> 1 + mem_len m

(* Control-transfer encodings use a fixed 4-byte relative displacement,
   measured from the end of the instruction. *)
let rel_len = 4

let rec length (i : insn) =
  match i with
  | Nop | Ret | Syscall | Halt -> 1
  | Mov (d, s) | Alu (_, d, s) | Cmp (d, s) | Test (d, s) ->
    1 + (match i with Alu _ -> 1 | _ -> 0) + operand_len d + operand_len s
  | Movx (_, _, _, m) -> 3 + mem_len m
  | Movw (_, m, _) -> 3 + mem_len m
  | Lea (_, m) -> 2 + mem_len m
  | Inc d | Dec d | Neg d | Not d -> 1 + operand_len d
  | Shift (_, d, c) -> 2 + operand_len d + operand_len c
  | Mul s | Imul s | Div s | Idiv s | Push s | JmpInd s | CallInd s ->
    1 + operand_len s
  | Imul2 (_, s) -> 2 + operand_len s
  | Pop _ -> 2
  | Jmp _ | Call _ -> 1 + rel_len
  | Jcc (_, _) -> 2 + rel_len
  | Cmov (_, _, s) -> 3 + operand_len s
  | Setcc (_, _) -> 3
  | Str (_, _, _) -> 2
  | Fld (_, m) -> 2 + mem_len m
  | Fst (m, _) -> 2 + mem_len m
  | Fmov _ | Fcmp _ | Fild _ | Fist _ -> 3
  | Fldi _ -> 2 + 8
  | Fbin _ -> 4
  | Fun_ _ -> 3

and encode ~pc (i : insn) =
  let buf = Buffer.create 8 in
  let rel target = Semantics.mask32 (target - (pc + length i)) in
  (match i with
  | Nop -> byte buf op_nop
  | Mov (d, s) ->
    byte buf op_mov;
    emit_operand buf d;
    emit_operand buf s
  | Movx (w, signed, r, m) ->
    byte buf op_movx;
    byte buf (width_code w lor if signed then 4 else 0);
    byte buf (reg_index r);
    emit_mem buf m
  | Movw (w, m, r) ->
    byte buf op_movw;
    byte buf (width_code w);
    byte buf (reg_index r);
    emit_mem buf m
  | Lea (r, m) ->
    byte buf op_lea;
    byte buf (reg_index r);
    emit_mem buf m
  | Alu (o, d, s) ->
    byte buf op_alu;
    byte buf (alu_code o);
    emit_operand buf d;
    emit_operand buf s
  | Cmp (d, s) ->
    byte buf op_cmp;
    emit_operand buf d;
    emit_operand buf s
  | Test (d, s) ->
    byte buf op_test;
    emit_operand buf d;
    emit_operand buf s
  | Inc d ->
    byte buf op_inc;
    emit_operand buf d
  | Dec d ->
    byte buf op_dec;
    emit_operand buf d
  | Neg d ->
    byte buf op_neg;
    emit_operand buf d
  | Not d ->
    byte buf op_not;
    emit_operand buf d
  | Shift (o, d, c) ->
    byte buf op_shift;
    byte buf (shift_code o);
    emit_operand buf d;
    emit_operand buf c
  | Mul s ->
    byte buf op_mul;
    emit_operand buf s
  | Imul s ->
    byte buf op_imul;
    emit_operand buf s
  | Imul2 (r, s) ->
    byte buf op_imul2;
    byte buf (reg_index r);
    emit_operand buf s
  | Div s ->
    byte buf op_div;
    emit_operand buf s
  | Idiv s ->
    byte buf op_idiv;
    emit_operand buf s
  | Push s ->
    byte buf op_push;
    emit_operand buf s
  | Pop r ->
    byte buf op_pop;
    byte buf (reg_index r)
  | Jmp t ->
    byte buf op_jmp;
    i32 buf (rel t)
  | JmpInd s ->
    byte buf op_jmpind;
    emit_operand buf s
  | Jcc (c, t) ->
    byte buf op_jcc;
    byte buf (cond_code c);
    i32 buf (rel t)
  | Call t ->
    byte buf op_call;
    i32 buf (rel t)
  | CallInd s ->
    byte buf op_callind;
    emit_operand buf s
  | Ret -> byte buf op_ret
  | Cmov (c, r, s) ->
    byte buf op_cmov;
    byte buf (cond_code c);
    byte buf (reg_index r);
    emit_operand buf s
  | Setcc (c, r) ->
    byte buf op_setcc;
    byte buf (cond_code c);
    byte buf (reg_index r)
  | Str (k, w, r) ->
    byte buf op_str;
    byte buf (str_code k lor (width_code w lsl 3) lor (rep_code r lsl 5))
  | Fld (f, m) ->
    byte buf op_fld;
    byte buf (freg_index f);
    emit_mem buf m
  | Fst (m, f) ->
    byte buf op_fst;
    byte buf (freg_index f);
    emit_mem buf m
  | Fmov (d, s) ->
    byte buf op_fmov;
    byte buf (freg_index d);
    byte buf (freg_index s)
  | Fldi (f, v) ->
    byte buf op_fldi;
    byte buf (freg_index f);
    f64 buf v
  | Fbin (o, d, s) ->
    byte buf op_fbin;
    byte buf (fbin_code o);
    byte buf (freg_index d);
    byte buf (freg_index s)
  | Fun_ (o, f) ->
    byte buf op_fun;
    byte buf (fun_code o);
    byte buf (freg_index f)
  | Fcmp (a, b) ->
    byte buf op_fcmp;
    byte buf (freg_index a);
    byte buf (freg_index b)
  | Fild (f, r) ->
    byte buf op_fild;
    byte buf (freg_index f);
    byte buf (reg_index r)
  | Fist (r, f) ->
    byte buf op_fist;
    byte buf (reg_index r);
    byte buf (freg_index f)
  | Syscall -> byte buf op_syscall
  | Halt -> byte buf op_halt);
  let b = Buffer.to_bytes buf in
  assert (Bytes.length b = length i);
  b

(* --- decoding --------------------------------------------------------- *)

type cursor = { fetch : int -> int; mutable pos : int }

let next cur =
  let v = cur.fetch cur.pos in
  cur.pos <- cur.pos + 1;
  v land 0xFF

let read_i32 cur =
  let a = next cur in
  let b = next cur in
  let c = next cur in
  let d = next cur in
  a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

let read_i8s cur =
  let v = next cur in
  if v >= 128 then v - 256 else v

let read_i32s cur =
  let v = read_i32 cur in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let read_f64 cur =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (next cur)) (8 * i))
  done;
  Int64.float_of_bits !bits

let read_reg cur = reg_of_index (next cur land 7)
let read_freg cur = freg_of_index (next cur land 7)

let read_mem cur =
  let shape = next cur in
  let base = if shape land 1 <> 0 then Some (read_reg cur) else None in
  let index =
    if shape land 2 <> 0 then
      let r = read_reg cur in
      Some (r, scale_of_code ((shape lsr 2) land 3))
    else None
  in
  let disp = if shape land 0x10 <> 0 then read_i8s cur else read_i32s cur in
  { base; index; disp }

let read_operand ~at cur =
  let tag = next cur in
  match tag land 3 with
  | 0 -> Reg (reg_of_index ((tag lsr 2) land 7))
  | 1 -> Imm (read_i32 cur)
  | 2 -> Mem (read_mem cur)
  | _ -> raise (Bad_encoding at)

let decode ~fetch ~pc =
  let cur = { fetch; pos = pc } in
  let operand () = read_operand ~at:pc cur in
  let opcode = next cur in
  let insn =
    if opcode = op_nop then Nop
    else if opcode = op_mov then
      let d = operand () in
      let s = operand () in
      Mov (d, s)
    else if opcode = op_movx then begin
      let sub = next cur in
      let r = read_reg cur in
      Movx (width_of_code ~at:pc (sub land 3), sub land 4 <> 0, r, read_mem cur)
    end
    else if opcode = op_movw then begin
      let sub = next cur in
      let r = read_reg cur in
      Movw (width_of_code ~at:pc (sub land 3), read_mem cur, r)
    end
    else if opcode = op_lea then
      let r = read_reg cur in
      Lea (r, read_mem cur)
    else if opcode = op_alu then begin
      let sub = next cur in
      if sub > 6 then raise (Bad_encoding pc);
      let d = operand () in
      let s = operand () in
      Alu (alu_of_code sub, d, s)
    end
    else if opcode = op_cmp then
      let d = operand () in
      let s = operand () in
      Cmp (d, s)
    else if opcode = op_test then
      let d = operand () in
      let s = operand () in
      Test (d, s)
    else if opcode = op_inc then Inc (operand ())
    else if opcode = op_dec then Dec (operand ())
    else if opcode = op_neg then Neg (operand ())
    else if opcode = op_not then Not (operand ())
    else if opcode = op_shift then begin
      let sub = next cur in
      if sub > 4 then raise (Bad_encoding pc);
      let d = operand () in
      let c = operand () in
      Shift (shift_of_code sub, d, c)
    end
    else if opcode = op_mul then Mul (operand ())
    else if opcode = op_imul then Imul (operand ())
    else if opcode = op_imul2 then
      let r = read_reg cur in
      Imul2 (r, operand ())
    else if opcode = op_div then Div (operand ())
    else if opcode = op_idiv then Idiv (operand ())
    else if opcode = op_push then Push (operand ())
    else if opcode = op_pop then Pop (read_reg cur)
    else if opcode = op_jmp then
      let rel = read_i32s cur in
      Jmp (Semantics.mask32 (cur.pos + rel))
    else if opcode = op_jmpind then JmpInd (operand ())
    else if opcode = op_jcc then begin
      let c = next cur in
      if c >= Array.length all_conds then raise (Bad_encoding pc);
      let rel = read_i32s cur in
      Jcc (all_conds.(c), Semantics.mask32 (cur.pos + rel))
    end
    else if opcode = op_call then
      let rel = read_i32s cur in
      Call (Semantics.mask32 (cur.pos + rel))
    else if opcode = op_callind then CallInd (operand ())
    else if opcode = op_ret then Ret
    else if opcode = op_cmov then begin
      let c = next cur in
      if c >= Array.length all_conds then raise (Bad_encoding pc);
      let r = read_reg cur in
      Cmov (all_conds.(c), r, operand ())
    end
    else if opcode = op_setcc then begin
      let c = next cur in
      if c >= Array.length all_conds then raise (Bad_encoding pc);
      Setcc (all_conds.(c), read_reg cur)
    end
    else if opcode = op_str then begin
      let sub = next cur in
      if sub land 7 > 4 || (sub lsr 3) land 3 > 2 then raise (Bad_encoding pc);
      Str (str_of_code (sub land 7), width_of_code ~at:pc ((sub lsr 3) land 3), rep_of_code (sub lsr 5))
    end
    else if opcode = op_fld then
      let f = read_freg cur in
      Fld (f, read_mem cur)
    else if opcode = op_fst then
      let f = read_freg cur in
      Fst (read_mem cur, f)
    else if opcode = op_fmov then
      let d = read_freg cur in
      Fmov (d, read_freg cur)
    else if opcode = op_fldi then
      let f = read_freg cur in
      Fldi (f, read_f64 cur)
    else if opcode = op_fbin then begin
      let sub = next cur in
      if sub > 3 then raise (Bad_encoding pc);
      let d = read_freg cur in
      Fbin (fbin_of_code sub, d, read_freg cur)
    end
    else if opcode = op_fun then begin
      let sub = next cur in
      if sub > 4 then raise (Bad_encoding pc);
      Fun_ (fun_of_code sub, read_freg cur)
    end
    else if opcode = op_fcmp then
      let a = read_freg cur in
      Fcmp (a, read_freg cur)
    else if opcode = op_fild then
      let f = read_freg cur in
      Fild (f, read_reg cur)
    else if opcode = op_fist then
      let r = read_reg cur in
      Fist (r, read_freg cur)
    else if opcode = op_syscall then Syscall
    else if opcode = op_halt then Halt
    else raise (Bad_encoding pc)
  in
  (insn, cur.pos - pc)

(* --- canonicalization -------------------------------------------------- *)

let canon_operand = function
  | Imm n -> Imm (Semantics.mask32 n)
  | (Reg _ | Mem _) as o -> o

let canonical = function
  | Mov (d, s) -> Mov (canon_operand d, canon_operand s)
  | Alu (o, d, s) -> Alu (o, canon_operand d, canon_operand s)
  | Cmp (d, s) -> Cmp (canon_operand d, canon_operand s)
  | Test (d, s) -> Test (canon_operand d, canon_operand s)
  | Inc d -> Inc (canon_operand d)
  | Dec d -> Dec (canon_operand d)
  | Neg d -> Neg (canon_operand d)
  | Not d -> Not (canon_operand d)
  | Shift (o, d, c) -> Shift (o, canon_operand d, canon_operand c)
  | Mul s -> Mul (canon_operand s)
  | Imul s -> Imul (canon_operand s)
  | Imul2 (r, s) -> Imul2 (r, canon_operand s)
  | Div s -> Div (canon_operand s)
  | Idiv s -> Idiv (canon_operand s)
  | Push s -> Push (canon_operand s)
  | JmpInd s -> JmpInd (canon_operand s)
  | CallInd s -> CallInd (canon_operand s)
  | Cmov (c, r, s) -> Cmov (c, r, canon_operand s)
  | i -> i
