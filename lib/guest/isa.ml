type reg = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI
type freg = F0 | F1 | F2 | F3 | F4 | F5 | F6 | F7
type scale = S1 | S2 | S4 | S8
type mem = { base : reg option; index : (reg * scale) option; disp : int }
type operand = Reg of reg | Imm of int | Mem of mem
type width = W8 | W16 | W32
type alu_op = Add | Sub | Adc | Sbb | And | Or | Xor
type shift_op = Shl | Shr | Sar | Rol | Ror

type cond =
  | E | NE
  | L | LE | G | GE
  | B | BE | A | AE
  | S | NS
  | O | NO

type str_kind = Movs | Stos | Lods | Scas | Cmps
type rep = NoRep | Rep | Repe | Repne
type fp_bin = Fadd | Fsub | Fmul | Fdiv
type fp_un = Fsqrt | Fsin | Fcos | Fabs | Fchs

type insn =
  | Nop
  | Mov of operand * operand
  | Movx of width * bool * reg * mem
  | Movw of width * mem * reg
  | Lea of reg * mem
  | Alu of alu_op * operand * operand
  | Cmp of operand * operand
  | Test of operand * operand
  | Inc of operand
  | Dec of operand
  | Neg of operand
  | Not of operand
  | Shift of shift_op * operand * operand
  | Mul of operand
  | Imul of operand
  | Imul2 of reg * operand
  | Div of operand
  | Idiv of operand
  | Push of operand
  | Pop of reg
  | Jmp of int
  | JmpInd of operand
  | Jcc of cond * int
  | Call of int
  | CallInd of operand
  | Ret
  | Cmov of cond * reg * operand
  | Setcc of cond * reg
  | Str of str_kind * width * rep
  | Fld of freg * mem
  | Fst of mem * freg
  | Fmov of freg * freg
  | Fldi of freg * float
  | Fbin of fp_bin * freg * freg
  | Fun_ of fp_un * freg
  | Fcmp of freg * freg
  | Fild of freg * reg
  | Fist of reg * freg
  | Syscall
  | Halt

let all_regs = [| EAX; ECX; EDX; EBX; ESP; EBP; ESI; EDI |]
let all_fregs = [| F0; F1; F2; F3; F4; F5; F6; F7 |]

let all_conds = [| E; NE; L; LE; G; GE; B; BE; A; AE; S; NS; O; NO |]

let[@inline] reg_index = function
  | EAX -> 0 | ECX -> 1 | EDX -> 2 | EBX -> 3
  | ESP -> 4 | EBP -> 5 | ESI -> 6 | EDI -> 7

let reg_of_index i = all_regs.(i)

let[@inline] freg_index = function
  | F0 -> 0 | F1 -> 1 | F2 -> 2 | F3 -> 3
  | F4 -> 4 | F5 -> 5 | F6 -> 6 | F7 -> 7

let freg_of_index i = all_fregs.(i)
let scale_factor = function S1 -> 1 | S2 -> 2 | S4 -> 4 | S8 -> 8
let width_bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4

let negate_cond = function
  | E -> NE | NE -> E
  | L -> GE | GE -> L
  | LE -> G | G -> LE
  | B -> AE | AE -> B
  | BE -> A | A -> BE
  | S -> NS | NS -> S
  | O -> NO | NO -> O

let reg_name = function
  | EAX -> "eax" | ECX -> "ecx" | EDX -> "edx" | EBX -> "ebx"
  | ESP -> "esp" | EBP -> "ebp" | ESI -> "esi" | EDI -> "edi"

let pp_reg ppf r = Format.pp_print_string ppf (reg_name r)

let freg_name f = Printf.sprintf "f%d" (freg_index f)

let mem_to_string { base; index; disp } =
  let parts =
    (match base with None -> [] | Some r -> [ reg_name r ])
    @ (match index with
      | None -> []
      | Some (r, s) -> [ Printf.sprintf "%s*%d" (reg_name r) (scale_factor s) ])
    @ (if disp <> 0 || (base = None && index = None) then [ Printf.sprintf "%d" disp ] else [])
  in
  "[" ^ String.concat "+" parts ^ "]"

let operand_to_string = function
  | Reg r -> reg_name r
  | Imm n -> Printf.sprintf "$%d" n
  | Mem m -> mem_to_string m

let cond_name = function
  | E -> "e" | NE -> "ne" | L -> "l" | LE -> "le" | G -> "g" | GE -> "ge"
  | B -> "b" | BE -> "be" | A -> "a" | AE -> "ae" | S -> "s" | NS -> "ns"
  | O -> "o" | NO -> "no"

let alu_name = function
  | Add -> "add" | Sub -> "sub" | Adc -> "adc" | Sbb -> "sbb"
  | And -> "and" | Or -> "or" | Xor -> "xor"

let shift_name = function
  | Shl -> "shl" | Shr -> "shr" | Sar -> "sar" | Rol -> "rol" | Ror -> "ror"

let width_name = function W8 -> "b" | W16 -> "w" | W32 -> "d"

let str_name = function
  | Movs -> "movs" | Stos -> "stos" | Lods -> "lods" | Scas -> "scas" | Cmps -> "cmps"

let rep_name = function NoRep -> "" | Rep -> "rep " | Repe -> "repe " | Repne -> "repne "

let fp_bin_name = function Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let fp_un_name = function
  | Fsqrt -> "fsqrt" | Fsin -> "fsin" | Fcos -> "fcos" | Fabs -> "fabs" | Fchs -> "fchs"

let to_string insn =
  let op = operand_to_string in
  match insn with
  | Nop -> "nop"
  | Mov (d, s) -> Printf.sprintf "mov %s, %s" (op d) (op s)
  | Movx (w, signed, r, m) ->
    Printf.sprintf "mov%cx%s %s, %s" (if signed then 's' else 'z') (width_name w)
      (reg_name r) (mem_to_string m)
  | Movw (w, m, r) -> Printf.sprintf "mov%s %s, %s" (width_name w) (mem_to_string m) (reg_name r)
  | Lea (r, m) -> Printf.sprintf "lea %s, %s" (reg_name r) (mem_to_string m)
  | Alu (o, d, s) -> Printf.sprintf "%s %s, %s" (alu_name o) (op d) (op s)
  | Cmp (a, b) -> Printf.sprintf "cmp %s, %s" (op a) (op b)
  | Test (a, b) -> Printf.sprintf "test %s, %s" (op a) (op b)
  | Inc d -> Printf.sprintf "inc %s" (op d)
  | Dec d -> Printf.sprintf "dec %s" (op d)
  | Neg d -> Printf.sprintf "neg %s" (op d)
  | Not d -> Printf.sprintf "not %s" (op d)
  | Shift (o, d, c) -> Printf.sprintf "%s %s, %s" (shift_name o) (op d) (op c)
  | Mul s -> Printf.sprintf "mul %s" (op s)
  | Imul s -> Printf.sprintf "imul %s" (op s)
  | Imul2 (r, s) -> Printf.sprintf "imul %s, %s" (reg_name r) (op s)
  | Div s -> Printf.sprintf "div %s" (op s)
  | Idiv s -> Printf.sprintf "idiv %s" (op s)
  | Push s -> Printf.sprintf "push %s" (op s)
  | Pop r -> Printf.sprintf "pop %s" (reg_name r)
  | Jmp t -> Printf.sprintf "jmp 0x%x" t
  | JmpInd s -> Printf.sprintf "jmp *%s" (op s)
  | Jcc (c, t) -> Printf.sprintf "j%s 0x%x" (cond_name c) t
  | Call t -> Printf.sprintf "call 0x%x" t
  | CallInd s -> Printf.sprintf "call *%s" (op s)
  | Ret -> "ret"
  | Cmov (c, r, s) -> Printf.sprintf "cmov%s %s, %s" (cond_name c) (reg_name r) (op s)
  | Setcc (c, r) -> Printf.sprintf "set%s %s" (cond_name c) (reg_name r)
  | Str (k, w, r) -> Printf.sprintf "%s%s%s" (rep_name r) (str_name k) (width_name w)
  | Fld (f, m) -> Printf.sprintf "fld %s, %s" (freg_name f) (mem_to_string m)
  | Fst (m, f) -> Printf.sprintf "fst %s, %s" (mem_to_string m) (freg_name f)
  | Fmov (d, s) -> Printf.sprintf "fmov %s, %s" (freg_name d) (freg_name s)
  | Fldi (f, v) -> Printf.sprintf "fldi %s, %g" (freg_name f) v
  | Fbin (o, d, s) -> Printf.sprintf "%s %s, %s" (fp_bin_name o) (freg_name d) (freg_name s)
  | Fun_ (o, f) -> Printf.sprintf "%s %s" (fp_un_name o) (freg_name f)
  | Fcmp (a, b) -> Printf.sprintf "fcmp %s, %s" (freg_name a) (freg_name b)
  | Fild (f, r) -> Printf.sprintf "fild %s, %s" (freg_name f) (reg_name r)
  | Fist (r, f) -> Printf.sprintf "fist %s, %s" (reg_name r) (freg_name f)
  | Syscall -> "syscall"
  | Halt -> "halt"

let pp_insn ppf i = Format.pp_print_string ppf (to_string i)
