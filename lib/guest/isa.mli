(** Gx86: the guest ISA.

    A 32-bit x86-flavoured CISC instruction set.  It keeps every property a
    co-designed translation layer has to contend with — two-operand
    destructive ALU forms with condition-code side effects, memory operands
    with base+index*scale+displacement addressing, variable-length binary
    encoding, push/pop and call/ret stack discipline, REP-prefixed string
    instructions, and x87-style floating point including transcendentals
    that the host must emulate in software.

    Divergences from real x86 (documented in DESIGN.md): flat 8-register FP
    file instead of the x87 stack, no parity/aux flags, no segmentation, no
    16-bit operand-size prefixes (8/16-bit accesses exist as widened
    loads/stores), string direction always ascending. *)

(** The eight general-purpose 32-bit registers. *)
type reg = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI

(** The eight 64-bit floating-point registers. *)
type freg = F0 | F1 | F2 | F3 | F4 | F5 | F6 | F7

type scale = S1 | S2 | S4 | S8

(** A memory operand: [base + index*scale + disp]. *)
type mem = { base : reg option; index : (reg * scale) option; disp : int }

type operand = Reg of reg | Imm of int | Mem of mem

type width = W8 | W16 | W32

(** Two-operand ALU instructions; all set CF/ZF/SF/OF. *)
type alu_op = Add | Sub | Adc | Sbb | And | Or | Xor

type shift_op = Shl | Shr | Sar | Rol | Ror

type cond =
  | E | NE            (* ZF *)
  | L | LE | G | GE   (* signed *)
  | B | BE | A | AE   (* unsigned *)
  | S | NS            (* SF *)
  | O | NO            (* OF *)

type str_kind = Movs | Stos | Lods | Scas | Cmps

type rep = NoRep | Rep | Repe | Repne

type fp_bin = Fadd | Fsub | Fmul | Fdiv

(** [Fsin]/[Fcos] have no host-instruction equivalent and are emulated in
    software by the translation layer, as in the paper's Physicsbench
    analysis. *)
type fp_un = Fsqrt | Fsin | Fcos | Fabs | Fchs

type insn =
  | Nop
  | Mov of operand * operand               (** dst, src; not mem,mem *)
  | Movx of width * bool * reg * mem       (** movzx/movsx: width, signed *)
  | Movw of width * mem * reg              (** narrow store of low bits *)
  | Lea of reg * mem
  | Alu of alu_op * operand * operand      (** dst, src; not mem,mem *)
  | Cmp of operand * operand
  | Test of operand * operand
  | Inc of operand
  | Dec of operand
  | Neg of operand
  | Not of operand                         (** does not touch flags *)
  | Shift of shift_op * operand * operand  (** dst, count (Imm or Reg ECX) *)
  | Mul of operand                         (** EDX:EAX <- EAX * src, unsigned *)
  | Imul of operand                        (** EDX:EAX <- EAX * src, signed *)
  | Imul2 of reg * operand                 (** truncating two-operand form *)
  | Div of operand                         (** EAX,EDX <- EDX:EAX /,% src *)
  | Idiv of operand
  | Push of operand
  | Pop of reg
  | Jmp of int                             (** absolute guest address *)
  | JmpInd of operand
  | Jcc of cond * int
  | Call of int
  | CallInd of operand
  | Ret
  | Cmov of cond * reg * operand
  | Setcc of cond * reg
  | Str of str_kind * width * rep
  | Fld of freg * mem                      (** load f64 *)
  | Fst of mem * freg                      (** store f64 *)
  | Fmov of freg * freg
  | Fldi of freg * float
  | Fbin of fp_bin * freg * freg           (** dst <- dst op src *)
  | Fun_ of fp_un * freg
  | Fcmp of freg * freg                    (** sets ZF/CF as FCOMI *)
  | Fild of freg * reg                     (** int -> float *)
  | Fist of reg * freg                     (** float -> int, truncating *)
  | Syscall                                (** EAX = number; EBX/ECX/EDX args *)
  | Halt

val all_regs : reg array
val all_fregs : freg array
val all_conds : cond array

val reg_index : reg -> int
val reg_of_index : int -> reg
val freg_index : freg -> int
val freg_of_index : int -> freg
val scale_factor : scale -> int
val width_bytes : width -> int

val negate_cond : cond -> cond

val pp_reg : Format.formatter -> reg -> unit
val pp_insn : Format.formatter -> insn -> unit
val to_string : insn -> string
