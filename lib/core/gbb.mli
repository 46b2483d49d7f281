open Darco_guest

(** Guest basic blocks as the translator sees them: decoded from the
    co-designed component's memory image, ending at a control transfer or
    just before an interpreter-only instruction. *)

type term =
  | Tjmp of int
  | Tjcc of Isa.cond * int * int      (** condition, taken target, fallthrough *)
  | Tcall of int * int                (** target, return address *)
  | Tcallind of Isa.operand * int     (** operand, return address *)
  | Tjmpind of Isa.operand
  | Tret
  | Tsyscall of int                   (** PC of the syscall instruction *)
  | Thalt
  | Tinterp of int                    (** PC of the interpreter-only insn *)
  | Tsplit of int                     (** length cap reached; next PC *)

type t = {
  pc : int;
  body : (Isa.insn * int * int) list;  (** (insn, pc, len), terminator excluded *)
  term : term;
  term_len : int;    (** encoded length of the terminator (0 for Tinterp/Tsplit) *)
  insn_count : int;  (** body + terminator (terminator counts except
                         Tinterp/Tsplit) *)
}

val decode : Step.icache -> Memory.t -> int -> t
(** Decode the basic block starting at the given guest PC. *)
