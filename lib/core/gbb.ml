open Darco_guest

type term =
  | Tjmp of int
  | Tjcc of Isa.cond * int * int
  | Tcall of int * int
  | Tcallind of Isa.operand * int
  | Tjmpind of Isa.operand
  | Tret
  | Tsyscall of int
  | Thalt
  | Tinterp of int
  | Tsplit of int

type t = {
  pc : int;
  body : (Isa.insn * int * int) list;
  term : term;
  term_len : int;
  insn_count : int;
}

let max_bb_insns = 512

let decode icache mem entry_pc =
  let rec scan pc acc count =
    let insn, len = Step.fetch icache mem pc in
    if Step.is_interp_only insn then
      (List.rev acc, Tinterp pc, 0, count)
    else if count >= max_bb_insns then (List.rev acc, Tsplit pc, 0, count)
    else begin
      let next = Semantics.mask32 (pc + len) in
      match insn with
      | Isa.Jmp t -> (List.rev acc, Tjmp t, len, count + 1)
      | Isa.Jcc (c, t) -> (List.rev acc, Tjcc (c, t, next), len, count + 1)
      | Isa.Call t -> (List.rev acc, Tcall (t, next), len, count + 1)
      | Isa.CallInd op -> (List.rev acc, Tcallind (op, next), len, count + 1)
      | Isa.JmpInd op -> (List.rev acc, Tjmpind op, len, count + 1)
      | Isa.Ret -> (List.rev acc, Tret, len, count + 1)
      | Isa.Syscall -> (List.rev acc, Tsyscall pc, len, count + 1)
      | Isa.Halt -> (List.rev acc, Thalt, len, count + 1)
      | _ -> scan next ((insn, pc, len) :: acc) (count + 1)
    end
  in
  let body, term, term_len, insn_count = scan entry_pc [] 0 in
  { pc = entry_pc; body; term; term_len; insn_count }
