open Darco_guest

type reg = int
type freg = int

type binop =
  | Add | Sub | Mul | Mulhu | Mulhs
  | And | Or | Xor
  | Shl | Shr | Sar
  | Slt | Sltu | Seq | Sne

type cmp = Beq | Bne | Blt | Bge | Bltu | Bgeu
type fbinop = Fadd | Fsub | Fmul | Fdiv
type funop = Fsqrt | Fabs | Fneg
type rt_fn = Rt_sin | Rt_cos | Rt_divu | Rt_divs

(* The service-routine instruction counts stand in for the paper's software
   emulation of complex guest instructions: transcendentals dominate (the
   Physicsbench observation), division is cheaper. *)
let rt_cost = function Rt_sin -> 46 | Rt_cos -> 46 | Rt_divu -> 22 | Rt_divs -> 24

type flkind =
  | Fl_add | Fl_adc | Fl_sub | Fl_sbb
  | Fl_logic
  | Fl_shl | Fl_shr | Fl_sar | Fl_rol | Fl_ror
  | Fl_inc | Fl_dec | Fl_neg
  | Fl_mulu | Fl_muls

type exit_kind =
  | Exit_direct of int
  | Exit_indirect of reg
  | Exit_syscall of int
  | Exit_interp of int
  | Exit_promote of int
  | Exit_halt

type region = {
  id : int;
  entry_pc : int;
  mode : [ `Bb | `Super ];
  mutable base : int;
  mutable code : insn array;
  mutable incoming : exit_info list;
  mutable invalidated : bool;
}

and exit_info = {
  exit_id : int;
  kind : exit_kind;
  guest_retired : int;
  mutable chain : region option;
  prefer_bb : bool;
}

and insn =
  | Nop
  | Li of reg * int
  | Bin of binop * reg * reg * reg
  | Bini of binop * reg * reg * int
  | Load of Isa.width * bool * reg * reg * int
  | Sload of Isa.width * bool * reg * reg * int
  | Store of Isa.width * reg * reg * int
  | Fli of freg * float
  | Fmov of freg * freg
  | Fbin of fbinop * freg * freg * freg
  | Fun of funop * freg * freg
  | Fload of freg * reg * int
  | Fstore of freg * reg * int
  | Fcmp of reg * freg * freg
  | Cvtif of freg * reg
  | Cvtfi of reg * freg
  | Mkfl of flkind * reg * reg * reg * reg
  | Isel of reg * reg * reg * reg
  | Callrt_f of rt_fn * freg * freg
  | Callrt_div of { signed : bool; q : reg; r : reg; hi : reg; lo : reg; d : reg }
  | B of cmp * reg * reg * int
  | J of int
  | Jr of reg * reg
  | Assert of cmp * reg * reg
  | Chk
  | Commit of int
  | Exit of exit_info

let exit_of = function Exit e -> Some e | _ -> None
let host_pc region idx = region.base + (4 * idx)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Mulhu -> "mulhu" | Mulhs -> "mulhs"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shr -> "shr" | Sar -> "sar"
  | Slt -> "slt" | Sltu -> "sltu" | Seq -> "seq" | Sne -> "sne"

let cmp_name = function
  | Beq -> "eq" | Bne -> "ne" | Blt -> "lt" | Bge -> "ge" | Bltu -> "ltu" | Bgeu -> "geu"

let fbinop_name = function Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
let funop_name = function Fsqrt -> "fsqrt" | Fabs -> "fabs" | Fneg -> "fneg"
let rt_name = function Rt_sin -> "sin" | Rt_cos -> "cos" | Rt_divu -> "divu" | Rt_divs -> "divs"
let width_tag (w : Isa.width) = match w with W8 -> "b" | W16 -> "h" | W32 -> "w"

let flkind_name = function
  | Fl_add -> "add" | Fl_adc -> "adc" | Fl_sub -> "sub" | Fl_sbb -> "sbb"
  | Fl_logic -> "logic"
  | Fl_shl -> "shl" | Fl_shr -> "shr" | Fl_sar -> "sar" | Fl_rol -> "rol"
  | Fl_ror -> "ror"
  | Fl_inc -> "inc" | Fl_dec -> "dec" | Fl_neg -> "neg"
  | Fl_mulu -> "mulu" | Fl_muls -> "muls"

let exit_kind_to_string = function
  | Exit_direct pc -> Printf.sprintf "direct:0x%x" pc
  | Exit_indirect r -> Printf.sprintf "indirect:r%d" r
  | Exit_syscall pc -> Printf.sprintf "syscall:0x%x" pc
  | Exit_interp pc -> Printf.sprintf "interp:0x%x" pc
  | Exit_promote pc -> Printf.sprintf "promote:0x%x" pc
  | Exit_halt -> "halt"

let insn_to_string = function
  | Nop -> "nop"
  | Li (rd, v) -> Printf.sprintf "li r%d, 0x%x" rd v
  | Bin (op, rd, ra, rb) -> Printf.sprintf "%s r%d, r%d, r%d" (binop_name op) rd ra rb
  | Bini (op, rd, ra, v) -> Printf.sprintf "%si r%d, r%d, %d" (binop_name op) rd ra v
  | Load (w, s, rd, ra, d) ->
    Printf.sprintf "l%s%s r%d, [r%d%+d]" (width_tag w) (if s then "s" else "") rd ra d
  | Sload (w, s, rd, ra, d) ->
    Printf.sprintf "l%s%s.spec r%d, [r%d%+d]" (width_tag w) (if s then "s" else "") rd ra d
  | Store (w, rv, ra, d) -> Printf.sprintf "s%s r%d, [r%d%+d]" (width_tag w) rv ra d
  | Fli (fd, v) -> Printf.sprintf "fli f%d, %g" fd v
  | Fmov (fd, fs) -> Printf.sprintf "fmov f%d, f%d" fd fs
  | Fbin (op, fd, fa, fb) -> Printf.sprintf "%s f%d, f%d, f%d" (fbinop_name op) fd fa fb
  | Fun (op, fd, fa) -> Printf.sprintf "%s f%d, f%d" (funop_name op) fd fa
  | Fload (fd, ra, d) -> Printf.sprintf "lfd f%d, [r%d%+d]" fd ra d
  | Fstore (fv, ra, d) -> Printf.sprintf "sfd f%d, [r%d%+d]" fv ra d
  | Fcmp (rd, fa, fb) -> Printf.sprintf "fcmp r%d, f%d, f%d" rd fa fb
  | Cvtif (fd, ra) -> Printf.sprintf "cvtif f%d, r%d" fd ra
  | Cvtfi (rd, fa) -> Printf.sprintf "cvtfi r%d, f%d" rd fa
  | Mkfl (k, rd, a, b, c) ->
    Printf.sprintf "mkfl.%s r%d, r%d, r%d, r%d" (flkind_name k) rd a b c
  | Isel (rd, rc, ra, rb) -> Printf.sprintf "isel r%d, r%d ? r%d : r%d" rd rc ra rb
  | Callrt_f (fn, fd, fs) -> Printf.sprintf "call.%s f%d, f%d" (rt_name fn) fd fs
  | Callrt_div { signed; q; r; hi; lo; d } ->
    Printf.sprintf "call.div%s r%d, r%d, (r%d:r%d / r%d)" (if signed then "s" else "u") q r
      hi lo d
  | B (c, ra, rb, t) -> Printf.sprintf "b%s r%d, r%d, @%d" (cmp_name c) ra rb t
  | J t -> Printf.sprintf "j @%d" t
  | Jr (ra, rg) -> Printf.sprintf "jr r%d (guest r%d)" ra rg
  | Assert (c, ra, rb) -> Printf.sprintf "assert.%s r%d, r%d" (cmp_name c) ra rb
  | Chk -> "chk"
  | Commit n -> Printf.sprintf "commit (retire %d)" n
  | Exit e ->
    Printf.sprintf "exit %s (retired %d)%s" (exit_kind_to_string e.kind) e.guest_retired
      (match e.chain with None -> "" | Some r -> Printf.sprintf " -> region %d" r.id)

let pp_insn ppf i = Format.pp_print_string ppf (insn_to_string i)

let pp_region ppf r =
  Format.fprintf ppf "@[<v>region %d (%s) guest 0x%x, base 0x%x%s@ " r.id
    (match r.mode with `Bb -> "bb" | `Super -> "super")
    r.entry_pc r.base
    (if r.invalidated then " INVALIDATED" else "");
  Array.iteri (fun i insn -> Format.fprintf ppf "  @%d: %s@ " i (insn_to_string insn)) r.code;
  Format.fprintf ppf "@]"

(* Operand sets, written into a caller-owned scratch array.  r0 is
   hard-wired zero: it is never a real definition and reading it carries
   no dependence, so the integer sets skip it. *)
let max_operands = 3

let[@inline] put1 dst a = if a = 0 then 0 else begin dst.(0) <- a; 1 end

let[@inline] put2 dst a b =
  let n = put1 dst a in
  if b = 0 then n else begin dst.(n) <- b; n + 1 end

let put3 dst a b c =
  let n = put2 dst a b in
  if c = 0 then n else begin dst.(n) <- c; n + 1 end

let defs insn dst =
  match insn with
  | Li (rd, _) | Bin (_, rd, _, _) | Bini (_, rd, _, _)
  | Load (_, _, rd, _, _) | Sload (_, _, rd, _, _)
  | Fcmp (rd, _, _) | Cvtfi (rd, _) | Mkfl (_, rd, _, _, _) | Isel (rd, _, _, _) ->
    put1 dst rd
  | Callrt_div { q; r; _ } -> put2 dst q r
  | Nop | Store _ | Fli _ | Fmov _ | Fbin _ | Fun _ | Fload _ | Fstore _ | Cvtif _
  | Callrt_f _ | B _ | J _ | Jr _ | Assert _ | Chk | Commit _ | Exit _ ->
    0

let uses insn dst =
  match insn with
  | Bin (_, _, ra, rb) | B (_, ra, rb, _) | Assert (_, ra, rb) -> put2 dst ra rb
  | Mkfl (_, _, ra, rb, rc) -> put3 dst ra rb rc
  | Isel (_, rc, ra, rb) -> put3 dst rc ra rb
  | Bini (_, _, ra, _) | Load (_, _, _, ra, _) | Sload (_, _, _, ra, _)
  | Fload (_, ra, _) | Cvtif (_, ra) ->
    put1 dst ra
  | Store (_, rv, ra, _) -> put2 dst rv ra
  | Fstore (_, ra, _) -> put1 dst ra
  | Jr (ra, rg) -> put2 dst ra rg
  | Callrt_div { hi; lo; d; _ } -> put3 dst hi lo d
  | Exit e -> (
    match e.kind with
    | Exit_indirect r -> put1 dst r
    | Exit_direct _ | Exit_syscall _ | Exit_interp _ | Exit_promote _ | Exit_halt -> 0)
  | Nop | Li _ | Fli _ | Fmov _ | Fbin _ | Fun _ | Fcmp _ | Cvtfi _ | Callrt_f _ | J _
  | Chk | Commit _ ->
    0

let fdefs insn dst =
  match insn with
  | Fli (fd, _) | Fmov (fd, _) | Fbin (_, fd, _, _) | Fun (_, fd, _) | Fload (fd, _, _)
  | Cvtif (fd, _) | Callrt_f (_, fd, _) ->
    dst.(0) <- fd;
    1
  | Nop | Li _ | Bin _ | Bini _ | Load _ | Sload _ | Store _ | Fstore _ | Fcmp _
  | Cvtfi _ | Mkfl _ | Isel _ | Callrt_div _ | B _ | J _ | Jr _ | Assert _ | Chk
  | Commit _ | Exit _ ->
    0

let fuses insn dst =
  match insn with
  | Fmov (_, fs) | Fun (_, _, fs) | Cvtfi (_, fs) | Callrt_f (_, _, fs) | Fstore (fs, _, _) ->
    dst.(0) <- fs;
    1
  | Fbin (_, _, fa, fb) | Fcmp (_, fa, fb) ->
    dst.(0) <- fa;
    dst.(1) <- fb;
    2
  | Nop | Li _ | Bin _ | Bini _ | Load _ | Sload _ | Store _ | Fli _ | Fload _ | Cvtif _
  | Mkfl _ | Isel _ | Callrt_div _ | B _ | J _ | Jr _ | Assert _ | Chk | Commit _
  | Exit _ ->
    0
