open Darco_guest
open Darco_host

type vreg = int
type vfreg = int

type exit_target =
  | Xdirect of int
  | Xindirect of vreg
  | Xsyscall of int
  | Xinterp of int
  | Xhalt

type exit_spec = {
  target : exit_target;
  retired : int;
  prefer_bb : bool;
  edge : int option;
}

type t =
  | Iget of vreg * Isa.reg
  | Iput of Isa.reg * vreg
  | Igetf of vfreg * Isa.freg
  | Iputf of Isa.freg * vfreg
  | Igetfl of vreg
  | Iputfl of vreg
  | Ili of vreg * int
  | Imov of vreg * vreg
  | Ibin of Code.binop * vreg * vreg * vreg
  | Ibini of Code.binop * vreg * vreg * int
  | Imkfl of Code.flkind * vreg * vreg * vreg * vreg
  | Iisel of vreg * vreg * vreg * vreg
  | Iload of Isa.width * bool * vreg * vreg * int
  | Isload of Isa.width * bool * vreg * vreg * int
  | Istore of Isa.width * vreg * vreg * int
  | Ifli of vfreg * float
  | Ifmov of vfreg * vfreg
  | Ifbin of Code.fbinop * vfreg * vfreg * vfreg
  | Ifun of Code.funop * vfreg * vfreg
  | Ifload of vfreg * vreg * int
  | Ifstore of vfreg * vreg * int
  | Ifcmp of vreg * vfreg * vfreg
  | Icvtif of vfreg * vreg
  | Icvtfi of vreg * vfreg
  | Irt_f of Code.rt_fn * vfreg * vfreg
  | Irt_div of { signed : bool; q : vreg; r : vreg; hi : vreg; lo : vreg; d : vreg }
  | Ibr of Code.cmp * vreg * vreg * int
  | Iassert of Code.cmp * vreg * vreg
  | Iexit of exit_spec

let defs = function
  | Iget (v, _) | Igetfl v | Ili (v, _) | Imov (v, _) | Ibin (_, v, _, _)
  | Ibini (_, v, _, _) | Imkfl (_, v, _, _, _) | Iisel (v, _, _, _)
  | Iload (_, _, v, _, _) | Isload (_, _, v, _, _) | Ifcmp (v, _, _) | Icvtfi (v, _) ->
    [ v ]
  | Irt_div { q; r; _ } -> [ q; r ]
  | Iput _ | Igetf _ | Iputf _ | Iputfl _ | Istore _ | Ifli _ | Ifmov _ | Ifbin _
  | Ifun _ | Ifload _ | Ifstore _ | Icvtif _ | Irt_f _ | Ibr _ | Iassert _ | Iexit _ ->
    []

let uses = function
  | Iput (_, v) | Iputfl v | Imov (_, v) | Icvtif (_, v) -> [ v ]
  | Ibin (_, _, a, b) | Ibr (_, a, b, _) | Iassert (_, a, b) -> [ a; b ]
  | Ibini (_, _, a, _) | Iload (_, _, _, a, _) | Isload (_, _, _, a, _)
  | Ifload (_, a, _) ->
    [ a ]
  | Imkfl (_, _, a, b, c) -> [ a; b; c ]
  | Iisel (_, c, a, b) -> [ c; a; b ]
  | Istore (_, v, a, _) -> [ v; a ]
  | Ifstore (_, a, _) -> [ a ]
  | Irt_div { hi; lo; d; _ } -> [ hi; lo; d ]
  | Iexit { target = Xindirect v; _ } -> [ v ]
  | Iget _ | Igetf _ | Iputf _ | Igetfl _ | Ili _ | Ifli _ | Ifmov _ | Ifbin _ | Ifun _
  | Ifcmp _ | Icvtfi _ | Irt_f _
  | Iexit { target = Xdirect _ | Xsyscall _ | Xinterp _ | Xhalt; _ } ->
    []

let fdefs = function
  | Igetf (f, _) | Ifli (f, _) | Ifmov (f, _) | Ifbin (_, f, _, _) | Ifun (_, f, _)
  | Ifload (f, _, _) | Icvtif (f, _) | Irt_f (_, f, _) ->
    [ f ]
  | Iget _ | Iput _ | Iputf _ | Igetfl _ | Iputfl _ | Ili _ | Imov _ | Ibin _ | Ibini _
  | Imkfl _ | Iisel _ | Iload _ | Isload _ | Istore _ | Ifstore _ | Ifcmp _ | Icvtfi _
  | Irt_div _ | Ibr _ | Iassert _ | Iexit _ ->
    []

let fuses = function
  | Iputf (_, f) | Ifmov (_, f) | Ifun (_, _, f) | Ifstore (f, _, _) | Icvtfi (_, f)
  | Irt_f (_, _, f) ->
    [ f ]
  | Ifbin (_, _, a, b) | Ifcmp (_, a, b) -> [ a; b ]
  | Iget _ | Iput _ | Igetf _ | Igetfl _ | Iputfl _ | Ili _ | Imov _ | Ibin _ | Ibini _
  | Imkfl _ | Iisel _ | Iload _ | Isload _ | Istore _ | Ifli _ | Ifload _ | Icvtif _
  | Irt_div _ | Ibr _ | Iassert _ | Iexit _ ->
    []

let has_side_effect = function
  | Iput _ | Iputf _ | Iputfl _ | Istore _ | Ifstore _ | Ibr _ | Iassert _ | Iexit _ ->
    true
  | Iget _ | Igetf _ | Igetfl _ | Ili _ | Imov _ | Ibin _ | Ibini _ | Imkfl _ | Iisel _
  | Iload _ | Isload _ | Ifli _ | Ifmov _ | Ifbin _ | Ifun _ | Ifload _ | Ifcmp _
  | Icvtif _ | Icvtfi _ | Irt_f _ | Irt_div _ ->
    false

let subst_uses f = function
  | Iput (r, v) -> Iput (r, f v)
  | Iputfl v -> Iputfl (f v)
  | Imov (d, s) -> Imov (d, f s)
  | Icvtif (d, v) -> Icvtif (d, f v)
  | Ibin (op, d, a, b) -> Ibin (op, d, f a, f b)
  | Ibini (op, d, a, n) -> Ibini (op, d, f a, n)
  | Imkfl (k, d, a, b, c) -> Imkfl (k, d, f a, f b, f c)
  | Iisel (d, c, a, b) -> Iisel (d, f c, f a, f b)
  | Iload (w, s, d, a, off) -> Iload (w, s, d, f a, off)
  | Isload (w, s, d, a, off) -> Isload (w, s, d, f a, off)
  | Istore (w, v, a, off) -> Istore (w, f v, f a, off)
  | Ifload (fd, a, off) -> Ifload (fd, f a, off)
  | Ifstore (fv, a, off) -> Ifstore (fv, f a, off)
  | Irt_div { signed; q; r; hi; lo; d } ->
    Irt_div { signed; q; r; hi = f hi; lo = f lo; d = f d }
  | Ibr (c, a, b, t) -> Ibr (c, f a, f b, t)
  | Iassert (c, a, b) -> Iassert (c, f a, f b)
  | Iexit ({ target = Xindirect v; _ } as e) -> Iexit { e with target = Xindirect (f v) }
  | (Iget _ | Igetf _ | Iputf _ | Igetfl _ | Ili _ | Ifli _ | Ifmov _ | Ifbin _ | Ifun _
    | Ifcmp _ | Icvtfi _ | Irt_f _
    | Iexit { target = Xdirect _ | Xsyscall _ | Xinterp _ | Xhalt; _ }) as i ->
    i

let exit_target_to_string = function
  | Xdirect pc -> Printf.sprintf "direct 0x%x" pc
  | Xindirect v -> Printf.sprintf "indirect v%d" v
  | Xsyscall pc -> Printf.sprintf "syscall 0x%x" pc
  | Xinterp pc -> Printf.sprintf "interp 0x%x" pc
  | Xhalt -> "halt"

let to_string = function
  | Iget (v, r) -> Printf.sprintf "v%d <- guest.%s" v (Format.asprintf "%a" Isa.pp_reg r)
  | Iput (r, v) -> Printf.sprintf "guest.%s <- v%d" (Format.asprintf "%a" Isa.pp_reg r) v
  | Igetf (f, gf) -> Printf.sprintf "vf%d <- guest.f%d" f (Isa.freg_index gf)
  | Iputf (gf, f) -> Printf.sprintf "guest.f%d <- vf%d" (Isa.freg_index gf) f
  | Igetfl v -> Printf.sprintf "v%d <- guest.flags" v
  | Iputfl v -> Printf.sprintf "guest.flags <- v%d" v
  | Ili (v, n) -> Printf.sprintf "v%d <- 0x%x" v n
  | Imov (d, s) -> Printf.sprintf "v%d <- v%d" d s
  | Ibin (op, d, a, b) ->
    Printf.sprintf "v%d <- %s v%d, v%d" d (Code.binop_name op) a b
  | Ibini (op, d, a, n) ->
    Printf.sprintf "v%d <- %s v%d, %d" d (Code.binop_name op) a n
  | Imkfl (_, d, a, b, c) -> Printf.sprintf "v%d <- mkfl v%d, v%d, v%d" d a b c
  | Iisel (d, c, a, b) -> Printf.sprintf "v%d <- v%d ? v%d : v%d" d c a b
  | Iload (_, _, d, a, off) -> Printf.sprintf "v%d <- load [v%d%+d]" d a off
  | Isload (_, _, d, a, off) -> Printf.sprintf "v%d <- load.spec [v%d%+d]" d a off
  | Istore (_, v, a, off) -> Printf.sprintf "store [v%d%+d] <- v%d" a off v
  | Ifli (f, x) -> Printf.sprintf "vf%d <- %g" f x
  | Ifmov (d, s) -> Printf.sprintf "vf%d <- vf%d" d s
  | Ifbin (_, d, a, b) -> Printf.sprintf "vf%d <- fop vf%d, vf%d" d a b
  | Ifun (_, d, a) -> Printf.sprintf "vf%d <- funop vf%d" d a
  | Ifload (f, a, off) -> Printf.sprintf "vf%d <- fload [v%d%+d]" f a off
  | Ifstore (f, a, off) -> Printf.sprintf "fstore [v%d%+d] <- vf%d" a off f
  | Ifcmp (d, a, b) -> Printf.sprintf "v%d <- fcmp vf%d, vf%d" d a b
  | Icvtif (f, v) -> Printf.sprintf "vf%d <- cvt v%d" f v
  | Icvtfi (v, f) -> Printf.sprintf "v%d <- cvt vf%d" v f
  | Irt_f (_, d, s) -> Printf.sprintf "vf%d <- rt_f vf%d" d s
  | Irt_div { q; r; hi; lo; d; _ } ->
    Printf.sprintf "v%d, v%d <- div v%d:v%d / v%d" q r hi lo d
  | Ibr (_, a, b, t) -> Printf.sprintf "br v%d ? v%d -> @%d" a b t
  | Iassert (_, a, b) -> Printf.sprintf "assert v%d ? v%d" a b
  | Iexit e ->
    Printf.sprintf "exit %s (retired %d)" (exit_target_to_string e.target) e.retired

let pp ppf i = Format.pp_print_string ppf (to_string i)

let pp_block ppf block =
  Format.fprintf ppf "@[<v>";
  Array.iteri (fun i insn -> Format.fprintf ppf "@%d: %s@ " i (to_string insn)) block;
  Format.fprintf ppf "@]"
