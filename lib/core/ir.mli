open Darco_guest
open Darco_host

(** The translation layer's intermediate representation.

    A three-address RISC-like code over an infinite pool of virtual
    registers, in SSA form by construction (the translator assigns each
    value a fresh vreg; there are no joins inside a region, so no phis are
    needed — see DESIGN.md).  Guest architectural state is accessed through
    explicit [Iget]/[Iput] (and FP/flags variants), which lower to moves
    between the allocator's registers and the fixed guest mapping of
    {!Darco_host.Regs}.

    A region's IR is a flat array; [Ibr] targets are indices into that
    array.  Control is acyclic and forward-only; loops are formed by a
    region exit chaining back to the region entry. *)

type vreg = int
type vfreg = int

type exit_target =
  | Xdirect of int       (** next guest PC statically known *)
  | Xindirect of vreg    (** guest PC in a vreg *)
  | Xsyscall of int      (** guest PC of the syscall instruction *)
  | Xinterp of int       (** guest PC of an interpreter-only instruction *)
  | Xhalt

type exit_spec = {
  target : exit_target;
  retired : int;        (** guest instructions completed on this path *)
  prefer_bb : bool;     (** chain only to a BB translation (unroll residue) *)
  edge : int option;    (** BBM edge-profiling counter address, if any *)
}

type t =
  | Iget of vreg * Isa.reg
  | Iput of Isa.reg * vreg
  | Igetf of vfreg * Isa.freg
  | Iputf of Isa.freg * vfreg
  | Igetfl of vreg           (** read the architectural packed flags *)
  | Iputfl of vreg
  | Ili of vreg * int
  | Imov of vreg * vreg
  | Ibin of Code.binop * vreg * vreg * vreg
  | Ibini of Code.binop * vreg * vreg * int
  | Imkfl of Code.flkind * vreg * vreg * vreg * vreg
  | Iisel of vreg * vreg * vreg * vreg   (** dst, cond, if-true, if-false *)
  | Iload of Isa.width * bool * vreg * vreg * int
  | Isload of Isa.width * bool * vreg * vreg * int
      (** speculatively hoisted load (alias-table protected) *)
  | Istore of Isa.width * vreg * vreg * int   (** value, base, disp *)
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
  | Ibr of Code.cmp * vreg * vreg * int   (** forward branch to an IR index *)
  | Iassert of Code.cmp * vreg * vreg
  | Iexit of exit_spec

val subst_uses : (vreg -> vreg) -> t -> t
(** Rewrite integer-vreg uses (definitions untouched). *)

val defs : t -> vreg list
val uses : t -> vreg list
val fdefs : t -> vfreg list
val fuses : t -> vfreg list

val has_side_effect : t -> bool
(** Instructions DCE must keep regardless of liveness: stores, guest-state
    puts, branches, asserts, exits.  Loads are removable when dead: a dead
    load's only observable effect would be demand-paging a page whose
    contents are zero either way, which state validation treats as equal. *)

val pp : Format.formatter -> t -> unit
val pp_block : Format.formatter -> t array -> unit
