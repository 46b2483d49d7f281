(** Guest architectural register state (everything except memory). *)

type t = {
  regs : int array;          (** 8 GPRs, canonical 32-bit values *)
  fregs : float array;       (** 8 FP registers *)
  mutable flags : int;       (** packed per {!Flags} *)
  mutable eip : int;
  mutable halted : bool;
}

val create : unit -> t
val get : t -> Isa.reg -> int
val set : t -> Isa.reg -> int -> unit
(** [set] canonicalizes to 32 bits. *)

val getf : t -> Isa.freg -> float
val setf : t -> Isa.freg -> float -> unit
val copy : t -> t

val equal : t -> t -> bool
(** Architectural equality; FP registers are compared bit-for-bit. *)

val diff : t -> t -> string list
(** Human-readable description of the differing state elements (for the
    debug toolchain). *)

val pp : Format.formatter -> t -> unit
