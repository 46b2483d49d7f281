(** Pure value/flag semantics of Gx86, shared verbatim by the authoritative
    reference interpreter, the TOL interpreter, the IR evaluator and the
    host runtime services.  Sharing one definition is what makes the
    differential-validation machinery meaningful: any divergence between the
    components is a translation/optimization bug, never a semantics-fork
    artefact.

    32-bit values are represented as OCaml [int]s canonically in
    [\[0, 2{^32})]. *)

val mask32 : int -> int
val signed : int -> int
(** Reinterpret a canonical 32-bit value as a signed integer. *)

val truncate_width : Isa.width -> int -> int
val sign_extend : Isa.width -> int -> int
(** [sign_extend w v] sign-extends the low [w] bits of [v] to 32 bits
    (canonical representation). *)

(** {2 Flag-producing operations}

    Each returns its result and the packed {!Flags} word in one immediate
    int: the canonical 32-bit result in bits 0-31 and the flags from bit 32
    up (read them back with {!result_of} and {!flags_of}).  Packing keeps
    the per-instruction path of every component free of tuple allocation.
    Operands are canonical 32-bit values and incoming flag words fit in
    {!Flags.mask}. *)

val result_of : int -> int
(** The 32-bit result of a packed outcome. *)

val flags_of : int -> int
(** The packed flags of a packed outcome. *)

val alu : Isa.alu_op -> cf_in:bool -> int -> int -> int
(** [alu op ~cf_in a b]. [cf_in] feeds ADC/SBB. *)

val inc : int -> flags:int -> int
val dec : int -> flags:int -> int
(** INC/DEC: as add/sub 1 but CF is preserved from [flags]. *)

val neg : int -> int
val not32 : int -> int
(** Not flag-producing: the plain 32-bit complement. *)

val shift : Isa.shift_op -> int -> count:int -> flags:int -> int
(** x86-style: count is masked to 5 bits; zero count leaves flags untouched.
    Simplifications vs. real x86 (deterministic, shared by all paths):
    rotates also set ZF/SF from the result; OF is 0 for SAR/ROR. *)

val mul_u : int -> int -> int
(** The low word of the unsigned 64-bit product with its flags;
    CF=OF = (high word <> 0).  IMUL's truncating two-operand form is
    {!mul_s}. *)

val mul_s : int -> int -> int
(** Signed; CF=OF unless the product fits in 32 signed bits. *)

val mulhi_u : int -> int -> int
val mulhi_s : int -> int -> int
(** The high word of the unsigned / signed 64-bit product (no flags). *)

val div_u : hi:int -> lo:int -> int -> int * int
(** [(quotient, remainder)] of the unsigned 64/32 division, quotient
    truncated to 32 bits.  Division by zero is defined (not trapping):
    quotient [0xFFFFFFFF], remainder [lo].  Flags are unaffected by
    division. *)

val div_s : hi:int -> lo:int -> int -> int * int
(** Signed counterpart with the same deterministic conventions. *)

val fp_bin : Isa.fp_bin -> float -> float -> float
val fp_un : Isa.fp_un -> float -> float
val fcmp_flags : float -> float -> int
(** FCOMI-style: below sets CF, equal sets ZF, unordered sets CF+ZF. *)

val f2i : float -> int
(** Truncate toward zero; NaN and out-of-range map to [0x80000000] (the x86
    "integer indefinite"). *)

val i2f : int -> float
(** Signed interpretation. *)
