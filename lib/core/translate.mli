open Darco_guest
open Darco_host

(** The guest front-end: translates Gx86 instructions into IR within a
    region under construction.

    The builder keeps a per-region value cache (guest register -> vreg),
    marks dirty state to emit minimal [Iput]s at exits, and tracks the guest
    flags as a lazy thunk: flag-producing instructions record *how* to
    compute the flags; the computation is emitted only when a consumer needs
    it or when the (dirty) flags are architecturally live at a region exit —
    the paper's "write flags only if consumed" optimization, made
    exit-safe.  Conditional branches fuse with their producing compare
    whenever possible instead of materializing flags. *)

type ctx

val create : entry_pc:int -> ctx

val translate_insn : ctx -> Isa.insn -> pc:int -> len:int -> unit
(** Translate one non-control-transfer, non-interpreter-only instruction and
    count it as retired.  Raises [Invalid_argument] on control transfers
    (the region constructors handle those via the primitives below). *)

(** How a guest condition lowers at the current point. *)
type cond_lowering =
  | Cfused of Code.cmp * Ir.vreg * Ir.vreg  (** holds iff cmp(a,b) *)
  | Cconst of bool                          (** statically decided *)

val lower_cond : ctx -> Isa.cond -> cond_lowering
(** Fuses with the pending flag thunk when possible; otherwise materializes
    packed flags and extracts bits.  Emits any needed IR. *)

val add_retired : ctx -> int -> unit

val emit_exit :
  ctx -> ?prefer_bb:bool -> ?edge:int -> Ir.exit_target -> unit
(** Emit dirty-state puts, flag materialization if architecturally needed,
    and the [Iexit]. *)

val emit_assert : ctx -> cond_lowering -> expect:bool -> [ `Ok | `Unsupported ]
(** Emit an assert that the condition evaluates to [expect] (superblock
    control speculation).  [`Unsupported] when the condition is statically
    false-biased (the caller should end the superblock instead). *)

val emit_branch_to_stub : ctx -> cond_lowering -> (ctx -> unit) -> unit
(** [emit_branch_to_stub ctx cl gen] emits a forward conditional branch
    taken when the condition holds; [gen] is run at finalization to emit the
    stub body with the value cache restored to this program point.  With
    [Cconst true] the stub becomes the fallthrough; with [Cconst false] no
    branch is emitted. *)

val translate_push_value : ctx -> Ir.vreg -> unit
(** Push a value onto the guest stack (shared by CALL translation). *)

val li : ctx -> int -> Ir.vreg
(** Constant materialization (cached within the current segment scope). *)

val get_reg : ctx -> Isa.reg -> Ir.vreg

val eval_operand : ctx -> Isa.operand -> Ir.vreg
(** Evaluate a guest operand (register / immediate / memory load). *)

val translate_pop : ctx -> Ir.vreg
(** Pop the top of the guest stack (RET translation). *)

val finalize : ctx -> mode:[ `Bb | `Super ] -> prof:(int * int) option -> Regionir.t
(** Resolve stubs and produce the region IR; checks structural invariants. *)

(** {2 Front-end construction kit}

    The primitives other guest-ISA front-ends build on (the paper's
    multiple-guest-ISA requirement): a new front-end only provides a decoder
    and per-instruction IR emission; everything from the optimizer to code
    generation is shared.  See {!Darco_grisc.Frontend} for a second
    front-end built this way. *)

val fresh_vreg : ctx -> Ir.vreg
val emit_ir : ctx -> Ir.t -> unit
(** Append a raw IR instruction (the emitter must respect SSA discipline). *)

val set_reg : ctx -> Isa.reg -> Ir.vreg -> unit
(** Bind a guest register slot to a new value (marks it dirty for the exit
    puts). *)
