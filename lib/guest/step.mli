(** Single-step guest execution, shared by the authoritative reference
    interpreter (the x86 component) and the TOL interpreter (IM).

    Page-fault safety: an instruction either completes fully or raises
    {!Memory.Page_fault} with no architectural state modified, so a faulting
    instruction can be transparently retried after the controller services
    the data request.  REP string instructions fault at iteration
    granularity, which is architecturally consistent (ESI/EDI/ECX always
    describe the remaining work, as on real x86).

    The per-instruction path allocates nothing: {!step} returns an
    immediate {!kind}, a decode-cache hit is an array probe, and
    read-modify-write destinations, flag results and FP register traffic
    go through no closure, tuple or float box (FP arithmetic itself still
    boxes its operands at the {!Semantics} call). *)

(** What the instruction did to control flow.  EIP has already been
    updated, except for [Syscall]. *)
type kind =
  | Next     (** fell through to the next instruction *)
  | Branch   (** a jump, call, return or conditional branch, taken or not *)
  | Syscall  (** EIP left pointing at the syscall instruction *)
  | Halt     (** the guest halted; [cpu.halted] is set *)

type icache
(** Decode cache (guest address -> decoded instruction), an open-addressing
    table on the PC.  Self-modifying guest code is unsupported across the
    infrastructure. *)

val icache_create : unit -> icache
val fetch : icache -> Memory.t -> int -> Isa.insn * int
(** Decode (with caching) the instruction at the given guest address. *)

val step : icache -> Cpu.t -> Memory.t -> kind
(** Execute one instruction at [cpu.eip], updating [cpu] and memory and
    advancing EIP (except for a syscall, which leaves EIP at the trapping
    instruction; the caller advances past it after servicing). *)

val is_interp_only : Isa.insn -> bool
(** Instructions the TOL never includes in translations and always defers to
    the interpreter (the paper's "corner cases moved to the software
    layer"): REP-prefixed string instructions. *)
