open Darco_guest

(** The host machine state, including the co-designed hardware support for
    speculation: an architectural register checkpoint, a gated store buffer
    (stores are invisible to memory until {!commit}), and an alias-protection
    table that detects conflicts between hoisted speculative loads and later
    stores.

    The store buffer is an open-addressing table keyed by aligned word
    index, holding each word's pending bytes and a byte mask.  Its contract:
    - forwarding is byte-exact: a load sees, byte by byte, the latest
      pending store to that byte, else memory;
    - {!commit} probes every page the buffer touches before it writes any
      byte, so a {!Memory.Page_fault} leaves memory untouched;
    - {!commit} writes words in first-store order (a fully pending word as
      one 32-bit write).

    Loads, stores, {!commit}, {!checkpoint} and {!rollback} allocate
    nothing once the buffer and alias table have grown to a region's
    working set; emptying either is O(1). *)

type spec
(** The gated store buffer and the alias table.  {!pending_bytes} and
    {!alias_ranges} give their contents as plain data. *)

type t = {
  r : int array;          (** 64 integer registers; r0 reads as zero *)
  f : float array;        (** 32 FP registers *)
  mem : Memory.t;         (** the co-designed component's emulated memory *)
  spec : spec;
  mutable ckpt_r : int array;
  mutable ckpt_f : float array;
}

exception Alias_violation
(** A gated store overlapped a speculatively hoisted load. *)

val create : Memory.t -> t

val get : t -> Code.reg -> int
val set : t -> Code.reg -> int -> unit
(** Values are canonicalized to 32 bits; writes to r0 are discarded. *)

val checkpoint : t -> unit
val rollback : t -> unit
(** Restore registers from the checkpoint and discard gated stores and the
    alias table.  Memory is untouched (no store ever reached it). *)

val commit : t -> unit
(** Drain the store buffer to memory.  Probes every destination page first,
    so {!Memory.Page_fault} leaves memory unmodified with the buffer intact
    (the caller then rolls back, services the fault and re-executes). *)

val in_flight_stores : t -> int
(** Gated bytes not yet committed (testing/stats). *)

val load : t -> Isa.width -> signed:bool -> int -> int
(** Store-buffer-forwarding load. *)

val load_spec : t -> Isa.width -> signed:bool -> int -> int
(** As {!load}, additionally recording the range in the alias table. *)

val store : t -> Isa.width -> int -> int -> unit
(** Gated store; raises {!Alias_violation} on a conflict with a recorded
    speculative load. *)

val load_f64 : t -> Code.freg -> int -> unit
(** [load_f64 t fd addr]: forwarding 8-byte load into FP register [fd]
    (two 32-bit loads, low word first). *)

val store_f64 : t -> int -> Code.freg -> unit
(** [store_f64 t addr fv]: gated store of FP register [fv] (two 32-bit
    stores, low word first).  Register operands keep the float unboxed. *)

val pending_bytes : t -> (int * int) list
(** The store buffer as (byte address, byte) pairs, sorted by address. *)

val alias_ranges : t -> (int * int) list
(** The alias table's (address, length) ranges, most recent first. *)

val restore :
  Memory.t ->
  r:int array ->
  f:float array ->
  pending:(int * int) list ->
  aliases:(int * int) list ->
  ckpt_r:int array ->
  ckpt_f:float array ->
  t
(** Rebuild a machine from its parts, with {!pending_bytes} and
    {!alias_ranges} as they were captured. *)

val copy_guest_in : t -> Cpu.t -> unit
(** Prologue: place guest architectural state into the fixed mapping. *)

val copy_guest_out : t -> Cpu.t -> unit
(** Epilogue: read guest state back out of the fixed mapping (EIP and halt
    status are the caller's responsibility). *)
