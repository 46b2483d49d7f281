open Darco_guest

(** Monitoring tools: guest disassembly and execution tracing (part of the
    infrastructure's debug/monitoring toolchain). *)

val disassemble : Program.t -> ?limit:int -> unit -> (int * Isa.insn) list
(** Linear-sweep disassembly of a program image from its entry point
    (stops at undecodable bytes or after [limit] instructions). *)

val trace :
  ?limit:int ->
  ?input:string ->
  seed:int ->
  Program.t ->
  (int -> Isa.insn -> Cpu.t -> unit) ->
  unit
(** Interpret the program on the reference emulator, invoking the callback
    with (pc, instruction, post-state) for every retired instruction. *)

val pp_listing : Format.formatter -> (int * Isa.insn) list -> unit
