open Darco_guest
open Darco

(** A reference evaluator for region IR, independent of register allocation
    and code generation.

    Used by the test suite to check, pass by pass, that every optimization
    preserves semantics: the same region IR evaluated before and after a
    pass — and the generated host code — must leave identical guest state.
    Asserts evaluate like the hardware (a failing assert aborts the region
    with no state change: stores are buffered until exit). *)

type outcome =
  | Exited of Ir.exit_spec * int  (** resolved guest target PC *)
  | Assert_failed
  | Alias_failed
      (** a store overlapped a speculatively hoisted load (the alias
          protection table fired), exactly as the host hardware would *)

val run : Regionir.t -> Cpu.t -> Memory.t -> outcome
(** Evaluate the region against the given guest state (mutating it on
    successful exit, exactly like a checkpoint/commit execution). *)
