(** The host ISA functional emulator.

    Executes translated regions out of the code cache, following chained
    exits and inline-IBTC indirect jumps without leaving "hardware", and
    returns to the software layer only when it must (unchained exit, IBTC
    miss, speculation failure, page fault, exhausted fuel).  This is the
    execution half of the paper's co-designed component. *)

val eval_binop : Code.binop -> int -> int -> int
(** Value semantics of the host ALU (exposed for constant folding in the
    optimizer and for the IR evaluator used in tests). *)

type stop =
  | Stop_exit of Code.exit_info          (** unchained exit: TOL dispatches *)
  | Stop_indirect_miss of int            (** IBTC missed; guest PC *)
  | Stop_rollback of [ `Assert | `Alias ] * Code.region
      (** speculation failure; registers restored to the checkpoint *)
  | Stop_fault of int * Code.region
      (** page fault (page index); state rolled back to the checkpoint *)
  | Stop_fuel of int                     (** fuel exhausted at a region entry;
                                             guest PC to resume at *)

type result = {
  stop : stop;
  host_retired : int;    (** host instructions executed (application stream) *)
  host_bb : int;         (** portion executed in [`Bb] regions *)
  host_super : int;      (** portion executed in [`Super] regions *)
  guest_bb : int;        (** guest insns retired from [`Bb] regions *)
  guest_super : int;     (** guest insns retired from [`Super] regions *)
  chains_followed : int;
  wasted_host : int;     (** host insns whose work was rolled back *)
}

val run :
  Machine.t ->
  resolve:(int -> Code.region option) ->
  ?fuel:int ->
  ?retire:Retire.sink ->
  Code.region ->
  result
(** [run m ~resolve region] enters [region] at instruction 0.  [resolve]
    maps a host code address to the region whose [base] it is (the inline
    IBTC stores region base addresses).  [fuel] bounds [host_retired]
    approximately (checked at region transfers).

    With [retire], every retired application instruction is appended to
    the sink's batch, with the descriptor [descriptors region] gives it:
    after the operation's effect, except that an [Assert] is appended
    before its comparison (a failed one has an entry) and a load or store
    that faults has none.  The batch is flushed through [consume] before an
    append would overflow it and at every return (unchained exit, indirect
    miss, rollback, fault, fuel), so the consumer has seen every entry when
    [run] returns.  Nothing is allocated per retired instruction. *)
