open Darco_host

(** The executor of translated host regions, functional and timed alike:
    the execution half of the paper's co-designed component.

    {!compile} decodes a {!Darco_host.Code.region} once into flat arrays:
    one operation per instruction (a constant constructor, so one jump
    table dispatches it), its register fields packed into one int, and its
    immediate, displacement, branch target or commit count in another.
    {!run} executes that form in one loop whose state lives in local
    variables, follows chained exits and resolved indirect jumps, and
    returns only when the software layer must act (unchained exit,
    indirect miss, speculation failure, page fault, exhausted fuel).

    The module keeps the name it had when it compiled regions to closure
    chains: the benchmark's translation replay times {!compile} under it. *)

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

type compiled
(** A region's packed form, with the timing descriptors of its
    instructions once a retire sink has run it.  Compilation reads only
    the region's code; the code cache memoizes one per live region and
    drops it with the region (it is process state, never snapshot
    state). *)

val compile : Code.region -> compiled

val run :
  Machine.t ->
  resolve:(int -> Code.region option) ->
  get:(Code.region -> compiled) ->
  ?fuel:int ->
  ?retire:Retire.sink ->
  Code.region ->
  result
(** [run m ~resolve ~get region] enters [region] at instruction 0.
    [resolve] maps a host code address to the region whose [base] it is
    (the inline IBTC stores region base addresses); [get] gives a region's
    packed form (the code cache's memoized {!compile}).  [fuel] bounds
    [host_retired] approximately: it is tested only at region transfers,
    before the chain counter moves.

    The checks stand: every instruction fetch, register and descriptor
    access is bounds-checked, r0 reads as zero, a region that runs more
    than [100 * length + 10_000] steps without leaving fails an assertion,
    a load, store or commit that faults retires nothing, and a failed
    [Assert] retires before it rolls back.

    With [retire], every retired application instruction is appended to
    the sink's batch after the operation's effect, with the descriptor
    [retire.describe] gave it once per region.  The batch is flushed
    before an append would overflow it and at every return, also when an
    exception escapes, so the consumer has seen every entry when [run]
    returns.  Without it one test per instruction skips the append.
    Nothing is allocated per retired instruction either way. *)
