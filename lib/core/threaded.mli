open Darco_host

(** Direct-threaded compilation of translated host regions.

    The reference walker ({!Darco_host.Emulator.run}) dispatches every
    executed instruction through a constructor [match].  This module
    compiles a {!Darco_host.Code.region} once into a chain of OCaml
    closures — one per instruction or fused pattern, each ending in a tail
    call to its successor — so executing the region is a single
    indirect-call stream with zero dispatch matching.  Operand decisions
    (binop selection, comparison sense, FP operation, runtime-call weight)
    are resolved at compile time and captured in the closure.

    {!run} is bit-for-bit equivalent to {!Darco_host.Emulator.run} without
    a retire sink: identical counters, stop reasons and exception windows.
    [Tol] runs regions here unless the bus has a retire subscriber (the
    timing pipeline), which the walker feeds with batches of retired
    instructions.  Chains record no retire stream: a timed run on chains
    measured no faster than the batched walker and needed a quarter more
    peak memory for their closures (DESIGN.md §13). *)

type ctx
(** Per-execution state threaded through the closure chain. *)

type compiled = private {
  c_region : Code.region;
  c_limit : int;
      (** runaway step bound, [100 * code length + 10_000], matching the
          walker's malformed-region assertion *)
  c_entry : ctx -> unit;
}
(** A region compiled to a closure chain.  Compilation is pure with respect
    to machine state; the chain may be cached and reused (the code cache
    memoizes one per live region, dropped on invalidation/flush). *)

val compile : Code.region -> compiled

val run :
  Machine.t ->
  resolve:(int -> Code.region option) ->
  get:(Code.region -> compiled) ->
  ?fuel:int ->
  Code.region ->
  Emulator.result
(** [run m ~resolve ~get region] executes the compiled chain for [region],
    following chained exits and resolved indirect jumps through [get]
    (typically the code cache's memoized {!compile}).  Produces exactly the
    result {!Darco_host.Emulator.run} would: same stop, same counters, same
    rollback-on-failure state effects.  [fuel] bounds [host_retired]
    approximately, checked at region transfers. *)
