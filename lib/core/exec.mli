open Darco_guest
open Darco_host

(** The execution entry point for translated regions — the only public way
    to run one.

    Two engines produce bit-identical architectural state and identical
    bus event streams (DESIGN.md §13): [Eval], the reference walkers
    ([Emulator.run] for host code, the IR evaluator for region IR), and
    [Threaded], the direct-threaded closure chains compiled by
    {!Threaded}.  [Threaded] is the default; [Eval] remains the
    reference path, and the one every run with a retire subscriber (the
    timing pipeline) takes.

    The former [Ir_eval.run] entry point is no longer exported from the
    library surface; callers go through {!run}.  See DESIGN.md §13 for the
    deprecation note (mirroring the [Sweep.map] removal policy of §9). *)

type engine = Config.engine = Eval | Threaded

(** The canonical region-execution outcome (re-exported from
    {!Threaded}; identical to the reference evaluator's). *)
type outcome = Threaded.outcome =
  | Exited of Ir.exit_spec * int  (** resolved guest target PC *)
  | Assert_failed
  | Alias_failed
      (** a store overlapped a speculatively hoisted load (the alias
          protection table fired), exactly as the host hardware would *)

val engine_name : engine -> string
val engine_of_string : string -> engine option

val run : ?engine:engine -> Regionir.t -> Cpu.t -> Memory.t -> outcome
(** Evaluate a region in IR form against the given guest state (mutating
    it on successful exit, exactly like a checkpoint/commit execution).
    [engine] defaults to {!Config.default}'s. *)

val run_region :
  engine:engine ->
  cache:Codecache.t ->
  Machine.t ->
  resolve:(int -> Code.region option) ->
  fuel:int ->
  ?on_retire:(Emulator.retire_info -> unit) ->
  Code.region ->
  Emulator.result
(** Execute a translated host region out of the code cache — the dispatch
    loop's hot path.  Under [Threaded] the region's memoized closure chain
    runs ({!Codecache.compiled}); under [Eval], or whenever a retire hook
    is attached (the timing pipeline consumes a per-instruction stream
    only the walker produces), execution deopts to
    {!Darco_host.Emulator.run}.  Results are identical either way. *)
