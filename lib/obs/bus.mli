(** The event bus: the single channel through which the core publishes
    its lifecycle {!Event.t}s and its retired-host-instruction stream.

    Emission is a no-op when no sink is attached; hot call sites guard
    event construction behind {!active} so an unobserved run allocates
    nothing.  Sinks must be attached before the run starts (before
    [Controller.create] to capture initialization events); attaching
    mid-run is not supported.

    {b Domain story.}  Registration ({!attach}, {!on_retire}) is
    mutex-guarded; emission is lock-free — it reads one immutable snapshot
    of the sink array, so {!active}/{!emit} cost exactly what they did
    before OCaml 5 domains entered the runtime.  Sink {e handlers} are
    called on whichever domain emits.  The single-domain simulator keeps
    its plain mutable sinks ([Prof], trace writers); a multi-domain
    producer must either serialize its own emission (what the [domains]
    sweep backend does, one mutex around its span events) or give each
    domain a private accumulator and {!Stats.merge}/{!Prof.merge} the
    results afterwards. *)

type sink = { name : string; handle : at:int -> Event.t -> unit }

type retire = {
  batch : Darco_host.Retire.t;  (** allocated once, at subscription *)
  consume : Darco_host.Retire.t -> unit;
  describe : Darco_host.Code.insn -> int;
}
(** The subscriber to the retired host application stream (the timing
    simulator's [Pipeline.consume]): the batch the walker fills, the
    consumer it is flushed through, and the function that computes each
    instruction's descriptor once per region ([Pipeline.describe]). *)

type t

val create : unit -> t

val active : t -> bool
(** At least one event sink is attached.  Emitters check this before
    allocating an event, keeping the unobserved hot path regression-free. *)

val attach : t -> name:string -> (at:int -> Event.t -> unit) -> unit

val emit : t -> at:int -> Event.t -> unit
(** Deliver to every sink in attachment order.  [at] is the
    retired-guest-instruction clock of the publishing component. *)

val on_retire :
  t -> ?describe:(Darco_host.Code.insn -> int) -> (Darco_host.Retire.t -> unit) -> unit
(** Subscribe a consumer of retired-instruction batches.  [describe]
    defaults to a constant (for a subscriber that reads no descriptor).  A
    bus has at most one subscriber: a second subscription raises
    [Invalid_argument]. *)

val retire_hook : t -> retire option
(** The subscription ([None] when nobody subscribed). *)
