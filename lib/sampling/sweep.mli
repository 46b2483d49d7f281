(** Backend-agnostic sample sweeps.

    A sweep evaluates a list of {!Work.t} units and returns one {!result}
    per unit, in input order.  {e How} the units execute is the backend's
    business: {!Backend.serial} runs them one after another in this
    process; {!Backend.domains} runs them on a pool of OCaml domains
    sharing the parent's memory — one checkpoint image serves every unit,
    no serialization; [Darco_dispatch] ships units to [darco worker]
    processes over TCP, either remote daemons or a fleet of loopback
    workers it starts itself ([--backend local:J]), and reassigns the
    units of a worker process that dies.  Drivers are written once against
    {!run} and pick a backend at the edge.  All of them produce
    byte-identical result JSON for the same units. *)

type outcome =
  | Ok of Darco_obs.Jsonx.t
  | Failed of string  (** human-readable reason: exception, lost worker *)

type result = { label : string; outcome : outcome }

(** A sweep execution backend, as a first-class record. *)
module Backend : sig
  (** An open, round-capable instance of a backend.  [s_dispatch] returns
      results in input order, one per unit, contains unit failures as
      [Failed] outcomes rather than raising, and may be called
      repeatedly; state worth keeping between rounds (a warm domain pool,
      worker processes and connections with the checkpoint images already
      pushed to each) persists until [s_close]. *)
  type nonrec session = {
    s_dispatch : Work.t list -> result list;
    s_close : unit -> unit;
  }

  type nonrec t = {
    name : string;  (** e.g. ["domains:4"], ["remote:host:9090"] — for logs *)
    session : unit -> session;
        (** open a session; {!run} and {!run_plan} manage the
            open/close bracket *)
  }

  val serial : ?bus:Darco_obs.Bus.t -> ?store:Store.t -> unit -> t
  (** In-process, strictly sequential execution — no domains, no
      processes.  The reference backend for determinism checks.  When
      [bus] is active it carries a ["running"] {!Darco_obs.Span} pair per
      unit (host ["local"], correlated by unit index); an exception in a
      unit becomes its [Failed "worker failed: ..."] outcome.  [store]
      resolves version-2 (digest-addressed) units. *)

  val domains : ?bus:Darco_obs.Bus.t -> ?store:Store.t -> ?jobs:int -> unit -> t
  (** Shared-memory execution on a pool of [jobs] (default 4) OCaml
      domains.  Units sharing a digest-addressed checkpoint read the
      {e same} store entry, so an N-way sweep's footprint is one image
      plus per-unit working state.  Spans, failure rendering and result
      JSON are those of {!serial}; [bus] sinks run only on the calling
      domain.  A unit that {e segfaults or exhausts memory takes the
      process down}: run untrusted or crashy workloads on worker
      processes instead. *)
end

val ipc : outcome -> float option
(** A window's IPC: the ["ipc"] field of an [Ok] result, a [Float] or an
    [Int]; [None] for a [Failed] one or a result without the field. *)

val run : Backend.t -> Work.t list -> result list
(** [run backend works] evaluates every unit in one session of one round
    and returns results in input order. *)

val run_plan : Backend.t -> Plan.t -> (int -> Work.t) -> (int * result) list
(** [run_plan backend plan work] runs [plan]'s rounds on one backend
    session: each round dispatches [work off] for every offset
    {!Plan.next} chooses and hands the round's IPCs ({!ipc}) to
    {!Plan.record}; the session ends when {!Plan.next} returns [[]].
    Returns one [(offset, result)] row per dispatched unit, failed units
    included, in dispatch order.  The session is closed on every exit,
    including an exception from [work]. *)
