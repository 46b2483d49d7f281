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
        (** open a session; {!run} and {!run_stream} manage the
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

val run : Backend.t -> Work.t list -> result list
(** [run backend works] evaluates every unit in one session of one round
    and returns results in input order: the results of
    [run_stream backend ~next:(fun r _ -> if r = 0 then works else [])]. *)

val run_stream :
  Backend.t ->
  next:(int -> (Work.t * result) list -> Work.t list) ->
  (Work.t * result) list
(** Round-based (streaming) dispatch for callers — the adaptive-sampling
    planner — that decide the next units {e from} the completed ones.
    [next round completed] is called with the 0-based round number and
    every (unit, result) pair finished so far, in dispatch order; the
    units it returns are dispatched as one round on a single backend
    session, and an empty list ends the stream.  Returns all pairs in
    dispatch order.  The session is closed on every exit, including an
    exception from [next]. *)
