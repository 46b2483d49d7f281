(** Distributed sample dispatch (the [Local] and [Remote] sweep backends,
    and the campaign daemon's dispatch).

    A dispatch {!session} holds one TCP connection per worker daemon
    ({!Worker.serve}, [darco worker --listen HOST:PORT -j N]) and settles
    the units added to it in the presence of cluster reality; the caller
    drives it one select step at a time, over the worker sockets plus its
    own.  The workers are either remote daemons or a fleet of loopback
    worker processes ({!with_fleet}); the two differ only in who starts
    the workers.

    - each worker advertises its concurrency ([-j], the [slots] field of
      its {!Wire.Hello} reply) and the dispatcher keeps up to that many
      units {b multiplexed} in flight per connection, matching results to
      units by id;
    - version-2 work units carry a checkpoint {b digest}, not the bytes:
      a worker missing one asks once ({!Wire.Need}) and the dispatcher
      serves it from its content-addressed [store] ({!Wire.Ckpt}), so a
      sweep of many windows sharing a checkpoint ships the snapshot to
      each worker at most once.  Outbound frames drain through a
      {b per-worker outbox} of non-blocking writes, so a multi-megabyte
      checkpoint push to one worker {e overlaps} with result handling and
      dispatch to every other worker instead of stalling the loop;
    - every in-flight unit carries an absolute {b deadline} ([timeout]
      seconds from dispatch);
    - a worker whose connection refuses, closes, corrupts a frame or
      blows a deadline is {b lost}: its units are requeued with
      exponential backoff (0.2s doubling) and handed to other live
      workers, up to [retries] re-dispatches before a unit settles as
      [Failed];
    - once the queue is drained, an idle slot {b steals} the oldest
      in-flight unit from another worker (after a quarter of the timeout)
      by speculatively duplicating it; the first result to land settles
      the unit, every other copy is withdrawn, and late duplicates are
      ignored — execution is deterministic, so which copy wins cannot
      change the bytes;
    - a per-unit {!Wire.Fail} over a healthy connection is a
      deterministic failure (an exception in the unit) and is {e not}
      retried; it settles as [Failed] with the reason the in-process
      backends give;
    - idle connections are {b probed}: once nothing has arrived from a
      worker for [keepalive_idle] seconds a {!Wire.Ping} goes out (and
      again each interval), and after [keepalive_misses] unanswered
      probes the worker is declared dead and its units reassigned —
      catching a frozen (e.g. SIGSTOPped) or unreachable worker long
      before the per-unit deadline would;
    - when no workers are reachable (at start or mid-run), the units no
      worker ever received {b fall back} to
      {!Darco_sampling.Sweep.Backend.domains} in this process, so a sweep
      always completes; a unit that was in flight on a lost worker may be
      what killed it, so it settles as [Failed] ("worker lost while
      running it") instead of running beside the dispatcher;
    - every step emits a typed event ([Worker_up], [Worker_lost],
      [Dispatch_sent], [Dispatch_done], [Dispatch_retry],
      [Dispatch_fallback], [Dispatch_inflight], [Ckpt_push], [Ckpt_hit],
      [Steal]) on [bus], so a cluster run is traceable end to end with
      the ordinary [--trace] machinery.

    Results return in input order and are bit-identical to the in-process
    backends': workers execute the same [Work.exec], and the JSON text
    round-trips exactly ([Jsonx] prints floats with [%.17g]). *)

type addr = { host : string; port : int }

val addr_to_string : addr -> string
val addr_of_string : string -> (addr, string) result
(** ["host:port"]; the port must be in [1, 65535]. *)

(** A backend choice as plain data — what the CLI's [--backend] flag
    parses to, resolved to an executable {!Darco_sampling.Sweep.Backend.t}
    by {!backend}. *)
type spec =
  | Serial
      (** in-process sequential execution
          ({!Darco_sampling.Sweep.Backend.serial}) — the determinism
          reference *)
  | Local of { jobs : int; timeout : float; retries : int }
      (** [jobs] loopback worker processes started for each session
          ({!with_fleet}), driven by the dispatcher with [timeout] and
          [retries] as for [Remote] *)
  | Domains of { jobs : int }
      (** a shared-memory OCaml domain pool on this machine
          ({!Darco_sampling.Sweep.Backend.domains}) *)
  | Remote of { workers : addr list; timeout : float; retries : int }

val spec_of_string :
  ?jobs:int -> ?timeout:float -> ?retries:int -> string -> (spec, string) result
(** Parse [serial], [local], [local:JOBS], [domains], [domains:JOBS] or
    [remote:HOST:PORT[,HOST:PORT...]].  [jobs] (default 4) fills in
    [local]'s and [domains]'s job count; [timeout] (default 60s) and
    [retries] (default 2) parameterize the local and remote specs. *)

val backend :
  ?bus:Darco_obs.Bus.t ->
  ?fallback_jobs:int ->
  ?store:Darco_sampling.Store.t ->
  exe:string ->
  spec ->
  Darco_sampling.Sweep.Backend.t
(** The executable backend for a spec.  [Local] is {!remote} over a
    fleet of [exe worker] processes ({!with_fleet}) started when a
    session opens and stopped when it closes, so {!Darco_sampling.Sweep.run}
    and {!Darco_sampling.Sweep.run_plan} start one fleet per sweep. *)

val remote :
  ?bus:Darco_obs.Bus.t ->
  ?fallback_jobs:int ->
  ?store:Darco_sampling.Store.t ->
  ?keepalive_idle:float ->
  ?keepalive_misses:int ->
  ?timeout:float ->
  ?retries:int ->
  addr list ->
  Darco_sampling.Sweep.Backend.t
(** The distributed backend described above.  [fallback_jobs] (default 4)
    sizes the domain pool used when no workers are reachable;
    [store] resolves digest-addressed units — both the [Need] requests
    coming back from workers and the fallback path.
    [keepalive_idle] (default 5s) and [keepalive_misses] (default 3)
    parameterize the idle-connection probing.  A backend session is one
    {!session}; each round adds its units and steps until they settle. *)

type session
(** Connections, units, deadlines, retries, steals, keepalives and each
    worker's pushed-checkpoint cache, kept from one call to the next. *)

val open_session :
  ?bus:Darco_obs.Bus.t ->
  ?fallback_jobs:int ->
  ?store:Darco_sampling.Store.t ->
  ?keepalive_idle:float ->
  ?keepalive_misses:int ->
  ?timeout:float ->
  ?retries:int ->
  (unit -> addr list) ->
  session
(** Parameters as for {!remote}.  Nothing connects until the first {!add}
    asks [workers]; it is asked again only when a worker is missing —
    by an {!add} to an idle session, or when the last worker is lost
    under queued units. *)

val add :
  session ->
  Darco_sampling.Work.t ->
  (Darco_sampling.Sweep.outcome -> unit) ->
  unit
(** Queue a unit; its callback runs once, within a {!step}, when it
    settles. *)

val free_slots : session -> int
(** Units that would start at once if added now: free worker slots less
    queued units (the fallback pool's size with no worker), or 1 for an
    idle session about to reconnect. *)

val step :
  session -> ?timeout:float -> Unix.file_descr list -> Unix.file_descr list
(** Send every unit that can go now, then block in one [select] over the
    worker sockets and [fds] until something arrives or the earliest timer
    fires: an in-flight deadline, a backed-off retry, a keepalive probe,
    a steal falling due, or [timeout] seconds (default: none); not at all
    when sending settled units (a fallback).  Returns the readable [fds]. *)

val close_session : session -> unit

type fleet
(** Loopback worker processes: [darco worker -j 1 --quiet] on 127.0.0.1
    ports, spawned with [Unix.create_process], which stays legal after
    [Domain.spawn] where a fork does not. *)

val with_fleet : exe:string -> int -> (fleet -> 'a) -> 'a
(** [with_fleet ~exe j f] starts a fleet of [j] (at least one) workers,
    waits until each accepts connections, and calls [f] with it.  [exe]
    is the [darco] executable; the CLI passes [Sys.executable_name].
    Each worker binds a port this process holds reserved until the
    worker accepts, so no other socket can take it in between; a worker
    that exits before accepting starts again on a fresh port, twice at
    most.  Start-up fails with [Failure] when a worker still exits, or
    does not accept within 30s.  The workers are killed and reaped when
    [f] returns or raises, and when start-up fails.  A process killed by
    SIGKILL cannot stop its fleet: those workers keep running until
    killed. *)

val fleet_members : fleet -> (addr * int) list
(** Every worker's address and pid. *)

val fleet_revive : fleet -> addr list
(** Restart every worker whose process has exited or no longer accepts
    connections — on its old port when that is still free, else on a
    fresh one — wait until the new ones accept (as {!with_fleet}), and
    return every worker's address.  [darco serve] passes it as its
    session's [workers], so a worker lost to a crashing unit is replaced
    at the next dispatch from idle, not lost for the daemon's life. *)
