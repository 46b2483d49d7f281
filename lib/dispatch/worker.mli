(** The sample-sweep worker daemon ([darco worker --listen HOST:PORT]).

    Accepts dispatcher connections and serves each with a select loop
    that keeps up to [jobs] work units executing concurrently on a pool
    of OCaml domains sharing the daemon's checkpoint store — one resident
    image serves every slot, and an exception in a unit fails only that
    unit.  Crash isolation is the process boundary: a unit that
    segfaults or exhausts memory takes this daemon down, and the
    dispatcher reassigns its in-flight units to the workers still alive.
    Each {!Wire.Work} frame decodes to a {!Darco_sampling.Work.t} and is
    eventually answered by one {!Wire.Result} (JSON) or {!Wire.Fail}
    carrying the same unit id; replies may arrive out of order.

    Version-2 units reference their checkpoint by digest.  The daemon
    keeps a {!Darco_sampling.Store} (optionally spilled to [store_dir]):
    a unit whose digest is missing parks while a single {!Wire.Need} asks
    the dispatcher for the bytes, and the {!Wire.Ckpt} answer releases
    every unit waiting on that digest — one transfer per checkpoint per
    daemon, no matter how many windows share it, including across sweeps
    when [store_dir] persists.

    A malformed frame gets a connection-level [Fail] reply and drops that
    connection (the stream can no longer be trusted) while the daemon
    keeps accepting.  One dispatcher is served at a time: a second that
    dials meanwhile is answered at once with a connection-level [Fail]
    ("worker busy: serving another dispatcher"), never stalling the served
    one, and one that dials after the served one has closed waits in the
    backlog until its in-flight units run out.  Never returns normally. *)

val resolve : string -> Unix.inet_addr
(** Dotted-quad or hostname to address.
    Raises [Invalid_argument] if unresolvable. *)

val serve :
  ?quiet:bool ->
  ?exec:(Darco_sampling.Work.t -> Darco_obs.Jsonx.t) ->
  ?ready:(Unix.sockaddr -> unit) ->
  ?jobs:int ->
  ?store_dir:string ->
  host:string ->
  port:int ->
  unit ->
  unit
(** [serve ~host ~port ()] binds (SO_REUSEADDR), listens and serves
    forever.  Its first log line names the bound address, with the
    kernel-assigned port when [port] is 0.  [ready] is called with the
    bound address once listening (tests use [port:0] and read the port
    here); [exec] overrides unit execution (default [Work.exec] against
    the daemon's checkpoint store) and runs on a worker domain, so it
    must be domain-safe; [jobs] (default 1) is the concurrency advertised
    to the dispatcher in the [Hello] reply and the size of the domain
    pool; [store_dir] spills received checkpoints to disk so they survive
    daemon restarts; [quiet] silences the log lines. *)
