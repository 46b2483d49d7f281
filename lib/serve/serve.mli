(** The [darco serve] daemon: a persistent, multi-tenant campaign service.

    One server accepts concurrent sweep submissions from many clients
    over the CRC-framed wire protocol (version 5), schedules their work
    onto the worker fleet through one dispatch session that lives as long
    as the daemon, and persists every result in a crash-safe artifact
    {!Library} keyed by content, so the service gets faster the longer
    it runs:

    - a {b resubmitted sweep} finds all of its windows in the library,
      dispatches zero units and returns the byte-identical JSON document;
    - a {b new sweep over a seen configuration} restores the library's
      checkpoint set instead of re-running the functional fast-forward;
    - {b concurrent submissions of overlapping work} share in-flight
      units: the second submitter attaches as a waiter and dispatches
      nothing.

    One [select] covers the listener, the clients and the workers, so
    clients are answered while units run.  Dispatch is {b fair-share}:
    each free worker slot goes to the next active submission in
    round-robin order, oldest first, with at most [credit] units of one
    submission in flight, so a ten-thousand-window campaign cannot starve
    a three-window one.  Each result reaches the library, then its
    waiters, as it lands.  Every decision is observable — [Submit],
    [Admit] (one per admission), [Artifact_hit] and [Artifact_store]
    events on [bus], plus a ["submission"] span per campaign on host
    ["serve"] — through the ordinary trace machinery.

    A client that disconnects mid-sweep does not cancel its submission:
    the work completes and lands in the library, where the resubmission
    will find it.

    The daemon is live-inspectable (wire v5): a
    {!Darco_obs.Registry} attached to the bus folds the dispatch,
    service and planner events into named counters/gauges/histograms
    (the simulated machine runs on the workers and never reaches this
    bus), scraped with [METR] (snapshot
    JSON) and summarized by [HLTH] (uptime, build version, per-worker
    keepalive state, queue depths, per-campaign progress with planner CI
    state, library hit-rate).  [metrics_file] additionally dumps the
    Prometheus-style exposition text every [metrics_interval] seconds
    (default 5) with an atomic write-then-rename.  Telemetry is a
    separate document: sweep/sample JSON stays byte-identical whether or
    not any of it is enabled. *)

val serve :
  ?bus:Darco_obs.Bus.t ->
  ?quiet:bool ->
  workers:(unit -> Darco_dispatch.addr list) ->
  ?jobs:int ->
  ?credit:int ->
  ?dispatch_timeout:float ->
  ?dispatch_retries:int ->
  ?max_bytes:int ->
  ?max_submissions:int ->
  ?metrics_file:string ->
  ?metrics_interval:float ->
  ?ready:(Unix.sockaddr -> unit) ->
  library:string ->
  host:string ->
  port:int ->
  unit ->
  unit
(** Run the service on [host:port] with its artifact library rooted at
    [library], dispatching work units to the worker daemons at
    [workers ()] through {!Darco_dispatch.open_session} (timeout/retries/
    keepalive as there), which asks [workers] again only when a worker
    is missing: [darco serve] without [--workers] keeps one loopback
    fleet for the daemon's lifetime and answers with
    {!Darco_dispatch.fleet_revive}, which first restarts any worker that
    died.  [jobs] (default 4) sizes the domain pool units fall back to
    when no worker is reachable.  [credit] (default 4) caps each
    submission's units in flight and is the adaptive planner's round
    size.  A unit's checkpoint stays pinned from dispatch to settle;
    [max_bytes] bounds the library's checkpoint store (LRU eviction).
    [ready] is called with the bound address once the listener is up.  With
    [max_submissions] the server returns normally after completing that
    many submissions — the clean-shutdown path used by tests and CI;
    otherwise it serves forever. *)
