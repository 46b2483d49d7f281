(** Client side of the campaign service: what [darco submit], [darco
    status] and [darco fetch] run.

    Every call opens one connection, handshakes at protocol version 4
    (failing cleanly against an older server), performs its conversation
    and closes.  Errors — connection refused, version mismatch, server
    [Fail] frames, timeouts — come back as [Error text], never as an
    exception. *)

type stats = { done_ : int; total : int; hits : int; dispatched : int }
(** The counters of a [Status] frame: [done_] of [total] windows
    settled, [hits] served without dispatching, [dispatched] put on the
    worker fleet. *)

type info = { uptime_s : int; version : string }
(** The v5 tail of a [Status] reply: how long the daemon has been up and
    which build it is.  Both stay default ([0], [""]) against a pre-v5
    server — a stale daemon is diagnosable by exactly that. *)

val submit :
  ?timeout:float ->
  ?on_artifact:(key:string -> json:string -> unit) ->
  Darco_dispatch.addr ->
  Campaign.t ->
  (stats * string, string) result
(** Submit the campaign and block until it finishes, returning the final
    counters and the sweep's JSON document text — byte-identical to what
    [darco sample --json] writes for the same parameters.  [on_artifact]
    sees every finished window ([json = ""] marks a failed one).
    [timeout] (default 3600s) bounds the whole conversation. *)

val status :
  ?timeout:float ->
  Darco_dispatch.addr ->
  (string * stats * info, string) result
(** Service-wide counters: the server's state string, as {!stats} the
    completed/total submissions and cumulative hit/dispatch counts, and
    the daemon's {!info}. *)

val scrape : ?timeout:float -> Darco_dispatch.addr -> (string, string) result
(** One METR round trip (needs a v5 server): the daemon's live registry
    snapshot as JSON text ({!Darco_obs.Registry.of_json} parses it;
    {!Darco_obs.Registry.exposition} renders it byte-identically to the
    server's [--metrics-file] dump). *)

val health : ?timeout:float -> Darco_dispatch.addr -> (string, string) result
(** One HLTH round trip (needs a v5 server): the liveness/readiness
    document — uptime, version, per-worker keepalive state, queue
    depths, per-campaign progress with planner CI state, library
    hit-rate — as JSON text. *)

val fetch :
  ?timeout:float ->
  Darco_dispatch.addr ->
  Campaign.t ->
  offset:int ->
  (string option, string) result
(** Look one window of the campaign up in the server's artifact library
    without submitting anything: [Ok (Some json)] on a hit, [Ok None]
    when the library has no such window (or no checkpoint set for the
    campaign). *)
