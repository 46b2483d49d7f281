(** Chrome [trace_event] export of the span timeline.

    A {!t} is a bus sink collecting {!Event.Span_begin}/{!Event.Span_end}
    pairs plus the instant-worthy dispatch markers ([Worker_up],
    [Worker_lost], [Steal], [Ckpt_push], [Ckpt_hit], [Dispatch_retry],
    [Dispatch_fallback]) and planner decisions ([Plan_round],
    [Plan_predict], [Plan_stop]), each instant named and argued as in
    the event trace ({!Event.name}, {!Event.fields}).  {!to_json}
    renders the standard
    [{"traceEvents": [...]}] document — loadable in Perfetto /
    [chrome://tracing]:

    - each span [host] becomes a process ([pid], named by a
      [process_name] metadata record; the dispatcher is pid 1);
    - each [corr] becomes a thread ([tid]) within its host, so a work
      unit's dispatcher-side and worker-side spans sit on parallel
      tracks sharing the unit id;
    - [ts] is the span's wall-clock stamp, rebased so the earliest
      event is 0; within a process, microsecond ties order by the
      process-local sequence number, keeping [B]/[E] properly nested.

    {!validate} checks a rendered (or externally loaded) document
    against the schema the tests and CI enforce: well-formed JSON, a
    [traceEvents] list, name/ph/ts/pid/tid on every non-metadata record,
    and every [B] matched by its [E] in LIFO order per [(pid, tid)]. *)

type t

val create : unit -> t
val attach : Bus.t -> t
val record : t -> at:int -> Event.t -> unit
(** Fold one event (what {!attach}'s sink does). *)

val to_json : t -> Jsonx.t
val write_file : t -> string -> unit

val validate : Jsonx.t -> (unit, string) result
val validate_file : string -> (unit, string) result
(** {!validate} after reading and parsing [path]; I/O and parse errors
    report as [Error]. *)
