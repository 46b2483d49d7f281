open Darco_obs

(** The in-memory aggregator sink: folds the event stream back into a
    {!Stats.t}.  On a run whose bus was created before the controller
    (so initialization events are captured), the aggregate equals the
    core's own statistics field-by-field — the invariant
    [test/test_obs.ml] pins down. *)

val apply : Stats.t -> at:int -> Event.t -> unit
(** Fold one event into the aggregate. *)

val attach : Bus.t -> Stats.t
(** Attach a fresh aggregate to the bus and return it (it fills as the
    run emits). *)
