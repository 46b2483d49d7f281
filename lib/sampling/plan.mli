(** Round-based, variance-driven window planning (adaptive sampling).

    The one-shot pipeline picked every measurement window up front
    (fixed-stride offsets) and dispatched them all; the planner closes
    the loop instead.  Windows run in {e rounds}: after each round the
    completed IPCs are folded into per-stratum variance — a stratum is
    the hot-region phase a window's nearest checkpoint sits in
    ({!Snapshot.guest_eip}) — and the next round's windows are chosen
    where the remaining uncertainty is, until the benchmark's CI95
    target is met, the window budget is exhausted, or no candidate
    offsets remain.

    {b Determinism.}  Rounds are the determinism barrier: backends
    complete a round's units in nondeterministic order, but the planner
    only sees results through {!record}, which sorts them by offset
    before folding.  Every planner decision is a pure function of the
    seeded RNG state and the sorted completed set, with ties broken by
    total order (stratum phase ascending, offset ascending) — so an
    adaptive sweep chooses the same windows, in the same dispatch
    order, whichever backend runs it, and the sweep JSON stays
    byte-identical across serial/local/domains/remote.

    {b Predictor.}  A cheap analytic per-region IPC predictor rides
    along: the sample mean of each stratum's completed windows, falling
    back to the global mean while a stratum is unexplored.  It prices
    the windows the planner considers ({!predict}, emitted as
    [Plan_predict] events) without costing a single extra simulation. *)

type kind =
  | Fixed
      (** degenerate plan: all candidate offsets in ascending order,
          no early exit — the planner-shaped spelling of the existing
          one-shot sweep *)
  | Adaptive  (** variance-driven rounds with early exit *)

type config = {
  kind : kind;
  ci_target : float;
      (** stop once the CI95 half-width of the mean IPC is within this
          {e fraction} of the mean (e.g. [0.02] = ±2%).  [<= 0.] never
          stops on confidence *)
  max_windows : int;  (** total window budget; [<= 0] = unlimited *)
  round_size : int;  (** windows dispatched per round (min 1) *)
  seed : int;  (** planner RNG seed (within-stratum offset choice) *)
}

val default : config
(** [Adaptive], [ci_target = 0.02], unlimited budget, [round_size = 4],
    [seed = 42]. *)

type stop =
  | Ci_target  (** converged: the CI95 target is met *)
  | Budget  (** [max_windows] exhausted *)
  | Exhausted  (** no candidate offsets left *)

val stop_reason : stop -> string
(** Stable machine-readable name: ["ci_target"], ["budget"],
    ["exhausted"] — the [reason] field of [Plan_stop]. *)

type t

val create :
  ?bus:Darco_obs.Bus.t -> config -> candidates:int list -> phase_of:(int -> int) -> t
(** A planner over the candidate window offsets.  [phase_of] maps an
    offset to its stratum id — callers pass the guest PC of the nearest
    functional checkpoint ({!Driver.nearest_ix} + {!Snapshot.guest_eip}),
    which is backend-independent.  Duplicate candidates are dropped.
    When [bus] is given and active the planner emits [Plan_round],
    [Plan_predict] and [Plan_stop] events as it decides. *)

val record : t -> (int * float) list -> unit
(** Fold one completed round of [(offset, ipc)] measurements.  Order
    does not matter — results are sorted by offset before folding, so
    the planner state after a round is independent of completion
    order.  Results admitted from an artifact library {e before} any
    dispatch are recorded the same way and count toward the CI. *)

val next : t -> int list
(** Choose the next round's window offsets, highest-value first (the
    dispatch-priority order).  Returns [[]] once the planner has
    stopped — check {!stopped} for why.  Calling [next] again after a
    stop keeps returning [[]]. *)

val config : t -> config
(** The configuration the planner was created with ([round_size] at
    least 1). *)

val stopped : t -> stop option
val completed : t -> int  (** windows recorded so far *)

val rounds : t -> int  (** rounds issued so far *)

val mean : t -> float  (** running mean IPC over completed windows *)

val ci95 : t -> float  (** CI95 half-width of {!mean} (0 under 2 samples) *)

val ci_target_met : t -> bool
val predict : t -> int -> float
(** Predicted IPC for a candidate offset: its stratum's sample mean,
    else the global mean, else [0.]. *)
