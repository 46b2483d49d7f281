open Darco_guest

(** The sampled-simulation driver (paper §VI-E).

    Functional fast-forwarding drops cheap [Functional] checkpoints every N
    guest instructions; detailed measurement windows then start from the
    nearest checkpoint instead of re-simulating from the beginning, so the
    cost of a sample no longer grows with its offset. *)

type checkpoint = { at : int; snapshot : Snapshot.t }

val functional_checkpoints :
  ?input:string ->
  seed:int ->
  interval:int ->
  horizon:int ->
  Program.t ->
  checkpoint list
(** Boot the x86 component and run it functionally to [horizon] guest
    instructions (or the guest's halt, whichever is first), capturing a
    checkpoint at instruction 0 and then every [interval] instructions.
    Sorted by [at], ascending. *)

type 'a index
(** Entries keyed by the instruction count they were taken at, sorted by
    it into an array, so repeated nearest-checkpoint queries (one per
    window the adaptive planner considers) cost O(log n) instead of a
    fold.  The entries are checkpoints, or whatever stands for one: the
    campaign service selects among [(at, store digest)] pairs with the
    same rule, without decoding a snapshot. *)

val index_of : ('a -> int) -> 'a list -> 'a index
(** [index_of at entries] sorts the entries into a query index by [at].
    Stable: among equal-offset entries the earliest in list order wins.
    Raises [Invalid_argument] on an empty list. *)

val nearest_ix : 'a index -> int -> 'a
(** Binary search for the latest entry at or before the target
    instruction count (the earliest entry when none qualifies).  The one
    checkpoint-selection rule: {!nearest}, every work unit, the service's
    admission and its library fetch all choose through it. *)

val nearest : checkpoint list -> int -> checkpoint
(** [nearest_ix] over a checkpoint list.  Raises [Invalid_argument] on an
    empty list. *)

val controller_at :
  ?cfg:Darco.Config.t ->
  ?bus:Darco_obs.Bus.t ->
  checkpoint list ->
  start:int ->
  Darco.Controller.t
(** A controller whose co-designed component initializes cold at [start] —
    the drop-in replacement for [Controller.create_at ~start] that costs
    O(interval) instead of O(start). *)

type window_result = {
  w_offset : int;          (** where the measurement window began *)
  w_window : int;          (** guest instructions measured *)
  w_warmup : int;          (** detailed warm-up instructions before it *)
  w_from_checkpoint : int; (** the checkpoint the run started from *)
  w_instructions : int;    (** host instructions retired in the window *)
  w_cycles : int;          (** cycles spent in the window *)
  w_ipc : float;
  w_power : Darco_power.Model.report;
      (** the power model evaluated over the window's pipeline activity
          alone (warm-up excluded), so sweeps can aggregate energy/power
          with the same stddev/CI treatment as IPC *)
}

val detailed_window :
  ?cfg:Darco.Config.t ->
  ?warmup:int ->
  checkpoints:checkpoint list ->
  offset:int ->
  window:int ->
  unit ->
  window_result
(** One detailed sample: restore near [offset - warmup], run the co-designed
    component with an attached timing pipeline through the warm-up, then
    measure IPC over [window] guest instructions. *)

val window_json : window_result -> Darco_obs.Jsonx.t
(** Flat JSON of the result, including the power fields ([energy_j],
    [avg_watts], [epi_nj]).  Deterministic: no wall-clock field, so a
    window's document is the same wherever it ran; its cost is observed
    through "running" span durations. *)
