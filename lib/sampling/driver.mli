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

type index
(** Checkpoints sorted by [at] into an array, so repeated nearest-checkpoint
    queries (one per window the adaptive planner considers) cost
    O(log n) instead of the O(n) fold each [nearest] call pays. *)

val index_of : checkpoint list -> index
(** Sort the checkpoints into a query index.  Stable on [at]: among
    equal-offset checkpoints the earliest in list order wins, matching
    [nearest].  Raises [Invalid_argument] on an empty list. *)

val nearest_ix : index -> int -> checkpoint
(** Binary search for the latest checkpoint at or before the target
    instruction count (the earliest checkpoint when none qualifies) —
    the same answer [nearest] gives on the list the index was built
    from. *)

val nearest : checkpoint list -> int -> checkpoint
(** The latest checkpoint at or before the target instruction count.
    Raises [Invalid_argument] on an empty list. *)

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
  ?tcfg:Darco_timing.Tconfig.t ->
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
