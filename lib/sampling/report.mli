(** Assembly of the canonical sweep-result document.

    [darco sample --json] and the campaign service ({!Darco_serve}) both
    report a sweep as one JSON object; CI [cmp]s those files across
    backends and the artifact library promises byte-identical output on
    a resubmitted sweep.  This module is the single producer of that
    document: field order, float formatting ({!Darco_obs.Jsonx}'s
    [%.17g]) and row shape live here and nowhere else. *)

type t = {
  doc : Darco_obs.Jsonx.t;  (** the complete sweep document *)
  ipc_mean : float;
  ipc_stddev : float;
  ipc_ci95 : float;
  n_ipc : int;  (** windows contributing an IPC (the [Ok] ones) *)
  watts_mean : float;
  watts_ci95 : float;
  epi_nj_mean : float;
  epi_nj_ci95 : float;
  energy_j_mean : float;
  energy_j_ci95 : float;
  n_power : int;  (** windows contributing power-model outputs *)
  avg_error : float option;
      (** mean relative IPC error vs the [full_ipcs] reference, when given *)
  failed : bool;  (** at least one window settled as [Failed] *)
}

val sweep_json :
  benchmark:string ->
  seed:int ->
  interval:int ->
  window:int ->
  warmup:int ->
  ?full_ipcs:(int * float) list ->
  ?plan:Plan.t ->
  (int * Sweep.result) list ->
  t
(** [sweep_json ~benchmark .. rows] builds the document from the sweep's
    [(offset, result)] rows, in row order.  [full_ipcs] optionally maps
    offsets to reference IPCs from uninterrupted detailed simulation
    ([--verify]); matching rows gain [ipc_full]/[error] fields and the
    document an [avg_error] field.  [plan], the planner that chose the
    windows, appends its summary, so a reader can tell an adaptive
    early-exit sweep (and how far it ran) from a fixed exhaustive one:
    [plan] (["fixed"] or ["adaptive"], its kind), [windows_used] (the
    row count, failed rows included), [ci_target] (its configured
    target, [0] for none), [ci_target_met] and [rounds] (rounds
    issued).  Without [plan] the document is byte-identical to the
    pre-planner format. *)
