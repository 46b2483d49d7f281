open Darco_guest

(** The warm-up simulation methodology of §VI-E.

    Sampling-based simulation needs the software layer's state (profiler
    counters, code cache) warmed up in addition to the microarchitectural
    state, and a faithful warm-up would need to be orders of magnitude
    longer than for a conventional processor.  The paper's technique
    downscales the promotion thresholds during the warm-up phase and
    restores them for measurement; an off-line heuristic picks the
    (scaling factor, warm-up length) pair whose basic-block execution-
    frequency distribution best correlates with the authoritative run's.

    [run_study] reproduces the experiment: for each sample it measures the
    window IPC under full detailed simulation (the authoritative result)
    and under sampled simulation with the heuristically chosen warm-up
    configuration, reporting the per-sample error and the wall-clock
    simulation-cost reduction. *)

type candidate = { scale_factor : int; warmup_insns : int }

type sample_result = {
  offset : int;
  chosen : candidate;
  correlation : float;
  ipc_full : float;
  ipc_sampled : float;
  error : float;
}

type report = {
  samples : sample_result list;
  avg_error : float;
  baseline_error : float;
      (** error of the conventional long-warm-up baseline *)
  ipc_sampled_mean : float;
      (** mean sampled IPC across the windows — report it with
          {!field-ipc_sampled_ci95} so the point estimate carries its
          sampling error *)
  ipc_sampled_ci95 : float;
      (** 95% confidence half-width over the sample windows
          ([Stats_math.ci95_halfwidth], SMARTS-style) *)
  ipc_full_mean : float;   (** same, for the authoritative windows *)
  ipc_full_ci95 : float;
  speedup : float;
      (** baseline (long, unscaled warm-up) time / scaled-warm-up time — the
          paper's "simulation cost reduced 65x" metric *)
  t_full : float;      (** detailed simulation of the whole span, for context *)
  t_baseline : float;
  t_sampled : float;
}

val run_study :
  ?cfg:Darco.Config.t ->
  ?candidates:candidate list ->
  ?baseline_warmup:int ->
  program:Program.t ->
  seed:int ->
  sample_offsets:int list ->
  window:int ->
  unit ->
  report
(** Every fast-forward (baseline and per-candidate) starts from the nearest
    functional checkpoint, dropped every 100k guest instructions in a
    single pass up front — so a sample's cost depends on its warm-up
    length, not its offset.  Every pipeline is {!Darco_timing.Tconfig.default}'s. *)

val pp_report : Format.formatter -> report -> unit
