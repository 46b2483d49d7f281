(* The sweep document: everything [darco sample --json] writes, assembled
   in one place so every producer of a sweep result — the CLI and the
   campaign service — emits byte-identical JSON for the same windows.
   Byte identity is what CI's cmp checks and the artifact library's
   resubmit-hit guarantee rest on, so the field order and float
   formatting here are part of the observable contract. *)

module Jsonx = Darco_obs.Jsonx
module SM = Darco_util.Stats_math

type t = {
  doc : Jsonx.t;
  ipc_mean : float;
  ipc_stddev : float;
  ipc_ci95 : float;
  n_ipc : int;
  watts_mean : float;
  watts_ci95 : float;
  epi_nj_mean : float;
  epi_nj_ci95 : float;
  energy_j_mean : float;
  energy_j_ci95 : float;
  n_power : int;
  avg_error : float option;
  failed : bool;
}

let sweep_json ~benchmark ~seed ~interval ~window ~warmup
    ?(full_ipcs = []) ?plan (rows : (int * Sweep.result) list) =
  let errors = ref [] in
  let ipcs = ref [] in
  let powers = ref [] in
  let sample_rows =
    List.map
      (fun (off, (r : Sweep.result)) ->
        match r.outcome with
        | Sweep.Failed reason ->
          Jsonx.Obj
            [
              ("label", Jsonx.String r.label);
              ("ok", Jsonx.Bool false);
              ("reason", Jsonx.String reason);
            ]
        | Sweep.Ok json ->
          let ipc = Option.value ~default:0.0 (Sweep.ipc r.outcome) in
          ipcs := ipc :: !ipcs;
          let num key = Option.bind (Jsonx.member key json) Jsonx.to_float in
          (match (num "energy_j", num "avg_watts", num "epi_nj") with
          | Some e, Some w, Some epi -> powers := (e, w, epi) :: !powers
          | _ -> ());
          let extra =
            match List.assoc_opt off full_ipcs with
            | None -> []
            | Some full ->
              let err = SM.relative_error ipc full in
              errors := err :: !errors;
              [
                ("ipc_full", Jsonx.Float full);
                ("error", Jsonx.Float err);
              ]
          in
          Jsonx.Obj
            ([
               ("label", Jsonx.String r.label);
               ("ok", Jsonx.Bool true);
               ("result", json);
             ]
            @ extra))
      rows
  in
  let ipcs = List.rev !ipcs in
  let ipc_mean = SM.mean ipcs in
  let ipc_stddev = SM.sample_stddev ipcs in
  let ipc_ci95 = SM.ci95_halfwidth ipcs in
  let powers = List.rev !powers in
  let pstat xs = (SM.mean xs, SM.ci95_halfwidth xs) in
  let watts_mean, watts_ci95 = pstat (List.map (fun (_, w, _) -> w) powers) in
  let epi_mean, epi_ci95 = pstat (List.map (fun (_, _, e) -> e) powers) in
  let energy_mean, energy_ci95 = pstat (List.map (fun (e, _, _) -> e) powers) in
  let avg_error =
    match !errors with [] -> None | es -> Some (SM.mean es)
  in
  let failed =
    List.exists
      (fun (_, (r : Sweep.result)) ->
        match r.outcome with Sweep.Failed _ -> true | Sweep.Ok _ -> false)
      rows
  in
  let doc =
    Jsonx.Obj
      ([
         ("benchmark", Jsonx.String benchmark);
         ("seed", Jsonx.Int seed);
         ("interval", Jsonx.Int interval);
         ("window", Jsonx.Int window);
         ("warmup", Jsonx.Int warmup);
         ("ipc_mean", Jsonx.Float ipc_mean);
         ("ipc_stddev", Jsonx.Float ipc_stddev);
         ("ipc_ci95", Jsonx.Float ipc_ci95);
         ("watts_mean", Jsonx.Float watts_mean);
         ("watts_ci95", Jsonx.Float watts_ci95);
         ("epi_nj_mean", Jsonx.Float epi_mean);
         ("epi_nj_ci95", Jsonx.Float epi_ci95);
         ("energy_j_mean", Jsonx.Float energy_mean);
         ("energy_j_ci95", Jsonx.Float energy_ci95);
         ("samples", Jsonx.List sample_rows);
       ]
      (* no histograms or wall-clock data here: this document is the
         sweep's scientific result and must be byte-identical whichever
         backend — or serving process — ran it *)
      @ (match avg_error with
        | None -> []
        | Some e -> [ ("avg_error", Jsonx.Float e) ])
      @
      (* appended only for planned sweeps, so every pre-planner document —
         and the fixed one-shot path run without a plan — keeps its exact
         bytes *)
      match plan with
      | None -> []
      | Some p ->
        let cfg = Plan.config p in
        [
          ( "plan",
            Jsonx.String
              (match cfg.Plan.kind with
              | Plan.Fixed -> "fixed"
              | Plan.Adaptive -> "adaptive") );
          ("windows_used", Jsonx.Int (List.length rows));
          ("ci_target", Jsonx.Float cfg.Plan.ci_target);
          ("ci_target_met", Jsonx.Bool (Plan.ci_target_met p));
          ("rounds", Jsonx.Int (Plan.rounds p));
        ])
  in
  {
    doc;
    ipc_mean;
    ipc_stddev;
    ipc_ci95;
    n_ipc = List.length ipcs;
    watts_mean;
    watts_ci95;
    epi_nj_mean = epi_mean;
    epi_nj_ci95 = epi_ci95;
    energy_j_mean = energy_mean;
    energy_j_ci95 = energy_ci95;
    n_power = List.length powers;
    avg_error;
    failed;
  }
