(* The evaluation harness: regenerates every quantitative result of the
   paper (Figures 4-7, the §VI-A speed numbers, the §VI-E warm-up case
   study), plus the design-choice ablations called out in DESIGN.md.

   Figures are printed as labelled rows/series (with ASCII renderings of the
   paper's stacked-bar charts); EXPERIMENTS.md records the paper-vs-measured
   comparison.  The §VI-A speed table is [Speed.measure]: one timed
   [Controller.run] of 400k guest instructions per row, on a cold code
   cache. *)

module Registry = Darco_workloads.Registry
module Table = Darco_util.Table
module SM = Darco_util.Stats_math

type bench_stats = { name : string; suite : Registry.suite; stats : Darco.Stats.t }

(* Machine-readable record of every run this process performed, dumped to
   BENCH_results.json at exit; a divergence anywhere fails the harness. *)
type recorded = {
  r_label : string;
  r_suite : Registry.suite;
  r_stats : Darco.Stats.t;
  r_diverged : (int * string list) option;
}

let recorded : recorded list ref = ref []

(* Sampling-error summary of the §VI-E study (when it ran), so the JSON
   carries the IPC point estimates together with their confidence
   intervals rather than bare numbers. *)
let sampling_summary : Darco_obs.Jsonx.t option ref = ref None

let run_benchmark ?(cfg = Darco.Config.default) ?(timing = false) ?max_insns ?label
    (e : Registry.entry) =
  let ctl = Darco.Controller.create ~cfg ~seed:42 (e.build ()) in
  let pipe =
    if timing then begin
      let p = Darco_timing.Pipeline.create Darco_timing.Tconfig.default in
      Darco_timing.Pipeline.attach p (Darco.Controller.bus ctl);
      Some p
    end
    else None
  in
  let diverged =
    match Darco.Controller.run ?max_insns ctl with
    | `Done | `Limit -> None
    | `Diverged d ->
      Printf.printf "!! %s diverged at %d: %s\n" e.name d.at_retired
        (String.concat "; " d.details);
      Some (d.at_retired, d.details)
  in
  let stats = Darco.Controller.stats ctl in
  recorded :=
    {
      r_label = Option.value label ~default:e.name;
      r_suite = e.suite;
      r_stats = stats;
      r_diverged = diverged;
    }
    :: !recorded;
  ({ name = e.name; suite = e.suite; stats }, pipe)

let run_benchmark_stats ?cfg ?label e = fst (run_benchmark ?cfg ?label e)

(* One fixed-size slice of a chunked run: enough to put an error bar on the
   table columns that used to be bare end-of-run point estimates. *)
type chunk = {
  c_ipc : float;
  c_tol : float;  (* TOL share of the chunk's host stream, percent *)
  c_report : Darco_power.Model.report option;
}

(* Like [run_benchmark], but pausing every [chunk] guest instructions (up
   to [nchunks] times, or until the workload completes) to difference the
   live counters — per-chunk IPC, TOL share and power report.  The chunk
   lists feed mean ± 95% CI columns; the recorded end-of-run entry is the
   same as the plain runner's. *)
let run_benchmark_chunked ?(cfg = Darco.Config.default) ?(timing = false)
    ~chunk ~nchunks ?label (e : Registry.entry) =
  let ctl = Darco.Controller.create ~cfg ~seed:42 (e.build ()) in
  let pipe =
    if timing then begin
      let p = Darco_timing.Pipeline.create Darco_timing.Tconfig.default in
      Darco_timing.Pipeline.attach p (Darco.Controller.bus ctl);
      Some p
    end
    else None
  in
  let stats = Darco.Controller.stats ctl in
  let chunks = ref [] in
  let diverged = ref None in
  let prev_guest = ref 0 in
  let prev_ov = ref 0 in
  let prev_app = ref 0 in
  let prev_insns = ref 0 in
  let prev_cycles = ref 0 in
  let prev_ev =
    ref
      (Option.map
         (fun p -> Darco_timing.Pipeline.events_copy (Darco_timing.Pipeline.events p))
         pipe)
  in
  (try
     for k = 1 to nchunks do
       let finished =
         match Darco.Controller.run ~max_insns:(k * chunk) ctl with
         | `Limit -> false
         | `Done -> true
         | `Diverged d ->
           Printf.printf "!! %s diverged at %d: %s\n" e.name d.at_retired
             (String.concat "; " d.details);
           diverged := Some (d.at_retired, d.details);
           raise Exit
       in
       let guest = Darco.Stats.guest_total stats in
       let ov = Darco.Stats.total_overhead stats in
       let app = Darco.Stats.host_app_total stats in
       let host_d = ov - !prev_ov + (app - !prev_app) in
       let tol =
         if host_d = 0 then 0.0 else 100. *. float_of_int (ov - !prev_ov) /. float_of_int host_d
       in
       let ipc, report =
         match pipe with
         | None -> (0.0, None)
         | Some p ->
           let di = Darco_timing.Pipeline.instructions p - !prev_insns in
           let dc = Darco_timing.Pipeline.cycles p - !prev_cycles in
           prev_insns := Darco_timing.Pipeline.instructions p;
           prev_cycles := Darco_timing.Pipeline.cycles p;
           let now = Darco_timing.Pipeline.events p in
           let delta = Darco_timing.Pipeline.events_diff now (Option.get !prev_ev) in
           prev_ev := Some (Darco_timing.Pipeline.events_copy now);
           ( (if dc = 0 then 0.0 else float_of_int di /. float_of_int dc),
             Some (Darco_power.Model.evaluate delta) )
       in
       (* a zero-length tail chunk (workload already done) carries no signal *)
       if guest > !prev_guest then
         chunks := { c_ipc = ipc; c_tol = tol; c_report = report } :: !chunks;
       prev_guest := guest;
       prev_ov := ov;
       prev_app := app;
       if finished then raise Exit
     done
   with Exit -> ());
  recorded :=
    {
      r_label = Option.value label ~default:e.name;
      r_suite = e.suite;
      r_stats = stats;
      r_diverged = !diverged;
    }
    :: !recorded;
  ({ name = e.name; suite = e.suite; stats }, List.rev !chunks)

(* "12.3 ± 0.4" for a per-chunk metric (CI half-width is 0 under 2 chunks). *)
let pm fmt xs = Printf.sprintf "%s ± %s"
    (Printf.sprintf fmt (SM.mean xs))
    (Printf.sprintf fmt (SM.ci95_halfwidth xs))

let suite_results = lazy (List.map run_benchmark_stats Registry.all)

let labels results = List.map (fun r -> r.name) results

let with_averages (results : bench_stats list) (metric : bench_stats -> float) =
  let per_suite s =
    SM.mean
      (List.filter_map
         (fun r -> if r.suite = s then Some (metric r) else None)
         results)
  in
  ( List.map metric results,
    [
      ("SPECINT2006", per_suite Registry.Specint);
      ("SPECFP2006", per_suite Registry.Specfp);
      ("Physicsbench", per_suite Registry.Physicsbench);
    ] )

(* --- Figure 4: dynamic guest instruction distribution in IM/BBM/SBM --- *)

let fig4 () =
  let results = Lazy.force suite_results in
  print_endline "=== Figure 4: dynamic x86 instruction distribution (IM/BBM/SBM) ===";
  let series =
    [
      ( "IM",
        Array.of_list
          (List.map (fun r -> let im, _, _ = Darco.Stats.mode_fractions r.stats in im) results) );
      ( "BBM",
        Array.of_list
          (List.map (fun r -> let _, bbm, _ = Darco.Stats.mode_fractions r.stats in bbm) results) );
      ( "SBM",
        Array.of_list
          (List.map (fun r -> let _, _, sbm = Darco.Stats.mode_fractions r.stats in sbm) results) );
    ]
  in
  print_string (Table.stacked_bars ~labels:(labels results) ~series);
  let _, averages =
    with_averages results (fun r ->
        let _, _, sbm = Darco.Stats.mode_fractions r.stats in
        100. *. sbm)
  in
  List.iter (fun (s, v) -> Printf.printf "  %s average SBM share: %.1f%%\n" s v) averages;
  print_endline "  (paper: 88% / 96% / 75%)\n"

(* --- Figure 5: host instructions per guest instruction in SBM --- *)

let fig5 () =
  let results = Lazy.force suite_results in
  print_endline "=== Figure 5: host instructions per x86 instruction in SBM ===";
  let values, averages =
    with_averages results (fun r -> Darco.Stats.emulation_cost_sbm r.stats)
  in
  print_string
    (Table.bar_chart ~labels:(labels results) ~values:(Array.of_list values)
       ~unit:"host/guest");
  List.iter (fun (s, v) -> Printf.printf "  %s average: %.2f\n" s v) averages;
  print_endline "  (paper: 4.0 / 2.6 / 3.1)\n"

(* --- Figure 6: TOL overhead vs application instructions --- *)

let fig6 () =
  let results = Lazy.force suite_results in
  print_endline "=== Figure 6: host dynamic instruction distribution (TOL vs app) ===";
  let series =
    [
      ( "TOL overhead",
        Array.of_list
          (List.map (fun r -> float_of_int (Darco.Stats.total_overhead r.stats)) results) );
      ( "application",
        Array.of_list
          (List.map (fun r -> float_of_int (Darco.Stats.host_app_total r.stats)) results)
      );
    ]
  in
  print_string (Table.stacked_bars ~labels:(labels results) ~series);
  let _, averages =
    with_averages results (fun r -> 100. *. Darco.Stats.overhead_fraction r.stats)
  in
  List.iter (fun (s, v) -> Printf.printf "  %s average TOL share: %.1f%%\n" s v) averages;
  print_endline "  (paper: 16% / 13% / 41%)\n"

(* --- Figure 7: TOL overhead breakdown --- *)

let fig7 () =
  let results = Lazy.force suite_results in
  print_endline "=== Figure 7: dynamic TOL overhead distribution ===";
  let cats =
    [
      ("interpreter", Darco.Stats.Ov_interp);
      ("BB translator", Darco.Stats.Ov_bb_translate);
      ("SB translator", Darco.Stats.Ov_sb_translate);
      ("prologue", Darco.Stats.Ov_prologue);
      ("chaining", Darco.Stats.Ov_chaining);
      ("code $ lookup", Darco.Stats.Ov_cc_lookup);
      ("others", Darco.Stats.Ov_other);
    ]
  in
  let series =
    List.map
      (fun (name, ov) ->
        ( name,
          Array.of_list
            (List.map
               (fun r -> float_of_int (Darco.Stats.overhead_of r.stats ov))
               results) ))
      cats
  in
  print_string (Table.stacked_bars ~labels:(labels results) ~series);
  let header = "suite" :: List.map fst cats in
  let rows =
    List.map
      (fun suite ->
        let members = List.filter (fun r -> r.suite = suite) results in
        let share ov =
          SM.mean
            (List.map
               (fun r ->
                 SM.percent
                   (float_of_int (Darco.Stats.overhead_of r.stats ov))
                   (float_of_int (Darco.Stats.total_overhead r.stats)))
               members)
        in
        Registry.suite_name suite
        :: List.map (fun (_, ov) -> Printf.sprintf "%.1f%%" (share ov)) cats)
      [ Registry.Specint; Registry.Specfp; Registry.Physicsbench ]
  in
  print_endline (Table.render ~header rows);
  print_endline
    "  (paper: interpretation + BB-translation dominate Physicsbench; SB\n\
    \   translator overhead comparatively small everywhere)\n"

(* --- §VI-A: DARCO speed --- *)

let speed_summary : Darco_obs.Jsonx.t option ref = ref None

let speed () =
  print_endline "=== Section VI-A: DARCO speed ===";
  let s =
    Darco_studies.Speed.measure ~insns:400_000
      ((Registry.find "429.mcf").build ())
      ~seed:42
  in
  Format.printf "%a@." Darco_studies.Speed.pp s;
  speed_summary :=
    Some
      Darco_obs.Jsonx.(
        Obj
          [
            ("workload", String "429.mcf");
            ("insns", Int 400_000);
            ("guest_mips_emulated", Float s.guest_mips_emulated);
            ("guest_mips_timing", Float s.guest_mips_timing);
            ("host_mips_emulated", Float s.host_mips_emulated);
            ("host_mips_timing", Float s.host_mips_timing);
            ("minor_words_per_guest_insn_emulated", Float s.minor_words_emulated);
            ("minor_words_per_guest_insn_timing", Float s.minor_words_timing);
          ]);
  print_endline
    "  (paper, on 2017 hardware: guest 3.4 MIPS emulated / 370 KIPS timed;\n\
    \   host 20 MIPS emulated / 2 MIPS timed)\n"

(* --- §VI-E: warm-up methodology case study --- *)

let warmup () =
  print_endline "=== Section VI-E: warm-up simulation methodology ===";
  let program = (Registry.find "462.libquantum").build ~scale:5 () in
  let report =
    Darco_studies.Warmup.run_study ~program ~seed:42
      ~sample_offsets:[ 700_000; 1_300_000; 1_900_000 ]
      ~window:25_000 ()
  in
  Format.printf "%a@." Darco_studies.Warmup.pp_report report;
  let open Darco_obs in
  let ipcs = List.map (fun (s : Darco_studies.Warmup.sample_result) -> s.ipc_sampled) report.samples in
  sampling_summary :=
    Some
      (Jsonx.Obj
         [
           ("benchmark", Jsonx.String "462.libquantum");
           ("window", Jsonx.Int 25_000);
           ("ipc_mean", Jsonx.Float report.ipc_sampled_mean);
           ("ipc_stddev", Jsonx.Float (SM.sample_stddev ipcs));
           ("ipc_ci95", Jsonx.Float report.ipc_sampled_ci95);
           ("ipc_full_mean", Jsonx.Float report.ipc_full_mean);
           ("ipc_full_ci95", Jsonx.Float report.ipc_full_ci95);
           ("avg_error", Jsonx.Float report.avg_error);
           ( "samples",
             Jsonx.List
               (List.map
                  (fun (s : Darco_studies.Warmup.sample_result) ->
                    Jsonx.Obj
                      [
                        ("offset", Jsonx.Int s.offset);
                        ("ipc", Jsonx.Float s.ipc_sampled);
                        ("ipc_full", Jsonx.Float s.ipc_full);
                        ("error", Jsonx.Float s.error);
                      ])
                  report.samples) );
         ]);
  print_endline "  (paper: ~65x simulation-cost reduction at 0.75% average error)\n"

(* --- hot regions: the bus-fed profiler over a real workload --- *)

let profile_summary : Darco_obs.Jsonx.t option ref = ref None

let profile () =
  print_endline "=== Hot regions: bus-fed profiler (429.mcf) ===";
  let e = Registry.find "429.mcf" in
  let bus = Darco_obs.Bus.create () in
  let prof = Darco_obs.Prof.attach bus in
  let ctl = Darco.Controller.create ~bus ~seed:42 (e.build ()) in
  (match Darco.Controller.run ~max_insns:400_000 ctl with
  | `Done | `Limit -> ()
  | `Diverged d ->
    Printf.printf "!! 429.mcf diverged at %d under profiling\n" d.at_retired;
    exit 1);
  let stats = Darco.Controller.stats ctl in
  (* the headline property: attribution is exact, not approximate *)
  (match Darco_obs.Prof.reconciles prof stats with
  | Ok () -> ()
  | Error m ->
    Printf.printf "!! profiler does not reconcile with Stats.t: %s\n" m;
    exit 1);
  Format.printf "%a@." (Darco_obs.Prof.pp_table ~n:10) prof;
  profile_summary := Some (Darco_obs.Prof.to_json ~n:10 prof);
  print_endline "  (attribution reconciles exactly with the run's Stats.t)\n"

(* One Bechamel OLS estimate: nanoseconds per call of [f], as case [name]
   of [group], from [quota] seconds of sampling. *)
let ols_ns ~group ~quota name f =
  let open Bechamel in
  let open Toolkit in
  let test =
    Test.make_grouped ~name:group [ Test.make ~name (Staged.stage f) ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:8 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.merge ols instances
      (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  let tbl = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  match Analyze.OLS.estimates (Hashtbl.find tbl (group ^ "/" ^ name)) with
  | Some [ est ] -> est
  | Some _ | None -> nan

(* --- multicore runtime: loopback workers vs domain pool on one image --- *)

module Sampling = Darco_sampling

let parallel_summary : Darco_obs.Jsonx.t option ref = ref None

(* Canonical rendering of a sweep's results: what the CI cmp gate
   compares across backends, reproduced here so the bench can assert the
   loopback fleet and the domain pool agree byte for byte before timing
   them. *)
let render_results (results : Sampling.Sweep.result list) =
  let open Darco_obs in
  Jsonx.to_string
    (Jsonx.List
       (List.map
          (fun (r : Sampling.Sweep.result) ->
            Jsonx.Obj
              [
                ("label", Jsonx.String r.label);
                ( "outcome",
                  match r.outcome with
                  | Sampling.Sweep.Ok j -> j
                  | Sampling.Sweep.Failed m -> Jsonx.String ("FAILED: " ^ m) );
              ])
          results))

(* The darco CLI built beside this executable:
   <build>/default/{bench,bin}/ — the loopback fleet runs its workers. *)
let darco_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/darco_cli.exe"

let fleet ~store ~jobs =
  Darco_dispatch.backend ~store ~exe:(darco_exe ())
    (Darco_dispatch.Local { jobs; timeout = 60.0; retries = 2 })

(* Phase order is load-bearing: once a process has created ANY domain the
   OCaml 5 runtime refuses Unix.fork forever, and each measured sweep
   runs in a forked child, so both RSS children must finish before this
   process spawns its first domain (the domain-pool Bechamel run).  The
   fleet spawns its workers, which stays legal at any point. *)
let parallel () =
  print_endline
    "=== Multicore runtime: loopback workers vs domain pool (462.libquantum) ===";
  let e = Registry.find "462.libquantum" in
  let program = e.build ~scale:5 () in
  let store = Sampling.Store.create () in
  let window = 10_000 and warmup = 5_000 and jobs = 4 in
  let offsets = List.init 8 (fun i -> 50_000 + (i * 15_000)) in
  let horizon = List.fold_left (fun acc o -> max acc (o + window)) 0 offsets in
  (* interval past the horizon: every window resolves to the checkpoint
     at instruction 0, i.e. ONE image shared by all eight units *)
  let checkpoints =
    Sampling.Driver.functional_checkpoints ~seed:42 ~interval:(horizon + 1)
      ~horizon program
  in
  let works =
    List.map
      (fun off ->
        Sampling.Work.of_window_stored ~store ~checkpoints
          ~label:(Printf.sprintf "%s@%d" e.name off)
          ~offset:off ~window ~warmup)
      offsets
  in
  Printf.printf "%d windows sharing %d checkpoint image(s), %d jobs\n%!"
    (List.length works) (Sampling.Store.count store) jobs;
  let bech name backend =
    ols_ns ~group:"parallel" ~quota:3.0 name (fun () ->
        Sampling.Sweep.run backend works)
  in
  (* wall + peak tree RSS of one sweep on [backend], measured from
     outside: the sweep runs in a forked child whose process tree (the
     child plus any workers it starts) this process samples.  The same
     yardstick for both backends — each child starts from the same
     parent image, and PSS divides pages the child still shares with us. *)
  let measure name backend =
    let path = Filename.temp_file "darco_parbench" ".out" in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      let t0 = Unix.gettimeofday () in
      let results = Sampling.Sweep.run backend works in
      let wall = Unix.gettimeofday () -. t0 in
      let oc = open_out_bin path in
      output_string oc (Printf.sprintf "%.6f\n" wall);
      output_string oc (render_results results);
      close_out oc;
      Unix._exit 0
    | pid ->
      let peak = ref 0 in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          (match Darco_util.Rss.tree_rss_kb pid with
          | Some kb when kb > !peak -> peak := kb
          | _ -> ());
          Unix.sleepf 0.01;
          wait ()
        | _, Unix.WEXITED 0 -> ()
        | _, status ->
          Printf.printf "!! %s measurement child failed (%s)\n" name
            (match status with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s);
          exit 1
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ();
      let ic = open_in_bin path in
      let wall = float_of_string (input_line ic) in
      let rendered =
        really_input_string ic (in_channel_length ic - pos_in ic)
      in
      close_in ic;
      Sys.remove path;
      (wall, (if !peak = 0 then None else Some !peak), rendered)
  in
  (* 1. the loopback fleet under Bechamel: every sweep starts and stops
     its own workers, as [--backend local:4] does *)
  let local_ns = bech "local" (fleet ~store ~jobs) in
  (* 2. one measured sweep per backend; the domains child spawns its
     domains in the child only, so this process can still fork *)
  let local_wall, local_peak, local_rendered = measure "local" (fleet ~store ~jobs) in
  let domains_wall, domains_peak, domains_rendered =
    measure "domains" (Sampling.Sweep.Backend.domains ~store ~jobs ())
  in
  (* 3. domain pool under Bechamel — the process's first domains, and
     the point past which Unix.fork is gone for good *)
  let domains_ns = bech "domains" (Sampling.Sweep.Backend.domains ~store ~jobs ()) in
  let identical = String.equal local_rendered domains_rendered in
  if not identical then begin
    Printf.printf
      "!! local and domains backends disagree on the sweep's result JSON\n";
    exit 1
  end;
  let pp_kb = function None -> "n/a" | Some kb -> Printf.sprintf "%d kB" kb in
  Printf.printf "  %-8s %8.2f ms/sweep (OLS)  wall %.2fs  peak tree RSS %s\n"
    "local" (local_ns /. 1e6) local_wall (pp_kb local_peak);
  Printf.printf "  %-8s %8.2f ms/sweep (OLS)  wall %.2fs  peak tree RSS %s\n"
    "domains" (domains_ns /. 1e6) domains_wall (pp_kb domains_peak);
  print_endline "  (result JSON byte-identical across both backends)\n";
  let open Darco_obs in
  let side ns wall peak =
    Jsonx.Obj
      [
        ("ns_per_sweep", Jsonx.Float ns);
        ("wall_s", Jsonx.Float wall);
        ( "peak_rss_kb",
          match peak with None -> Jsonx.Null | Some kb -> Jsonx.Int kb );
      ]
  in
  parallel_summary :=
    Some
      (Jsonx.Obj
         [
           ("benchmark", Jsonx.String "462.libquantum");
           ("units", Jsonx.Int (List.length works));
           ("jobs", Jsonx.Int jobs);
           ("shared_images", Jsonx.Int (Sampling.Store.count store));
           ("identical_json", Jsonx.Bool identical);
           ("local", side local_ns local_wall local_peak);
           ("domains", side domains_ns domains_wall domains_peak);
         ])

(* --- adaptive sampling: variance-driven early exit vs fixed stride --- *)

let adaptive_summary : Darco_obs.Jsonx.t option ref = ref None

(* The planner's headline claim, measured on a real workload: an
   adaptive sweep meets its CI95 target from a strict subset of the
   fixed-stride window set, and its document is byte-identical whichever
   backend runs the rounds.  Both are gates — the bench fails if the
   savings fall under 30% or the backends disagree. *)
let adaptive () =
  print_endline
    "=== Adaptive sampling: variance-driven early exit (462.libquantum) ===";
  let e = Registry.find "462.libquantum" in
  let program = e.build ~scale:5 () in
  let store = Sampling.Store.create () in
  let window = 10_000 and warmup = 5_000 and ci_target = 0.02 in
  let offsets = List.init 24 (fun i -> 150_000 + (i * 75_000)) in
  let horizon = List.fold_left (fun acc o -> max acc (o + window)) 0 offsets in
  let checkpoints =
    Sampling.Driver.functional_checkpoints ~seed:42 ~interval:100_000 ~horizon
      program
  in
  let mk off =
    Sampling.Work.of_window_stored ~store ~checkpoints
      ~label:(Printf.sprintf "%s@%d" e.name off)
      ~offset:off ~window ~warmup
  in
  let doc rows plan =
    Darco_obs.Jsonx.to_string
      (Sampling.Report.sweep_json ~benchmark:e.name ~seed:42 ~interval:100_000
         ~window ~warmup ?plan rows)
        .Sampling.Report.doc
  in
  (* the yardstick: the exhaustive fixed-stride sweep *)
  let fixed_results =
    Sampling.Sweep.run (Sampling.Sweep.Backend.serial ~store ()) (List.map mk offsets)
  in
  let fixed_doc = doc (List.combine offsets fixed_results) None in
  (* the adaptive sweep, once per backend *)
  let ix =
    Sampling.Driver.index_of (fun (c : Sampling.Driver.checkpoint) -> c.at) checkpoints
  in
  let phase_of off =
    Sampling.Snapshot.guest_eip
      (Sampling.Driver.nearest_ix ix off).Sampling.Driver.snapshot
  in
  let sweep backend =
    let plan =
      Sampling.Plan.create
        { Sampling.Plan.default with Sampling.Plan.ci_target; round_size = 6 }
        ~candidates:offsets ~phase_of
    in
    (doc (Sampling.Sweep.run_plan backend plan mk) (Some plan), plan)
  in
  let serial_doc, plan = sweep (Sampling.Sweep.Backend.serial ~store ()) in
  let local_doc, _ = sweep (fleet ~store ~jobs:4) in
  let identical = String.equal serial_doc local_doc in
  if not identical then begin
    Printf.printf
      "!! adaptive sweep documents differ between serial and local backends\n";
    exit 1
  end;
  let used = Sampling.Plan.completed plan in
  let total = List.length offsets in
  let savings = 1.0 -. (float_of_int used /. float_of_int total) in
  if not (Sampling.Plan.ci_target_met plan) then begin
    Printf.printf "!! adaptive sweep never met its CI95 target\n";
    exit 1
  end;
  if savings < 0.30 then begin
    Printf.printf "!! adaptive sweep saved only %.0f%% of the windows\n"
      (100.0 *. savings);
    exit 1
  end;
  Printf.printf
    "  fixed    %3d windows\n  adaptive %3d windows in %d round(s)  (%.0f%% \
     fewer, ci95/mean %.4f <= %.2f)\n"
    total used
    (Sampling.Plan.rounds plan)
    (100.0 *. savings)
    (Sampling.Plan.ci95 plan /. Sampling.Plan.mean plan)
    ci_target;
  print_endline "  (adaptive document byte-identical across both backends)\n";
  let open Darco_obs in
  adaptive_summary :=
    Some
      (Jsonx.Obj
         [
           ("benchmark", Jsonx.String e.name);
           ("candidates", Jsonx.Int total);
           ("fixed_windows", Jsonx.Int total);
           ("adaptive_windows", Jsonx.Int used);
           ("rounds", Jsonx.Int (Sampling.Plan.rounds plan));
           ("savings_fraction", Jsonx.Float savings);
           ("ci_target", Jsonx.Float ci_target);
           ("ci_target_met", Jsonx.Bool (Sampling.Plan.ci_target_met plan));
           ("identical_json", Jsonx.Bool identical);
           ("fixed_doc_bytes", Jsonx.Int (String.length fixed_doc));
         ])

(* --- ablations: the design choices DESIGN.md calls out --- *)

let ablation_features () =
  print_endline "=== Ablation: TOL feature toggles (458.sjeng + 435.gromacs) ===";
  let variants =
    [
      ("baseline", Darco.Config.default);
      ("no asserts", { Darco.Config.default with use_asserts = false });
      ("no mem-speculation", { Darco.Config.default with use_mem_speculation = false });
      ("no scheduling", { Darco.Config.default with opt_schedule = false });
      ( "no optimizer",
        {
          Darco.Config.default with
          opt_const_fold = false;
          opt_copy_prop = false;
          opt_cse = false;
          opt_dce = false;
          opt_rle = false;
        } );
      ("no chaining", { Darco.Config.default with use_chaining = false });
      ("no IBTC", { Darco.Config.default with use_ibtc = false });
      ("no unrolling", { Darco.Config.default with unroll_factor = 1 });
    ]
  in
  List.iter
    (fun bench ->
      let e = Registry.find bench in
      Printf.printf "-- %s (5 x 50k-insn chunks, mean ± 95%% CI) --\n" e.name;
      let header =
        [ "variant"; "emul-cost"; "host-app"; "TOL%"; "SBM%"; "IPC"; "EPI nJ" ]
      in
      let rows =
        List.map
          (fun (name, cfg) ->
            let r, chunks =
              run_benchmark_chunked ~cfg ~timing:true ~chunk:50_000 ~nchunks:5
                ~label:(e.name ^ "/" ^ name) e
            in
            let _, _, sbm = Darco.Stats.mode_fractions r.stats in
            let epi =
              (Darco_power.Model.summarize
                 (List.filter_map (fun c -> c.c_report) chunks))
                .Darco_power.Model.epi
            in
            [
              name;
              Printf.sprintf "%.2f" (Darco.Stats.emulation_cost_sbm r.stats);
              string_of_int (Darco.Stats.host_app_total r.stats);
              pm "%.1f" (List.map (fun c -> c.c_tol) chunks);
              Printf.sprintf "%.1f" (100. *. sbm);
              pm "%.3f" (List.map (fun c -> c.c_ipc) chunks);
              Printf.sprintf "%.3f ± %.3f" epi.Darco_power.Model.s_mean
                epi.Darco_power.Model.s_ci95;
            ])
          variants
      in
      print_endline (Table.render ~header rows))
    [ "458.sjeng"; "435.gromacs" ];
  print_newline ()

let ablation_thresholds () =
  print_endline "=== Ablation: promotion thresholds vs startup delay (401.bzip2) ===";
  let e = Registry.find "401.bzip2" in
  let header = [ "bb/sb thresholds"; "startup-insns"; "TOL%"; "SBM%" ] in
  let rows =
    List.map
      (fun (bb, sb) ->
        let cfg = { Darco.Config.default with bb_threshold = bb; sb_threshold = sb } in
        let r, chunks =
          run_benchmark_chunked ~cfg ~chunk:50_000 ~nchunks:100
            ~label:(Printf.sprintf "%s/bb%d-sb%d" e.name bb sb) e
        in
        let _, _, sbm = Darco.Stats.mode_fractions r.stats in
        [
          Printf.sprintf "%d / %d" bb sb;
          (match r.stats.startup_insns with Some n -> string_of_int n | None -> "-");
          pm "%.1f" (List.map (fun c -> c.c_tol) chunks);
          Printf.sprintf "%.1f" (100. *. sbm);
        ])
      [ (2, 8); (4, 32); (8, 64); (16, 128); (32, 512) ]
  in
  print_endline (Table.render ~header rows);
  print_newline ()

(* --- the campaign service's artifact library: per-operation costs --- *)

let library_summary : Darco_obs.Jsonx.t option ref = ref None

let library () =
  print_endline "=== Artifact library: window store and lookup costs ===";
  let module Library = Darco_serve.Library in
  let dir = Filename.temp_file "darco_libbench" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
  @@ fun () ->
  let lib = Library.create ~dir () in
  (* a representative window result: the JSON one detailed window emits *)
  let json =
    "{\"offset\":130000,\"window\":25000,\"warmup\":30000,\"insns\":25000,"
    ^ "\"cycles\":16123,\"ipc\":1.5507230000000001,\"watts\":0.91,"
    ^ "\"epi_nj\":0.58699999999999997}"
  in
  let key i =
    {
      Library.bench = "462.libquantum";
      cfg = Sampling.Store.digest "bench config";
      snap = Sampling.Store.digest (Printf.sprintf "snapshot %d" (i mod 4));
      offset = 50_000 + (i * 1_000);
      window = 10_000;
      warmup = 5_000;
    }
  in
  let seeded = 64 in
  for i = 0 to seeded - 1 do
    Library.put_window lib (key i) json
  done;
  let bench_ns name f = ols_ns ~group:"library" ~quota:1.0 name f in
  let n = ref seeded in
  let store_ns =
    bench_ns "store" (fun () ->
        Library.put_window lib (key !n) json;
        incr n)
  in
  let warm_ns = bench_ns "warm lookup" (fun () -> Library.find_window lib (key 0)) in
  (* a cold lookup pays the open + CRC + digest re-verification a fresh
     server process pays on its first hit after a restart *)
  let cold_ns =
    bench_ns "cold lookup" (fun () ->
        Library.find_window (Library.create ~dir ()) (key 0))
  in
  Printf.printf "  %-12s %10.2f us/op\n" "store" (store_ns /. 1e3);
  Printf.printf "  %-12s %10.2f us/op\n" "warm lookup" (warm_ns /. 1e3);
  Printf.printf "  %-12s %10.2f us/op (verified read)\n\n" "cold lookup"
    (cold_ns /. 1e3);
  let open Darco_obs in
  library_summary :=
    Some
      (Jsonx.Obj
         [
           ("window_bytes", Jsonx.Int (String.length json));
           ("store_ns", Jsonx.Float store_ns);
           ("warm_lookup_ns", Jsonx.Float warm_ns);
           ("cold_lookup_ns", Jsonx.Float cold_ns);
         ])

(* --- telemetry: the cost of being observed ------------------------------ *)

let telemetry_summary : Darco_obs.Jsonx.t option ref = ref None

let telemetry () =
  print_endline "=== Telemetry: registry update and scrape costs ===";
  let open Darco_obs in
  let bench_ns name f = ols_ns ~group:"telemetry" ~quota:1.0 name f in
  let reg = Registry.create () in
  let c = Registry.counter reg "bench_total" in
  let g = Registry.gauge reg "bench_depth" in
  let h = Registry.hist reg "bench_bytes" in
  let inc_ns = bench_ns "counter inc" (fun () -> Registry.inc c 1) in
  let set_ns = bench_ns "gauge set" (fun () -> Registry.set g 7) in
  let obs_ns = bench_ns "hist observe" (fun () -> Registry.observe h 512) in
  (* the do-nothing path every un-observed run takes: an event offered to
     a bus nobody listens to.  The registry folds a dispatch event into a
     counter and a histogram observation. *)
  let quiet = Bus.create () in
  let ev =
    Event.Dispatch_sent { unit_label = "u"; worker = "w:1"; attempt = 0; bytes = 512 }
  in
  let silent_ns = bench_ns "silent emit" (fun () -> Bus.emit quiet ~at:1 ev) in
  (* the full observed path: event -> bus -> registry fold *)
  let observed = Bus.create () in
  let obs_reg = Registry.attach observed in
  let emit_ns = bench_ns "registry emit" (fun () -> Bus.emit observed ~at:1 ev) in
  let snap_ns = bench_ns "snapshot" (fun () -> Registry.snapshot obs_reg) in
  Printf.printf "  %-14s %8.1f ns/op\n" "counter inc" inc_ns;
  Printf.printf "  %-14s %8.1f ns/op\n" "gauge set" set_ns;
  Printf.printf "  %-14s %8.1f ns/op\n" "hist observe" obs_ns;
  Printf.printf "  %-14s %8.1f ns/op (bus with no sinks)\n" "silent emit"
    silent_ns;
  Printf.printf "  %-14s %8.1f ns/op (bus -> registry fold)\n" "registry emit"
    emit_ns;
  Printf.printf "  %-14s %8.1f ns/op (point-in-time scrape)\n\n" "snapshot"
    snap_ns;
  telemetry_summary :=
    Some
      (Jsonx.Obj
         [
           ("counter_inc_ns", Jsonx.Float inc_ns);
           ("gauge_set_ns", Jsonx.Float set_ns);
           ("hist_observe_ns", Jsonx.Float obs_ns);
           ("silent_emit_ns", Jsonx.Float silent_ns);
           ("registry_emit_ns", Jsonx.Float emit_ns);
           ("snapshot_ns", Jsonx.Float snap_ns);
         ])

let all () =
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  speed ();
  warmup ();
  profile ();
  ablation_features ();
  ablation_thresholds ();
  library ();
  adaptive ();
  telemetry ();
  (* last: the first Domain.spawn forbids Unix.fork for the rest of the
     process, and [parallel]'s RSS children must fork before it *)
  parallel ()

(* Machine-readable companion to the ASCII figures: one entry per run,
   including the full metrics snapshot and any divergence detail. *)
let write_results path =
  let open Darco_obs in
  let entry r =
    Jsonx.Obj
      [
        ("name", Jsonx.String r.r_label);
        ("suite", Jsonx.String (Darco_workloads.Registry.suite_name r.r_suite));
        ( "diverged",
          match r.r_diverged with
          | None -> Jsonx.Null
          | Some (at, details) ->
            Jsonx.Obj
              [
                ("at", Jsonx.Int at);
                ("details", Jsonx.List (List.map (fun d -> Jsonx.String d) details));
              ] );
        ("metrics", Metrics.to_json r.r_stats);
      ]
  in
  let doc =
    Jsonx.Obj
      [
        ("runs", Jsonx.List (List.rev_map entry !recorded));
        ("speed", match !speed_summary with Some j -> j | None -> Jsonx.Null);
        ( "sampling",
          match !sampling_summary with Some j -> j | None -> Jsonx.Null );
        ( "hot_regions",
          match !profile_summary with Some j -> j | None -> Jsonx.Null );
        ( "parallel",
          match !parallel_summary with Some j -> j | None -> Jsonx.Null );
        ( "artifact_library",
          match !library_summary with Some j -> j | None -> Jsonx.Null );
        ( "adaptive",
          match !adaptive_summary with Some j -> j | None -> Jsonx.Null );
        ( "telemetry",
          match !telemetry_summary with Some j -> j | None -> Jsonx.Null );
      ]
  in
  let oc = open_out path in
  output_string oc (Jsonx.to_string doc);
  output_char oc '\n';
  close_out oc

let () =
  (match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> all ()
  | _ :: args ->
    List.iter
      (function
        | "fig4" -> fig4 ()
        | "fig5" -> fig5 ()
        | "fig6" -> fig6 ()
        | "fig7" -> fig7 ()
        | "speed" -> speed ()
        | "warmup" -> warmup ()
        | "profile" -> profile ()
        | "ablation" ->
          ablation_features ();
          ablation_thresholds ()
        | "library" -> library ()
        | "adaptive" -> adaptive ()
        | "telemetry" -> telemetry ()
        | "parallel" -> parallel ()
        | other -> Printf.printf "unknown target %s\n" other)
      args
  | [] -> ());
  write_results "BENCH_results.json";
  let diverged = List.filter (fun r -> r.r_diverged <> None) !recorded in
  Printf.printf "BENCH_results.json: %d runs, %d diverged\n" (List.length !recorded)
    (List.length diverged);
  if diverged <> [] then begin
    List.iter (fun r -> Printf.printf "  diverged: %s\n" r.r_label) diverged;
    exit 1
  end
