(* The DARCO benchmark: one workload per invocation, or all three with
   [--workload all].

     darco_bench --workload suite-functional|suite-timed|campaign|all
                 --seed N --seconds S --trace 0|1 [--out DIR]

   With [--trace 0] it prints every end-to-end metric, measured with no
   sink on any bus; with [--trace 1] a separate traced run prints every
   per-layer metric and writes its spans under [--out].  The last line of
   standard output is one JSON object: correct, attempted, failed,
   metrics.  See README.md in this directory for what each workload and
   metric is for. *)

open Perfbench

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }
let ms_of_ns ns = float_of_int ns /. 1e6

(* The suite-timed guest-instruction budget per program.  Timed runs use
   the default configuration (200k-instruction slices), as [darco run
   --timing] does, so each program stops at the first slice boundary past
   the budget. *)
let timed_budget = 200_000

(* Set-up is repeated and its median reported, so a later change that
   moves work into set-up shows. *)
let setup_reps = 15

(* --- suite workloads: end to end ------------------------------------------ *)

let check_runs ck runs =
  List.iter
    (fun (r : Suites.run) ->
      Outcome.record ck ~ok:r.ok (r.prog.entry.name ^ " validated against the reference emulator"))
    runs

(* Each run's time is scaled to the reference machine (see [Calib]). *)
let suite_pass ck ~seed ~retire ~budget ~expected progs =
  let runs =
    List.map
      (fun p ->
        let r = Suites.run_one ~seed ~retire ?budget p in
        { r with wall_ns = Calib.scale r.wall_ns ~calib_ns:(Calib.measure ()) })
      progs
  in
  check_runs ck runs;
  let d = Suites.digest runs in
  (match !expected with
  | None -> expected := Some d
  | Some e -> Outcome.same ck "statistics digest across passes" ~expected:e ~got:d);
  runs

(* Only the last set of programs is kept, so the repetitions do not add
   to [peak_rss_mb]. *)
let suite_setup () =
  let build () =
    let t0 = Util.now_ns () in
    let progs = Suites.build () in
    let ns = Util.now_ns () - t0 in
    (progs, Util.secs (Calib.scale ns ~calib_ns:(Calib.measure ())))
  in
  let earlier = List.init (setup_reps - 1) (fun _ -> snd (build ())) in
  let progs, last = build () in
  (progs, Util.median (last :: earlier))

let suite_e2e ck ~workload ~seed ~seconds ~retire ~budget =
  let progs, setup_s = suite_setup () in
  let expected = ref None in
  let passes =
    Util.repeat ~seconds (fun _ -> suite_pass ck ~seed ~retire ~budget ~expected progs)
  in
  Printf.printf "digest %s %s\n" workload (Option.get !expected);
  List.iteri (fun i runs -> Printf.printf "pass %d: guest_mips %.4f\n" i (Suites.mips runs)) passes;
  let runs = Suites.median_runs passes in
  let sub keep = List.filter (fun (r : Suites.run) -> keep (Suites.is_physics r.prog)) runs in
  let lat = List.map (fun (r : Suites.run) -> ms_of_ns r.wall_ns) runs in
  Printf.printf "passes %d\n" (List.length passes);
  [ m "setup_s" setup_s "s";
    m "guest_mips" (Suites.mips runs) "insn/us";
    m "guest_mips.spec" (Suites.mips (sub not)) "insn/us";
    m "guest_mips.physics" (Suites.mips (sub Fun.id)) "insn/us";
    m "latency_ms.p50" (Util.percentile 0.5 lat) "ms";
    m "latency_ms.p90" (Util.percentile 0.9 lat) "ms";
    m "peak_rss_mb" (Util.peak_rss_mb (Unix.getpid ())) "MB" ]

(* --- campaign: end to end ---------------------------------------------------- *)

let campaign_dir out = Filename.concat out "campaign"

let campaign_e2e ck ~seed ~seconds ~out =
  let dir = campaign_dir out in
  let setups =
    List.init (setup_reps - 2) (fun _ ->
        let f, s = Service.timed_start ~dir ~submissions:1 ~traced:false in
        Service.abort f;
        Util.rm_rf dir;
        s)
  in
  let runs =
    Util.repeat ~seconds ~min_passes:2 (fun _ ->
        Service.run_pass ck ~dir ~seed ~traced:false Service.full)
  in
  let passes = List.map fst runs in
  List.iteri
    (fun i (p : Service.pass) ->
      Printf.printf "pass %d: guest_mips %.4f, windows_per_s %.4f, resubmit p50 %.2f ms\n" i
        (Service.mips p.cold) (Service.windows_per_s p.cold)
        (Util.percentile 0.5 (Service.resubmit_ms p)))
    passes;
  ignore (Service.check_serial ck ~seed (List.hd passes) Service.full);
  let cold = Service.median_cold passes in
  let rows keep = List.filter (fun (b, _, _) -> keep (Service.is_physics b)) cold in
  let lat = List.concat_map Service.resubmit_ms passes in
  Printf.printf "passes %d, %d resubmissions; windows_per_s %.4g\n" (List.length passes)
    (List.length lat) (Service.windows_per_s cold);
  [ m "setup_s" (Util.median (setups @ List.map snd runs)) "s";
    m "guest_mips" (Service.mips cold) "insn/us";
    m "guest_mips.spec" (Service.mips (rows not)) "insn/us";
    m "guest_mips.physics" (Service.mips (rows Fun.id)) "insn/us";
    m "latency_ms.p50" (Util.percentile 0.5 lat) "ms";
    m "latency_ms.p90" (Util.percentile 0.9 lat) "ms";
    m "peak_rss_mb" (Util.median (List.map (fun (p : Service.pass) -> p.peak_mb) passes)) "MB" ]

(* --- traced run: core layers --------------------------------------------------- *)

(* Each program untraced and then traced, back to back so the machine's
   drift hits both alike.  The traced run folds every event into layer
   self times and then replays the superblocks it formed through the
   translator passes (outside the traced wall time).  Tracing must not
   change a single statistic. *)
let core_layers ck ~seed ~retire ~budget progs =
  let g = Gapfold.create () in
  let rp = ref (Suites.replay_create ()) in
  let pairs =
    List.map
      (fun (p : Suites.prog) ->
        let untraced = Suites.run_one ~seed ~retire ?budget p in
        let bus = Darco_obs.Bus.create () in
        Gapfold.attach g bus;
        let heads_before = List.length g.sb_heads in
        let replay ctl =
          let fresh = List.length g.sb_heads - heads_before in
          let heads = List.filteri (fun i _ -> i < fresh) g.sb_heads in
          rp := Suites.replay !rp ctl (List.rev_map snd heads)
        in
        let traced =
          Suites.run_one ~bus ~seed ~retire ?budget p ~after:replay
            ~on_start:(fun now -> Gapfold.start g ~label:p.entry.name ~now)
            ~on_stop:(fun now -> Gapfold.stop g ~now)
        in
        (untraced, traced))
      progs
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  check_runs ck untraced;
  check_runs ck traced;
  Outcome.same ck "statistics digest traced vs untraced" ~expected:(Suites.digest untraced)
    ~got:(Suites.digest traced);
  let untraced_ns = List.fold_left (fun a (r : Suites.run) -> a + r.wall_ns) 0 untraced in
  (g, !rp, untraced_ns)

let core_metrics (g : Gapfold.t) (rp : Suites.replay) =
  let s = Gapfold.self_s g in
  let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let wall = Gapfold.wall_ns g in
  Printf.printf "traced wall %.4f s; %d spans; %d superblocks replayed (%d skipped)\n"
    (Util.secs wall) g.n_spans rp.heads rp.skipped;
  List.iter
    (fun l ->
      Printf.printf "  %-20s %6.2f%%\n" (Gapfold.name l)
        (100. *. s l /. Util.secs wall))
    Gapfold.layers;
  [ m "core.interp.self_s" (s Interp) "s";
    m "core.interp.guest_insns" (float_of_int g.interp_insns) "count";
    m "core.regiongen.bb.self_s" (s Bb) "s";
    m "core.regiongen.bb.count" (float_of_int g.bb_count) "count";
    m "core.regiongen.sb.self_s" (s Sb) "s";
    m "core.regiongen.sb.count" (float_of_int g.sb_count) "count";
    m "core.regiongen.sb.guest_insns" (float_of_int g.sb_guest_insns) "count";
    m "core.exec.self_s" (s Exec) "s";
    m "core.exec.host_insns" (float_of_int g.exec_host_insns) "count";
    m "core.exec.ns_per_host_insn" (per g.self_ns.(Gapfold.index Exec) g.exec_host_insns) "ns/insn";
    m "core.controller.sync_s" (s Controller) "s";
    m "core.controller.page_installs" (float_of_int g.page_installs) "count";
    m "other_frac" (s Other /. Util.secs wall) "frac" ]
  @ List.mapi
      (fun i pass ->
        let name =
          if pass = "core.threaded" then "core.threaded.compile_ns_per_host_insn"
          else pass ^ ".ns_per_ir_insn"
        in
        m name (per rp.pass_ns.(i) rp.pass_units.(i)) "ns/insn")
      Suites.replay_passes

let split_metrics ~seed progs =
  let sp = Suites.split ~seed ~budget:timed_budget progs in
  let retire = sp.noop_s -. sp.func_s and pipe = sp.timed_s -. sp.noop_s in
  Printf.printf "split: functional %.4f s, no-op retire %.4f s, timed %.4f s\n" sp.func_s
    sp.noop_s sp.timed_s;
  [ m "host.emulator.retire_overhead_s" retire "s";
    m "host.emulator.retire_share" (retire /. sp.timed_s) "frac";
    m "timing.pipeline.self_s" pipe "s";
    m "timing.pipeline.share" (pipe /. sp.timed_s) "frac";
    m "timing.pipeline.host_insns" (float_of_int sp.host_insns) "count";
    m "timing.pipeline.ns_per_host_insn" (pipe *. 1e9 /. float_of_int sp.host_insns) "ns/insn" ]

(* The reference emulator alone: boot plus run to halt (or to [fuel]). *)
let interp_ref_metric ~seed ?fuel (progs : Suites.prog list) =
  let insns, s =
    List.fold_left
      (fun (n, s) (p : Suites.prog) ->
        let r, dt =
          Util.time (fun () ->
              let r = Darco_guest.Interp_ref.boot ~seed p.program in
              ignore (Darco_guest.Interp_ref.run_to_halt ?fuel r);
              r)
        in
        (n + r.retired, s +. dt))
      (0, 0.) progs
  in
  m "guest.interp_ref.mips" (float_of_int insns /. (s *. 1e6)) "insn/us"

(* --- traced run: service layers ------------------------------------------------- *)

(* Everything the sampling, dispatch and serve layers report, from one
   traced campaign pass (daemon [--trace] plus a final scrape), its serial
   re-execution in this process, and direct calls on its programs. *)
let service_metrics ck ~seed ~out (shape : Service.shape) (p : Service.pass) =
  let running = Hashtbl.create 64 and exec_ms = ref [] in
  let bus = Darco_obs.Bus.create () in
  Darco_obs.Bus.attach bus ~name:"perfbench-windows" (fun ~at:_ ev ->
      match ev with
      | Span_begin { span = "running"; corr; wall_us; _ } -> Hashtbl.replace running corr wall_us
      | Span_end { span = "running"; corr; wall_us; _ } -> (
        match Hashtbl.find_opt running corr with
        | Some t0 -> exec_ms := (float_of_int (wall_us - t0) /. 1e3) :: !exec_ms
        | None -> ())
      | _ -> ());
  let texts = Service.check_serial ~bus ck ~seed p shape in
  let pct q = function [] -> nan | xs -> Util.percentile q xs in
  Printf.printf "windows executed serially %d; units dispatched %d\n" (List.length !exec_ms)
    (List.length p.units_ms);
  [ m "sampling.work.exec_ms.p50" (pct 0.5 !exec_ms) "ms";
    m "sampling.work.exec_ms.p90" (pct 0.9 !exec_ms) "ms";
    m "dispatch.unit_ms.p50" (pct 0.5 p.units_ms) "ms";
    m "dispatch.unit_ms.p90" (pct 0.9 p.units_ms) "ms" ]
  @ List.map
      (fun (name, value, unit_) -> m name value unit_)
      (Probes.sampling ~seed shape
      @ Probes.library ~dir:(Filename.concat out "library-probe") texts
      @
      match p.scrape with
      | Some text -> Probes.scraped text
      | None ->
        Outcome.record ck ~ok:false "scrape of the campaign daemon";
        [])

let write_submissions path (p : Service.pass) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "# submission\tstart_ns\tdur_ns\tcomputed\thits\n";
  List.iter
    (fun (s : Service.submission) ->
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" s.s_label s.s_start_ns s.s_ns s.s_windows s.s_hits)
    (List.concat_map (fun (_, a, b) -> [ a; b ]) p.cold @ p.resubmitted)

let service_layers ck ~seed ~out ~workload shape =
  let p, _ = Service.run_pass ck ~dir:(campaign_dir out) ~seed ~traced:true shape in
  write_submissions (Filename.concat out ("submissions-" ^ workload ^ ".tsv")) p;
  (p, service_metrics ck ~seed ~out shape p)

(* --- traced runs, per workload ----------------------------------------------------- *)

let suite_layers ck ~workload ~seed ~out ~retire ~budget =
  let progs = Suites.build () in
  let g, rp, untraced_ns = core_layers ck ~seed ~retire ~budget progs in
  Gapfold.write_spans g (Filename.concat out ("spans-" ^ workload ^ ".tsv"));
  let overhead = float_of_int (Gapfold.wall_ns g - untraced_ns) /. float_of_int untraced_ns in
  let _, service = service_layers ck ~seed ~out ~workload Service.small in
  (m "trace_overhead_frac" overhead "frac" :: core_metrics g rp)
  @ split_metrics ~seed progs
  @ [ interp_ref_metric ~seed ?fuel:budget progs ]
  @ service

let campaign_layers ck ~seed ~out =
  let workload = "campaign" in
  let busy (p : Service.pass) = List.fold_left (fun a r -> a + Service.busy_ns r) 0 p.cold in
  let untraced, _ = Service.run_pass ck ~dir:(campaign_dir out) ~seed ~traced:false Service.full in
  let traced, service = service_layers ck ~seed ~out ~workload Service.full in
  let overhead = float_of_int (busy traced - busy untraced) /. float_of_int (busy untraced) in
  (* the TOL work of the campaign runs in the worker; fold it here on the
     same programs, timed, to the suite-timed budget *)
  let progs =
    Suites.build ~only:(fun e -> List.mem e.name Service.full.benches) ()
  in
  let g, rp, _ = core_layers ck ~seed ~retire:Suites.Timed ~budget:(Some timed_budget) progs in
  Gapfold.write_spans g (Filename.concat out ("spans-" ^ workload ^ ".tsv"));
  (m "trace_overhead_frac" overhead "frac" :: core_metrics g rp)
  @ split_metrics ~seed progs
  @ [ interp_ref_metric ~seed ~fuel:Service.horizon progs ]
  @ service

(* --- driver ----------------------------------------------------------------------- *)

let workloads = [ "suite-functional"; "suite-timed"; "campaign" ]

let run_workload ck ~workload ~seed ~seconds ~trace ~out =
  match (workload, trace) with
  | "suite-functional", false ->
    suite_e2e ck ~workload ~seed ~seconds ~retire:Suites.Functional ~budget:None
  | "suite-timed", false ->
    suite_e2e ck ~workload ~seed ~seconds ~retire:Suites.Timed ~budget:(Some timed_budget)
  | "campaign", false -> campaign_e2e ck ~seed ~seconds ~out
  | "suite-functional", true ->
    suite_layers ck ~workload ~seed ~out ~retire:Suites.Functional ~budget:None
  | "suite-timed", true ->
    suite_layers ck ~workload ~seed ~out ~retire:Suites.Timed ~budget:(Some timed_budget)
  | "campaign", true -> campaign_layers ck ~seed ~out
  | w, _ -> invalid_arg ("unknown workload " ^ w)

let json_number x = Printf.sprintf "%.17g" x

let result_line ck metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (ck.Outcome.failed = 0) ck.attempted ck.failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let out = ref "perfbench/out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME suite-functional, suite-timed, campaign or all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the untraced run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR where spans and temporary libraries go") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "darco_bench --workload W --seed N --seconds S --trace 0|1";
  let names = if !workload = "all" then workloads else [ !workload ] in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
     || not (List.for_all (fun w -> List.mem w workloads) names)
  then begin
    prerr_endline "darco_bench: need --workload, --seed >= 0, --seconds > 0, --trace 0|1";
    exit 2
  end;
  (* a signal still stops and reaps the daemons through at_exit *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  Util.mkdir_p !out;
  let ck = Outcome.create () in
  let metrics =
    List.concat_map
      (fun workload ->
        let ms =
          run_workload ck ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
        in
        List.iter (fun x -> Printf.printf "%-18s %-40s %14.6g %s\n" workload x.name x.value x.unit_) ms;
        List.iter
          (fun x ->
            if not (Float.is_finite x.value) then
              Outcome.record ck ~ok:false (x.name ^ " was not measured"))
          ms;
        if List.length names = 1 then ms
        else List.map (fun x -> { x with name = workload ^ "/" ^ x.name }) ms)
      names
  in
  Printf.printf "failed_frac %.6g (%d of %d operations)\n" (Outcome.failed_frac ck) ck.failed
    ck.attempted;
  let metrics = List.map (fun x -> if Float.is_finite x.value then x else { x with value = 0. }) metrics in
  print_endline (result_line ck metrics)
