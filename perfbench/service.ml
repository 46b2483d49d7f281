(* The campaign workload: a [darco serve] daemon with a fresh library and
   one loopback [darco worker], driven by this process as the only client
   in a closed loop (one connection, one submission at a time). *)

module Campaign = Darco_serve.Campaign
module Client = Darco_serve.Client
module Jsonx = Darco_obs.Jsonx
open Darco_sampling

(* --- child processes ---------------------------------------------------- *)

(* Every child this process starts, so an exit on any path stops and reaps
   them all. *)
let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let darco_exe () =
  (* built beside this executable: <build>/default/{perfbench,bin}/ *)
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/darco_cli.exe"

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname s with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> assert false

let wait_for ~what ~pid ready =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    if ready () then ()
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith (what ^ " exited during start-up")
      | exception Unix.Unix_error _ -> ());
      if Unix.gettimeofday () > deadline then failwith (what ^ " did not start");
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let accepts port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  match Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* One execution slot.  On a 2-core machine, two slots plus the daemon and
   this client oversubscribe the cores: two slots ran only about 1.1x the
   window throughput of one, and their pass-to-pass spread was about
   +-8% against +-1% with one slot. *)
let slots = 1

type fleet = {
  serve : int;
  worker : int;
  addr : Darco_dispatch.addr;
  trace : string option;
  mutable peak_mb : float;  (* daemon plus worker, highest seen *)
}

(* Start the worker, then the daemon pointed at it, on a fresh library
   under [dir]; ready once the daemon answers a status query.  The daemon
   exits by itself after [submissions] completed submissions, which also
   flushes its [--trace] file. *)
let start ~dir ~submissions ~traced =
  Util.mkdir_p dir;
  let darco = darco_exe () in
  let log =
    Unix.openfile (Filename.concat dir "fleet.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect ~finally:(fun () -> Unix.close log) @@ fun () ->
  let spawn args =
    let pid =
      Unix.create_process darco (Array.of_list (darco :: args)) Unix.stdin log log
    in
    live := pid :: !live;
    pid
  in
  let wport = free_port () in
  let worker =
    spawn
      [ "worker"; "--quiet"; "-j"; string_of_int slots;
        "--listen"; Printf.sprintf "127.0.0.1:%d" wport ]
  in
  wait_for ~what:"darco worker" ~pid:worker (fun () -> accepts wport);
  let sport = free_port () in
  let trace = if traced then Some (Filename.concat dir "serve-trace.jsonl") else None in
  let serve =
    spawn
      ([ "serve"; "--quiet";
         "--listen"; Printf.sprintf "127.0.0.1:%d" sport;
         "--library"; Filename.concat dir "library";
         "--workers"; Printf.sprintf "127.0.0.1:%d" wport;
         "--max-submissions"; string_of_int submissions ]
      @ match trace with Some f -> [ "--trace"; f ] | None -> [])
  in
  let addr = { Darco_dispatch.host = "127.0.0.1"; port = sport } in
  wait_for ~what:"darco serve" ~pid:serve (fun () ->
      Result.is_ok (Client.status ~timeout:1. addr));
  { serve; worker; addr; trace; peak_mb = 0. }

let sample_rss f =
  let mb pid = Option.map (fun kb -> float_of_int kb /. 1024.) (Darco_util.Rss.peak_kb pid) in
  match (mb f.serve, mb f.worker) with
  | Some a, Some b -> f.peak_mb <- Float.max f.peak_mb (a +. b)
  | _ -> ()

(* [start], timed and scaled to the reference machine. *)
let timed_start ~dir ~submissions ~traced =
  let f, s = Util.time (fun () -> start ~dir ~submissions ~traced) in
  let ns = Calib.scale (int_of_float (s *. 1e9)) ~calib_ns:(Calib.measure ()) in
  (f, Util.secs ns)

(* Stop a fleet that served no submissions (a set-up timing). *)
let abort f =
  reap f.serve;
  reap f.worker

(* The daemon exits by itself after its last submission (it is stopped
   if overdue); then stop the worker. *)
let stop f =
  let forget pid = live := List.filter (( <> ) pid) !live in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_serve () =
    match Unix.waitpid [ Unix.WNOHANG ] f.serve with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      wait_serve ()
    | 0, _ -> reap f.serve
    | _ -> forget f.serve
    | exception Unix.Unix_error _ -> forget f.serve
  in
  wait_serve ();
  reap f.worker

(* --- the campaign ------------------------------------------------------- *)

type shape = {
  benches : string list;  (* one per suite *)
  a_windows : int;
  b_windows : int;
  resubmits : int;  (* in total, spread over the programs *)
}

let full = { benches = [ "429.mcf"; "470.lbm"; "explosions" ]; a_windows = 8; b_windows = 12; resubmits = 102 }

(* The traced runs of the suite workloads exercise the service layers on a
   smaller campaign of the same shape. *)
let small = { benches = [ "429.mcf" ]; a_windows = 2; b_windows = 2; resubmits = 10 }

let interval = 50_000
let horizon = 300_000
let window = 25_000
let warmup = 30_000

(* Sweep A and sweep B of one program: the same checkpoint configuration
   (so B restores A's checkpoints from the library) at disjoint offsets,
   jittered by the seed. *)
let specs ~seed shape bench =
  let rng = Random.State.make [| seed; Hashtbl.hash bench |] in
  let spread n lo =
    let step = (horizon - window - lo) / n in
    List.init n (fun i -> lo + (i * step) + Random.State.int rng 1_000)
  in
  let a = spread shape.a_windows warmup in
  let b =
    List.map (fun o -> if List.mem o a then o + 1 else o) (spread shape.b_windows (warmup + 7_000))
  in
  let mk offsets =
    Campaign.normalize
      { Campaign.bench; scale = 1; seed; input = None; interval; horizon;
        offsets; window; warmup; ci_target = None }
  in
  (mk a, mk b)

let is_physics bench =
  (Darco_workloads.Registry.find bench).suite = Darco_workloads.Registry.Physicsbench

type submission = {
  s_label : string;
  s_start_ns : int;
  s_ns : int;
  s_windows : int;  (* dispatched, i.e. computed *)
  s_hits : int;
  s_doc : string;
}

type pass = {
  cold : (string * submission * submission) list;  (* bench, A, B *)
  resubmitted : submission list;
  peak_mb : float;
  units_ms : float list;  (* dispatch to result, per unit, from the daemon's trace *)
  scrape : string option;  (* registry JSON, before the last submission *)
}

let submit ck f label spec =
  let t0 = Util.now_ns () in
  let r = Client.submit ~timeout:300. f.addr spec in
  let ns = Util.now_ns () - t0 in
  sample_rss f;
  match r with
  | Ok (st, doc) ->
    Outcome.record ck ~ok:(st.Client.done_ = st.Client.total) (label ^ " settled every window");
    { s_label = label; s_start_ns = t0; s_ns = ns; s_windows = st.Client.dispatched;
      s_hits = st.Client.hits; s_doc = doc }
  | Error e ->
    Outcome.record ck ~ok:false (label ^ ": " ^ e);
    { s_label = label; s_start_ns = t0; s_ns = ns; s_windows = 0; s_hits = 0; s_doc = "" }

(* Dispatch-to-result time of every unit the daemon sent, from its own
   trace ([dispatch_sent] to [dispatch_done]). *)
let unit_ms trace =
  let ic = open_in trace in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let sent = Hashtbl.create 64 in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line -> (
      let j = Jsonx.parse line in
      let str k = Option.bind (Jsonx.member k j) Jsonx.to_str in
      let at = Option.bind (Jsonx.member "at" j) Jsonx.to_int in
      match (str "ev", str "unit", at) with
      | Some "dispatch_sent", Some u, Some at ->
        Hashtbl.replace sent u at;
        go acc
      | Some "dispatch_done", Some u, Some at -> (
        match Hashtbl.find_opt sent u with
        | Some t0 ->
          Hashtbl.remove sent u;
          go ((float_of_int (at - t0) /. 1e3) :: acc)
        | None -> go acc)
      | _ -> go acc)
  in
  go []

(* One campaign on a fresh fleet: cold A, then B over restored checkpoints,
   for each program; then resubmissions of A and B, round robin, each of
   which must be served wholly from the library with the cold document. *)
let run_pass ck ~dir ~seed ~traced shape =
  let per = List.map (fun b -> (b, specs ~seed shape b)) shape.benches in
  let n = List.length per in
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
  let f, setup_s = timed_start ~dir ~traced ~submissions:((2 * n) + shape.resubmits) in
  let cold, resubmitted, scrape =
    Fun.protect ~finally:(fun () -> stop f) @@ fun () ->
    (* cold submissions are compute: their times are scaled to the
       reference machine (see [Calib]) by the kernel's time just before
       and just after; a resubmission's time is mostly a fixed wait, so it
       is kept as measured *)
    let scaled label spec =
      let before = Calib.measure ~reps:3 () in
      let s = submit ck f label spec in
      let calib_ns = (before + Calib.measure ~reps:3 ()) / 2 in
      { s with s_ns = Calib.scale s.s_ns ~calib_ns }
    in
    let cold =
      List.map
        (fun (b, (a, bb)) ->
          let sa = scaled (b ^ "/A") a in
          let sb = scaled (b ^ "/B") bb in
          (b, sa, sb))
        per
    in
    let cold_docs = Array.of_list (List.concat_map (fun (_, a, b) -> [ a; b ]) cold) in
    let specs_arr = Array.of_list (List.concat_map (fun (_, (a, b)) -> [ a; b ]) per) in
    let scrape = ref None in
    let resubmitted =
      List.init shape.resubmits (fun i ->
          let k = i mod Array.length specs_arr in
          (* the daemon exits after the last submission *)
          if traced && i = shape.resubmits - 1 then
            scrape := Result.to_option (Client.scrape f.addr);
          let first = cold_docs.(k) in
          let s = submit ck f (first.s_label ^ "/again") specs_arr.(k) in
          Outcome.record ck
            ~ok:(s.s_windows = 0 && s.s_hits = List.length specs_arr.(k).offsets)
            (s.s_label ^ " served from the library");
          Outcome.same ck (s.s_label ^ " document") ~expected:first.s_doc ~got:s.s_doc;
          s)
    in
    (cold, resubmitted, !scrape)
  in
  ( { cold; resubmitted; peak_mb = f.peak_mb;
      units_ms = Option.fold ~none:[] ~some:unit_ms f.trace; scrape },
    setup_s )

(* --- end-to-end figures of one pass -------------------------------------- *)

let computed (_, a, b) = a.s_windows + b.s_windows
let busy_ns (_, a, b) = a.s_ns + b.s_ns

(* Guest instructions simulated in detail per host microsecond over the
   computed windows (phases 1-2); each window is [warmup + window]. *)
let mips rows =
  let w = List.fold_left (fun acc r -> acc + computed r) 0 rows in
  let ns = List.fold_left (fun acc r -> acc + busy_ns r) 0 rows in
  float_of_int (w * (warmup + window)) /. (float_of_int ns /. 1e3)

let windows_per_s rows =
  let w = List.fold_left (fun acc r -> acc + computed r) 0 rows in
  let ns = List.fold_left (fun acc r -> acc + busy_ns r) 0 rows in
  float_of_int w /. Util.secs ns

(* Each cold submission's median time over the passes, as in
   [Suites.median_runs]. *)
let median_cold passes =
  match passes with
  | [] -> []
  | first :: _ ->
    List.mapi
      (fun i (b, a, bb) ->
        let med pick =
          Util.median (List.map (fun p -> float_of_int (pick (List.nth p.cold i)).s_ns) passes)
        in
        ( b,
          { a with s_ns = int_of_float (med (fun (_, a, _) -> a)) },
          { bb with s_ns = int_of_float (med (fun (_, _, b) -> b)) } ))
      first.cold

let resubmit_ms p = List.map (fun s -> float_of_int s.s_ns /. 1e6) p.resubmitted

(* --- the in-process reference document ------------------------------------ *)

(* The same sweep on [Sweep.Backend.serial] in this process, with each
   window's JSON text; [bus] sees its per-window "running" spans. *)
let serial_doc ?bus (spec : Campaign.t) =
  let entry = Darco_workloads.Registry.find spec.bench in
  let program = entry.build ~scale:spec.scale () in
  let checkpoints =
    Driver.functional_checkpoints ?input:spec.input ~seed:spec.seed
      ~interval:spec.interval ~horizon:spec.horizon program
  in
  let store = Store.create () in
  let works =
    List.map
      (fun off ->
        Work.of_window_stored ~store ~checkpoints
          ~label:(Printf.sprintf "%s@%d" spec.bench off)
          ~offset:off ~window:spec.window ~warmup:spec.warmup)
      spec.offsets
  in
  let results = Sweep.run (Sweep.Backend.serial ?bus ~store ()) works in
  let doc =
    Report.sweep_json ~benchmark:spec.bench ~seed:spec.seed ~interval:spec.interval
      ~window:spec.window ~warmup:spec.warmup
      (List.combine spec.offsets results)
  in
  let texts =
    List.filter_map
      (fun (r : Sweep.result) ->
        match r.outcome with Sweep.Ok j -> Some (Jsonx.to_string j) | Sweep.Failed _ -> None)
      results
  in
  (Jsonx.to_string doc.Report.doc, texts)

(* Returns every window's JSON text, for the library probes. *)
let check_serial ?bus ck ~seed p shape =
  List.concat_map
    (fun (b, sa, sb) ->
      let a, bb = specs ~seed shape b in
      List.concat_map
        (fun (what, (s : submission), spec) ->
          let doc, texts = serial_doc ?bus spec in
          Outcome.same ck (b ^ what ^ " serial document") ~expected:s.s_doc ~got:doc;
          texts)
        [ ("/A", sa, a); ("/B", sb, bb) ])
    p.cold
