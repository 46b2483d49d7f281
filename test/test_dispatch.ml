(* The distributed sweep, tested against real processes: worker daemons
   forked onto ephemeral loopback ports, fleets of [darco worker]
   processes started by the [local] backend, a real dispatcher, and
   failures injected where a cluster actually produces them — a worker
   dying with a unit in flight, a worker that never existed, a corrupted
   byte stream, a checkpoint push whose bytes do not match their
   digest. *)

module Sweep = Darco_sampling.Sweep
module Work = Darco_sampling.Work
module Store = Darco_sampling.Store
module Driver = Darco_sampling.Driver
module Plan = Darco_sampling.Plan
module B = Darco_sampling.Buf
module Wire = Darco_dispatch.Wire
module Worker = Darco_dispatch.Worker
module Event = Darco_obs.Event
module Registry = Darco_obs.Registry
module J = Darco_obs.Jsonx

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Fork a worker daemon on an ephemeral port; the child reports the
   kernel-assigned port through a pipe once it is actually listening, so
   there is no race between spawn and first connect. *)
let spawn_worker ?exec ?jobs () =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       Worker.serve ~quiet:true ?exec ?jobs
         ~ready:(fun sa ->
           let port = match sa with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
           let line = Bytes.of_string (string_of_int port ^ "\n") in
           ignore (Unix.write w line 0 (Bytes.length line));
           Unix.close w)
         ~host:"127.0.0.1" ~port:0 ()
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close w;
    let buf = Bytes.create 16 in
    let n = Unix.read r buf 0 16 in
    Unix.close r;
    let port = int_of_string (String.trim (Bytes.sub_string buf 0 n)) in
    (pid, { Darco_dispatch.host = "127.0.0.1"; port })

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* A small real sweep: functional checkpoints over a physics workload,
   four short detailed windows.  Shared across tests (the checkpointing
   pass is the expensive part). *)
let checkpoints =
  lazy
    (let program = (Darco_workloads.Registry.find "continuous").build ~scale:1 () in
     Driver.functional_checkpoints ~seed:7 ~interval:10_000 ~horizon:40_000
       program)

let works =
  lazy
    (List.map
       (fun off ->
         Work.of_window ~checkpoints:(Lazy.force checkpoints)
           ~label:(Printf.sprintf "continuous@%d" off)
           ~offset:off ~window:2_000 ~warmup:1_000)
       [ 8_000; 16_000; 24_000; 32_000 ])

let render (r : Sweep.result) =
  r.label ^ " => "
  ^ (match r.outcome with
    | Sweep.Ok j -> J.to_string j
    | Sweep.Failed e -> "FAILED " ^ e)

(* What the serial backend says — the reference every remote run must
   reproduce byte for byte. *)
let expected =
  lazy (List.map render (Sweep.run (Sweep.Backend.serial ()) (Lazy.force works)))

(* Run a cluster test's body in a forked child.  A process that has made
   a domain can never fork again, so a sweep that falls back on domains,
   on purpose or by mistake, must not do so in the process that spawns
   the later tests' workers.  The child reports an Alcotest failure or an
   exception through a pipe and exits; the parent fails with its message.
   The shared sweep is forced first, so that each child inherits it. *)
let isolated body () =
  ignore (Lazy.force checkpoints, Lazy.force works, Lazy.force expected);
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      match body () with
      | () -> 0
      | exception e ->
        let msg = Printexc.to_string e in
        ignore (Unix.write_substring w msg 0 (String.length msg));
        1
    in
    flush_all ();
    Unix._exit code
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let msg = In_channel.input_all ic in
    close_in ic;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED _ -> Alcotest.fail msg
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Alcotest.failf "the test's process stopped on signal %d" n)

let collecting_bus () =
  let events = ref [] in
  let bus = Darco_obs.Bus.create () in
  Darco_obs.Bus.attach bus ~name:"collect" (fun ~at:_ ev -> events := ev :: !events);
  (bus, events)

let saw events p = List.exists p !events
let count events p = List.length (List.filter p !events)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- 1. loopback end-to-end: remote results bit-identical to serial --- *)
let test_loopback_e2e () =
  let p1, a1 = spawn_worker () in
  let p2, a2 = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap p1; reap p2)
    (fun () ->
      let bus, events = collecting_bus () in
      let remote =
        Sweep.run (Darco_dispatch.remote ~bus [ a1; a2 ]) (Lazy.force works)
      in
      Alcotest.(check (list string))
        "remote sweep bit-identical to serial" (Lazy.force expected)
        (List.map render remote);
      Alcotest.(check bool) "both workers connected" true
        (saw events (function Event.Worker_up _ -> true | _ -> false));
      Alcotest.(check bool) "every unit acknowledged" true
        (count events (function Event.Dispatch_done _ -> true | _ -> false)
        = List.length (Lazy.force works)))

(* --- 1b. observability of the same sweep: lifecycle events carry
   wall-clock stamps, worker span logs ship back inside RSLT frames and
   replay on the dispatcher bus, and the merged timeline renders to a
   Chrome trace-event document that passes the validator CI enforces --- *)
let test_sweep_observability () =
  let p1, a1 = spawn_worker () in
  let p2, a2 = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap p1; reap p2)
    (fun () ->
      let bus, events = collecting_bus () in
      let stamps = ref [] in
      Darco_obs.Bus.attach bus ~name:"stamps" (fun ~at ev ->
          match ev with
          | Event.Worker_up _ | Event.Dispatch_sent _ | Event.Dispatch_done _
            ->
            stamps := at :: !stamps
          | _ -> ());
      let chrome = Darco_obs.Chrome.attach bus in
      let remote =
        Sweep.run (Darco_dispatch.remote ~bus [ a1; a2 ]) (Lazy.force works)
      in
      Alcotest.(check (list string))
        "observed sweep still bit-identical to serial" (Lazy.force expected)
        (List.map render remote);
      (* the dispatch-event stamping fix: lifecycle events used to be
         emitted at:0; they must carry real wall-clock microseconds *)
      Alcotest.(check bool) "lifecycle events observed" true (!stamps <> []);
      Alcotest.(check bool) "lifecycle events stamped with wall-clock time"
        true
        (List.for_all (fun at -> at > 0) !stamps);
      (* spans from both sides of the wire are on the one bus *)
      let span_hosts =
        List.filter_map
          (fun ev ->
            Option.map
              (fun s -> s.Darco_obs.Span.host)
              (Darco_obs.Span.of_event ev))
          !events
      in
      Alcotest.(check bool) "dispatcher-side spans present" true
        (List.mem "dispatcher" span_hosts);
      Alcotest.(check bool) "worker spans merged into the timeline" true
        (List.exists
           (fun h -> String.length h >= 7 && String.sub h 0 7 = "worker:")
           span_hosts);
      (* every unit ran somewhere: a worker-side "running" begin per unit *)
      Alcotest.(check bool) "a running span per unit" true
        (count events (function
           | Event.Span_begin { span = "running"; host; _ } ->
             String.length host >= 7 && String.sub host 0 7 = "worker:"
           | _ -> false)
        >= List.length (Lazy.force works));
      (* and the merged timeline is a valid Chrome trace-event document *)
      (match Darco_obs.Chrome.validate (Darco_obs.Chrome.to_json chrome) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "chrome trace invalid: %s" e);
      let tmp = Filename.temp_file "darco_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          Darco_obs.Chrome.write_file chrome tmp;
          match Darco_obs.Chrome.validate_file tmp with
          | Ok () -> ()
          | Error e -> Alcotest.failf "written trace invalid: %s" e))

(* --- 2. digest-addressed units: four windows off one checkpoint ship the
   snapshot bytes to each worker at most once, and repeat assignments are
   observed as cache hits.  The sweep runs once, with a live registry and
   a log of its bus, for this test and the registry replay below --- *)
type ckpt_run = {
  stored_ckpts : int;
  local : string list;
  remote : string list;
  log : (int * Event.t) list;  (** the dispatcher's bus, in emission order *)
  live : Registry.snapshot;
}

let ckpt_sweep =
  lazy
    (let store = Store.create () in
     (* offsets whose warm-up starts all land inside [10_000, 20_000): one
        shared checkpoint, hence one digest for the whole sweep *)
     let stored =
       List.map
         (fun off ->
           Work.of_window_stored ~store ~checkpoints:(Lazy.force checkpoints)
             ~label:(Printf.sprintf "continuous@%d" off)
             ~offset:off ~window:2_000 ~warmup:1_000)
         [ 12_000; 14_000; 16_000; 18_000 ]
     in
     let local = List.map render (Sweep.run (Sweep.Backend.serial ~store ()) stored) in
     let p1, a1 = spawn_worker ~jobs:2 () in
     let p2, a2 = spawn_worker ~jobs:1 () in
     Fun.protect
       ~finally:(fun () -> reap p1; reap p2)
       (fun () ->
         let bus = Darco_obs.Bus.create () in
         let log = ref [] in
         Darco_obs.Bus.attach bus ~name:"log" (fun ~at ev -> log := (at, ev) :: !log);
         let reg = Registry.attach bus in
         let remote =
           Sweep.run (Darco_dispatch.remote ~bus ~store [ a1; a2 ]) stored
         in
         {
           stored_ckpts = Store.count store;
           local;
           remote = List.map render remote;
           log = List.rev !log;
           live = Registry.snapshot reg;
         }))

let test_ckpt_shipped_once () =
  let run = Lazy.force ckpt_sweep in
  let events = ref (List.map snd run.log) in
  Alcotest.(check int) "one checkpoint in the store" 1 run.stored_ckpts;
  Alcotest.(check (list string))
    "digest-addressed remote sweep bit-identical to serial" run.local run.remote;
  (* each (worker, digest) pair was pushed at most once *)
  let pushes = Hashtbl.create 4 in
  List.iter
    (function
      | Event.Ckpt_push { worker; digest; _ } ->
        let k = (worker, digest) in
        Hashtbl.replace pushes k (1 + Option.value ~default:0 (Hashtbl.find_opt pushes k))
      | _ -> ())
    !events;
  Alcotest.(check bool) "at least one checkpoint push" true
    (Hashtbl.length pushes >= 1);
  Hashtbl.iter
    (fun (worker, digest) n ->
      if n > 1 then
        Alcotest.failf "checkpoint %s pushed %d times to %s" digest n worker)
    pushes;
  (* 4 units, 3 slots, 1 digest: some worker reused its cached copy *)
  Alcotest.(check bool) "at least one checkpoint cache hit" true
    (saw events (function Event.Ckpt_hit _ -> true | _ -> false))

(* --- 2b. the registry is a pure fold over the event stream: the same
   sweep's bus log replayed into a fresh registry lands on the snapshot
   the live one reached, service counters included --- *)
let test_registry_rebuild () =
  let run = Lazy.force ckpt_sweep in
  let rebuilt = Registry.create () in
  let apply = Registry.apply rebuilt in
  List.iter (fun (at, ev) -> apply ~at ev) run.log;
  List.iter
    (fun name ->
      match List.assoc_opt name run.live.Registry.counters with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.failf "%s did not move during the sweep" name)
    [ "dispatch_sent_total"; "ckpt_pushes_total"; "ckpt_hits_total" ];
  Alcotest.(check string) "replayed snapshot identical to the live one"
    (J.to_string (Registry.to_json run.live))
    (J.to_string (Registry.to_json (Registry.snapshot rebuilt)))

(* --- 3. work stealing: a unit stuck on a slow worker is speculatively
   duplicated onto an idle one, and the result is still byte-identical --- *)
let test_steal_from_slow_worker () =
  let slow_exec w =
    Unix.sleepf 5.0;
    Work.exec w
  in
  let pslow, aslow = spawn_worker ~exec:slow_exec () in
  let pfast, afast = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap pslow; reap pfast)
    (fun () ->
      let bus, events = collecting_bus () in
      let remote =
        Sweep.run
          (Darco_dispatch.remote ~bus ~timeout:8.0 [ aslow; afast ])
          (Lazy.force works)
      in
      Alcotest.(check (list string))
        "sweep completes with identical results despite the slow worker"
        (Lazy.force expected) (List.map render remote);
      Alcotest.(check bool) "the stuck unit was stolen" true
        (saw events (function Event.Steal _ -> true | _ -> false)))

(* --- 4. a worker dies with units in flight: the units are reassigned and
   the sweep still completes with the right answer --- *)
let test_worker_died_mid_unit () =
  (* this daemon handshakes and accepts a unit, then the unit kills the
     daemon — the connection drops with the unit in flight.  The unit
     runs on a domain of the daemon process (the default engine), so
     getpid () IS the daemon *)
  let suicide _ =
    Unix.kill (Unix.getpid ()) Sys.sigkill;
    Unix.sleepf 10.0;
    Alcotest.fail "unreachable"
  in
  let pbad, abad = spawn_worker ~exec:suicide () in
  let pgood, agood = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap pbad; reap pgood)
    (fun () ->
      let bus, events = collecting_bus () in
      let remote =
        Sweep.run
          (Darco_dispatch.remote ~bus ~retries:3 [ abad; agood ])
          (Lazy.force works)
      in
      Alcotest.(check (list string))
        "completes despite mid-unit worker death" (Lazy.force expected)
        (List.map render remote);
      Alcotest.(check bool) "the loss was observed" true
        (saw events (function Event.Worker_lost _ -> true | _ -> false));
      Alcotest.(check bool) "the orphaned unit was retried" true
        (saw events (function Event.Dispatch_retry _ -> true | _ -> false)))

(* --- 5. no reachable worker: graceful degradation to the domains
   backend, same results --- *)
let test_unreachable_falls_back () =
  (* an ephemeral port with provably nobody behind it *)
  let sock = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind sock (ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname sock with ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close sock;
  let bus, events = collecting_bus () in
  let remote =
    Sweep.run
      (Darco_dispatch.remote ~bus ~fallback_jobs:2 ~timeout:2.0
         [ { Darco_dispatch.host = "127.0.0.1"; port } ])
      (Lazy.force works)
  in
  Alcotest.(check (list string))
    "falls back to domains and completes" (Lazy.force expected)
    (List.map render remote);
  Alcotest.(check bool) "fallback was announced" true
    (saw events (function Event.Dispatch_fallback _ -> true | _ -> false))

(* --- 5b. the last worker dies under a unit: that unit may be what
   killed it, so it fails rather than run in this process, and only the
   units no worker received fall back to domains.  The worker kills
   itself on every unit; run in the dispatcher, the same unit would
   succeed --- *)
let test_lost_unit_not_run_here () =
  let suicide _ =
    Unix.kill (Unix.getpid ()) Sys.sigkill;
    Unix.sleepf 10.0;
    Alcotest.fail "unreachable"
  in
  let p, a = spawn_worker ~exec:suicide () in
  Fun.protect
    ~finally:(fun () -> reap p)
    (fun () ->
      let bus, events = collecting_bus () in
      match
        Sweep.run
          (Darco_dispatch.remote ~bus ~fallback_jobs:2 [ a ])
          (Lazy.force works)
      with
      | first :: rest ->
        (match first.outcome with
        | Sweep.Failed reason ->
          Alcotest.(check bool)
            (Printf.sprintf "failed as lost with its worker (%s)" reason)
            true
            (contains reason "worker lost while running it")
        | Sweep.Ok _ -> Alcotest.fail "the unit that killed its worker ran here");
        Alcotest.(check (list string))
          "units no worker received ran on domains"
          (List.tl (Lazy.force expected))
          (List.map render rest);
        Alcotest.(check int) "one unit reached the worker" 1
          (count events (function Event.Dispatch_sent _ -> true | _ -> false));
        Alcotest.(check bool) "the fallback was announced" true
          (saw events (function Event.Dispatch_fallback _ -> true | _ -> false))
      | [] -> Alcotest.fail "no results")

(* --- 6. protocol robustness: malformed frames are rejected cleanly and
   the daemon keeps serving --- *)
let le64 n = String.init 8 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

let write_all fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let connect (a : Darco_dispatch.addr) =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Worker.resolve a.host, a.port));
  Wire.send fd (Wire.Hello { version = Wire.protocol_version; slots = 0 });
  (match Wire.recv ~deadline:(Unix.gettimeofday () +. 10.0) fd with
  | Wire.Hello { version; slots } ->
    Alcotest.(check int) "hello echoed" Wire.protocol_version version;
    Alcotest.(check bool) "worker advertises at least one slot" true (slots >= 1)
  | _ -> Alcotest.fail "expected the hello echo");
  fd

let test_malformed_frame_rejected () =
  let pid, addr = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap pid)
    (fun () ->
      let deadline () = Unix.gettimeofday () +. 10.0 in
      (* a WORK frame whose payload does not match its CRC *)
      let fd = connect addr in
      write_all fd ("WORK" ^ le64 4 ^ le64 0 ^ "junk");
      (match Wire.recv ~deadline:(deadline ()) fd with
      | Wire.Fail { id; reason } ->
        Alcotest.(check int) "connection-level failure" (-1) id;
        Alcotest.(check bool) "reason is non-empty" true (String.length reason > 0)
      | _ -> Alcotest.fail "expected a Fail reply to a corrupt frame");
      (* the stream is no longer trusted: the daemon drops this connection *)
      (match Wire.recv ~deadline:(deadline ()) fd with
      | exception Wire.Closed -> ()
      | _ -> Alcotest.fail "expected the corrupted connection to be dropped");
      Unix.close fd;
      (* a well-framed message that is not a valid work unit fails only the
         request: the same connection keeps working *)
      let fd = connect addr in
      Wire.send fd (Wire.Work { id = 7; unit_ = "this is not a DWRK unit" });
      (match Wire.recv ~deadline:(deadline ()) fd with
      | Wire.Fail { id; _ } -> Alcotest.(check int) "failure names the unit" 7 id
      | _ -> Alcotest.fail "expected a Fail reply to a bogus unit");
      Wire.send fd Wire.Ping;
      (match Wire.recv ~deadline:(deadline ()) fd with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "expected Pong after the contained failure");
      (* and the daemon still executes real work afterwards *)
      (match Lazy.force works with
      | w :: _ ->
        Wire.send fd (Wire.Work { id = 9; unit_ = Work.to_string w });
        (match Wire.recv ~deadline:(deadline ()) fd with
        | Wire.Result { id; text; spans = _ } ->
          Alcotest.(check int) "result names the unit" 9 id;
          Alcotest.(check bool) "result parses as JSON" true
            (match J.parse text with _ -> true | exception _ -> false)
        | _ -> Alcotest.fail "expected a Result for a genuine unit")
      | [] -> Alcotest.fail "no work units");
      Unix.close fd)

(* --- 7. a CKPT frame whose bytes do not hash to the claimed digest is
   rejected at the wire and kills only that connection --- *)
let test_mismatched_ckpt_rejected () =
  let pid, addr = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap pid)
    (fun () ->
      let deadline () = Unix.gettimeofday () +. 10.0 in
      let fd = connect addr in
      (* [Wire.send] does not validate outgoing frames, so a lying push is
         expressible — and must be refused by the receiver *)
      Wire.send fd
        (Wire.Ckpt { digest = String.make 32 'a'; bytes = "not that content" });
      (match Wire.recv ~deadline:(deadline ()) fd with
      | Wire.Fail { id; reason } ->
        Alcotest.(check int) "connection-level failure" (-1) id;
        Alcotest.(check bool) "reason mentions the digest check" true
          (String.length reason > 0)
      | _ -> Alcotest.fail "expected a Fail reply to a lying CKPT frame");
      (match Wire.recv ~deadline:(deadline ()) fd with
      | exception Wire.Closed -> ()
      | _ -> Alcotest.fail "expected the connection to be dropped");
      Unix.close fd;
      (* the daemon survives and serves fresh connections *)
      let fd = connect addr in
      Wire.send fd Wire.Ping;
      (match Wire.recv ~deadline:(deadline ()) fd with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "expected Pong on a fresh connection");
      Unix.close fd)

(* --- 8. the codec survives non-blocking sockets: frames dribbling in one
   byte at a time, and a frame larger than the socket buffer going out ---
   both paths park in select on EAGAIN instead of tearing the frame *)
let test_partial_io () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.set_nonblock a;
  (* shrink the buffers so a large frame cannot possibly fit in one write *)
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with Unix.Unix_error _ -> ());
  let big = 1 lsl 20 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close a;
    (try
       (* dribble a PING frame so the parent's reads come up short *)
       let frame = "PING" ^ le64 0 ^ le64 (B.crc32 "") in
       String.iteri
         (fun i c ->
           if i mod 3 = 0 then Unix.sleepf 0.01;
           ignore (Unix.write_substring b (String.make 1 c) 0 1))
         frame;
       (* then drain the parent's oversized CKPT and acknowledge it *)
       match Wire.recv ~deadline:(Unix.gettimeofday () +. 30.0) b with
       | Wire.Ckpt { bytes; _ } when String.length bytes = big ->
         Wire.send b Wire.Pong
       | _ -> ()
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close b;
    Fun.protect
      ~finally:(fun () -> reap pid)
      (fun () ->
        (match Wire.recv ~deadline:(Unix.gettimeofday () +. 30.0) a with
        | Wire.Ping -> ()
        | _ -> Alcotest.fail "expected the dribbled Ping to reassemble");
        let bytes = String.init big (fun i -> Char.chr (i land 0xff)) in
        Wire.send a (Wire.Ckpt { digest = Store.digest bytes; bytes });
        match Wire.recv ~deadline:(Unix.gettimeofday () +. 30.0) a with
        | Wire.Pong -> ()
        | _ -> Alcotest.fail "expected the peer to acknowledge the big frame")

(* --- 9. wire v4 golden fixtures: the campaign frames committed as pinned
   bytes.  The encoder must still emit exactly these bytes and the decoder
   must still accept them — the compatibility contract with every client
   built against today's protocol --- *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Decode raw bytes exactly as a peer would: through a socket. *)
let recv_bytes bytes =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  ignore (Unix.write_substring b bytes 0 (String.length bytes));
  Unix.close b;
  Fun.protect
    ~finally:(fun () -> Unix.close a)
    (fun () -> Wire.recv ~deadline:(Unix.gettimeofday () +. 10.0) a)

let v4_golden =
  [
    ( "wire_stat_v4.bin",
      Wire.Status
        {
          id = 7;
          state = "running";
          done_ = 1;
          total = 4;
          hits = 1;
          dispatched = 3;
          uptime_s = 0;
          version = "";
        } );
    ( "wire_artf_v4.bin",
      Wire.Artifact
        { id = 7; key = "429.mcf@130000/0011aabb"; json = "{\"ipc\":1.5}" } );
    ("wire_done_v4.bin", Wire.Done { id = 7; json = "{\"benchmark\":\"429.mcf\"}" });
  ]

let check_golden =
  List.iter (fun (name, msg) ->
      let golden = read_file (Filename.concat "fixtures" name) in
      Alcotest.(check string)
        (name ^ ": encoder still emits the committed bytes")
        golden (Wire.encode msg);
      Alcotest.(check bool)
        (name ^ ": committed bytes still decode to the same message")
        true
        (recv_bytes golden = msg))

let test_v4_golden_fixtures () = check_golden v4_golden

(* Every other frame of the protocol, pinned the same way at v5 — the
   worker conversation, the telemetry frames, and a Status carrying its
   v5 tail. *)
let test_v5_golden_fixtures () =
  let ckpt = "checkpoint bytes" in
  check_golden
    [
      ("wire_helo_v5.bin", Wire.Hello { version = 5; slots = 2 });
      ("wire_ping_v5.bin", Wire.Ping);
      ("wire_pong_v5.bin", Wire.Pong);
      ( "wire_work_v5.bin",
        Wire.Work
          { id = 3; unit_ = read_file (Filename.concat "fixtures" "mcf_40k_work_v2.dwrk") }
      );
      ( "wire_rslt_v5.bin",
        Wire.Result { id = 3; text = {|{"ipc":1.5}|}; spans = "span log" } );
      ( "wire_fail_v5.bin",
        Wire.Fail { id = -1; reason = "peer version 2 is below the floor 3" } );
      ("wire_need_v5.bin", Wire.Need { digest = Store.digest ckpt });
      ("wire_ckpt_v5.bin", Wire.Ckpt { digest = Store.digest ckpt; bytes = ckpt });
      ("wire_metr_v5.bin", Wire.Metrics { json = {|{"counters":{"events_total":5}}|} });
      ("wire_hlth_v5.bin", Wire.Health { json = {|{"state":"serving","uptime_s":12}|} });
      ( "wire_stat_v5.bin",
        Wire.Status
          {
            id = 3;
            state = "serving";
            done_ = 2;
            total = 9;
            hits = 1;
            dispatched = 1;
            uptime_s = 77;
            version = "0.10.0";
          } );
    ]

let test_v4_malformed_rejected () =
  let golden = read_file (Filename.concat "fixtures" "wire_stat_v4.bin") in
  let corrupt bytes =
    match recv_bytes bytes with
    | _ -> Alcotest.fail "decoded a malformed v4 frame"
    | exception B.Corrupt _ -> ()
  in
  (* one flipped bit in the CRC field *)
  let b = Bytes.of_string golden in
  Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0x01));
  corrupt (Bytes.to_string b);
  (* one flipped bit in the payload *)
  let b = Bytes.of_string golden in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x80));
  corrupt (Bytes.to_string b);
  (* trailing garbage inside a correctly-checksummed payload: the frame
     passes the CRC but the message decoder must refuse the leftovers *)
  let payload = String.sub golden 20 (String.length golden - 20) ^ "!" in
  corrupt
    (String.sub golden 0 4
    ^ le64 (String.length payload)
    ^ le64 (B.crc32 payload)
    ^ payload);
  (* a frame cut off mid-payload is a clean Closed, not a wrong message *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  ignore (Unix.write_substring b golden 0 10);
  Unix.close b;
  Fun.protect
    ~finally:(fun () -> Unix.close a)
    (fun () ->
      match Wire.recv ~deadline:(Unix.gettimeofday () +. 10.0) a with
      | _ -> Alcotest.fail "decoded a truncated v4 frame"
      | exception Wire.Closed -> ())

(* --- 9b. wire v5 frames: METR/HLTH and the Status tail round-trip
   through a real socket.  A default-tail Status must keep encoding the
   exact v4 bytes (the golden fixture above pins that), so the tail has
   to be genuinely on the wire when it is set --- *)
let test_v5_roundtrip () =
  Alcotest.(check int) "protocol is v5" 5 Wire.protocol_version;
  let tailed =
    Wire.Status
      {
        id = 3;
        state = "serving";
        done_ = 2;
        total = 9;
        hits = 1;
        dispatched = 1;
        uptime_s = 77;
        version = "0.10.0";
      }
  in
  List.iter
    (fun msg ->
      Alcotest.(check bool) "v5 frame round-trips through a socket" true
        (recv_bytes (Wire.encode msg) = msg))
    [
      Wire.Metrics { json = "" };
      Wire.Metrics { json = {|{"counters":{"events_total":5}}|} };
      Wire.Health { json = {|{"state":"serving","uptime_s":12}|} };
      tailed;
    ];
  let plain =
    Wire.Status
      {
        id = 3;
        state = "serving";
        done_ = 2;
        total = 9;
        hits = 1;
        dispatched = 1;
        uptime_s = 0;
        version = "";
      }
  in
  Alcotest.(check bool) "the Status tail really rides the frame" true
    (String.length (Wire.encode tailed) > String.length (Wire.encode plain))

let dial (addr : Darco_dispatch.addr) =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Worker.resolve addr.host, addr.port));
  fd

(* --- 10. version negotiation: a v3 client against today's server keeps
   working at v3; a v2 client is refused with a reason --- *)
let test_version_negotiation () =
  let pid, addr = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap pid)
    (fun () ->
      let deadline () = Unix.gettimeofday () +. 10.0 in
      let dial () = dial addr in
      (* a v3 peer: the server answers at the common version and serves *)
      let fd = dial () in
      Wire.send fd (Wire.Hello { version = 3; slots = 0 });
      (match Wire.recv ~deadline:(deadline ()) fd with
      | Wire.Hello { version; _ } ->
        Alcotest.(check int) "server downgrades to the peer's version" 3 version
      | _ -> Alcotest.fail "expected a Hello reply to a v3 peer");
      Wire.send fd Wire.Ping;
      (match Wire.recv ~deadline:(deadline ()) fd with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "expected the v3 connection to keep serving");
      Unix.close fd;
      (* a v2 peer: below the floor, refused outright *)
      let fd = dial () in
      Wire.send fd (Wire.Hello { version = 2; slots = 0 });
      (match Wire.recv ~deadline:(deadline ()) fd with
      | Wire.Fail { id; reason } ->
        Alcotest.(check int) "connection-level refusal" (-1) id;
        Alcotest.(check bool) "refusal carries a reason" true
          (String.length reason > 0)
      | _ -> Alcotest.fail "expected a v2 peer to be refused");
      Unix.close fd)

(* --- 10b. a worker serving one dispatcher refuses a second at once,
   naming the busy state, instead of leaving it to wait out its handshake
   timeout; once the first leaves, the next dial is served --- *)
let test_busy_worker_refuses () =
  let pid, addr = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap pid)
    (fun () ->
      let hello fd =
        Wire.send fd (Wire.Hello { version = Wire.protocol_version; slots = 0 })
      in
      let served what fd =
        hello fd;
        match Wire.recv ~deadline:(Unix.gettimeofday () +. 10.0) fd with
        | Wire.Hello _ -> ()
        | _ -> Alcotest.fail (what ^ " was not served")
      in
      let first = dial addr in
      served "the first dial" first;
      let second = dial addr in
      hello second;
      (match Wire.recv ~deadline:(Unix.gettimeofday () +. 1.0) second with
      | Wire.Fail { id; reason } ->
        Alcotest.(check int) "connection-level refusal" (-1) id;
        Alcotest.(check bool)
          (Printf.sprintf "reason %S names the busy state" reason)
          true (contains reason "busy")
      | _ -> Alcotest.fail "expected a busy refusal"
      | exception Wire.Timeout -> Alcotest.fail "no refusal within 1 s"
      | exception Wire.Closed -> Alcotest.fail "closed without a refusal");
      Unix.close second;
      Unix.close first;
      let third = dial addr in
      served "a dial after the first left" third;
      Unix.close third)

(* --- 11. keepalive: a worker that stops responding mid-sweep (SIGSTOP —
   the socket stays open, so only missed pongs can expose it) is declared
   dead after K missed probes and its units are reassigned --- *)
let test_keepalive_detects_stopped_worker () =
  let stopper w =
    Unix.kill (Unix.getpid ()) Sys.sigstop;
    Work.exec w
  in
  let pstuck, astuck = spawn_worker ~exec:stopper () in
  let pgood, agood = spawn_worker () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pstuck Sys.sigcont with Unix.Unix_error _ -> ());
      reap pstuck;
      reap pgood)
    (fun () ->
      let bus, events = collecting_bus () in
      let t0 = Unix.gettimeofday () in
      (* the dispatch timeout is far away: only the keepalive can notice *)
      let remote =
        Sweep.run
          (Darco_dispatch.remote ~bus ~keepalive_idle:0.5 ~keepalive_misses:2
             ~timeout:120.0 ~retries:3 [ astuck; agood ])
          (Lazy.force works)
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check (list string))
        "sweep completes with identical results past the stopped worker"
        (Lazy.force expected) (List.map render remote);
      Alcotest.(check bool) "keepalive noticed long before the unit timeout"
        true (elapsed < 60.0);
      Alcotest.(check bool) "the loss names the missed pongs" true
        (List.exists
           (function
             | Event.Worker_lost { reason; _ } -> contains reason "keepalive"
             | _ -> false)
           !events))

(* --- 12. the loopback fleet behind [--backend local:J]: byte-identical
   to serial, a unit's exception included, and every worker process
   stopped and reaped when the sweep ends — also when it ends by an
   exception --- *)
let test_fleet_matches_serial () =
  let garbage =
    { Work.label = "garbage"; ckpt = Work.Inline "not a snapshot"; offset = 0;
      window = 1; warmup = 0 }
  in
  let units = Lazy.force works @ [ garbage ] in
  let serial = List.map render (Sweep.run (Sweep.Backend.serial ()) units) in
  Alcotest.(check (list string))
    "local:2 renders identically to serial, failed unit included" serial
    (List.map render (Sweep.run (Fleet.backend 2) units));
  Alcotest.(check bool) "the failed unit keeps its reason" true
    (contains (List.nth serial 4) "worker failed: ");
  Alcotest.(check bool) "every fleet worker reaped" true (Fleet.no_children ());
  (* a planned sweep whose second round cannot build its unit *)
  let plan =
    Plan.create
      { Plan.default with Plan.kind = Plan.Fixed; ci_target = 0.0; round_size = 1 }
      ~candidates:[ 0; 1 ] ~phase_of:(fun _ -> 0)
  in
  (match
     Sweep.run_plan (Fleet.backend 2) plan (fun off ->
         if off = 0 then garbage else raise Exit)
   with
  | _ -> Alcotest.fail "the work function's exception was swallowed"
  | exception Exit -> ());
  Alcotest.(check int) "it raised in the second round" 2 (Plan.rounds plan);
  Alcotest.(check bool) "fleet reaped after the work function raised" true
    (Fleet.no_children ());
  let pids = ref [] in
  (match
     Darco_dispatch.with_fleet ~exe:Fleet.exe 2 (fun fleet ->
         pids := List.map snd (Darco_dispatch.fleet_members fleet);
         raise Exit)
   with
  | () -> Alcotest.fail "with_fleet swallowed the exception"
  | exception Exit -> ());
  Alcotest.(check int) "with_fleet started two workers" 2 (List.length !pids);
  Alcotest.(check bool) "with_fleet reaped them on the way out" true
    (Fleet.no_children ());
  (* a worker that exits during start-up is restarted, twice, then the
     start-up fails *)
  (match Darco_dispatch.with_fleet ~exe:"/bin/false" 1 (fun _ -> ()) with
  | () -> Alcotest.fail "a fleet of exiting workers started"
  | exception Failure _ -> ());
  Alcotest.(check bool) "a failed start-up leaves no process" true
    (Fleet.no_children ())

(* --- 13. a fleet worker SIGKILLed as its first unit is sent loses
   nothing: its unit is reassigned to the surviving worker and the sweep
   is still byte-identical --- *)
let test_fleet_worker_killed () =
  Darco_dispatch.with_fleet ~exe:Fleet.exe 2 (fun fleet ->
      let members = Darco_dispatch.fleet_members fleet in
      let victim_addr, victim = List.hd members in
      let victim_name = Darco_dispatch.addr_to_string victim_addr in
      let bus, events = collecting_bus () in
      let killed = ref false in
      Darco_obs.Bus.attach bus ~name:"killer" (fun ~at:_ ev ->
          match ev with
          | Event.Dispatch_sent { worker; _ } when worker = victim_name && not !killed
            ->
            killed := true;
            Unix.kill victim Sys.sigkill
          | _ -> ());
      let remote =
        Sweep.run (Darco_dispatch.remote ~bus (List.map fst members)) (Lazy.force works)
      in
      Alcotest.(check bool) "the worker was killed" true !killed;
      Alcotest.(check (list string))
        "sweep byte-identical past the killed worker" (Lazy.force expected)
        (List.map render remote);
      Alcotest.(check bool) "the loss was observed" true
        (saw events (function
          | Event.Worker_lost { worker; _ } -> worker = victim_name
          | _ -> false));
      Alcotest.(check bool) "the orphaned unit was retried" true
        (saw events (function Event.Dispatch_retry _ -> true | _ -> false)))

(* --- 13b. [fleet_revive] restarts a dead fleet worker: on its old port
   while that is free, on a fresh one once another socket holds it, and
   the revived fleet sweeps byte-identically --- *)
let test_fleet_revive () =
  Darco_dispatch.with_fleet ~exe:Fleet.exe 1 (fun fleet ->
      let member () = List.hd (Darco_dispatch.fleet_members fleet) in
      (* killed and reaped here, so the fleet finds it gone for certain *)
      let kill () =
        let _, pid = member () in
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        pid
      in
      let a0, _ = member () in
      let dead = kill () in
      (match Darco_dispatch.fleet_revive fleet with
      | [ a1 ] ->
        Alcotest.(check int) "revived on its old port" a0.port a1.port;
        Alcotest.(check bool) "by a new process" true (snd (member ()) <> dead)
      | _ -> Alcotest.fail "expected one worker");
      ignore (kill ());
      let squatter = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close squatter) @@ fun () ->
      Unix.setsockopt squatter Unix.SO_REUSEADDR true;
      Unix.bind squatter (ADDR_INET (Unix.inet_addr_loopback, a0.port));
      Unix.listen squatter 1;
      match Darco_dispatch.fleet_revive fleet with
      | [ a2 ] ->
        Alcotest.(check bool) "moved off the taken port" true (a2.port <> a0.port);
        Alcotest.(check (list string))
          "revived fleet sweeps byte-identically" (Lazy.force expected)
          (List.map render
             (Sweep.run (Darco_dispatch.remote [ a2 ]) (Lazy.force works)))
      | _ -> Alcotest.fail "expected one worker")

(* --- 14. [darco worker --listen HOST:0] announces the port the kernel
   bound, on its first stdout line, and that port answers a Hello --- *)
let test_worker_announces_bound_port () =
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process Fleet.exe
      [| Fleet.exe; "worker"; "--listen"; "127.0.0.1:0"; "-j"; "1" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      reap pid;
      close_in_noerr ic)
    (fun () ->
      let port =
        Scanf.sscanf (input_line ic) "[worker] listening on 127.0.0.1:%d" Fun.id
      in
      Alcotest.(check bool) "the announced port is the bound one" true (port > 0);
      Unix.close (connect { Darco_dispatch.host = "127.0.0.1"; port }))

(* --- spec parsing (the CLI's --backend flag) --- *)
let test_spec_parsing () =
  let ok = function Ok s -> s | Error e -> Alcotest.failf "parse failed: %s" e in
  (match ok (Darco_dispatch.spec_of_string "serial") with
  | Darco_dispatch.Serial -> ()
  | _ -> Alcotest.fail "expected Serial");
  (match ok (Darco_dispatch.spec_of_string ~jobs:3 "local") with
  | Darco_dispatch.Local { jobs; _ } -> Alcotest.(check int) "default jobs" 3 jobs
  | _ -> Alcotest.fail "expected Local");
  (match ok (Darco_dispatch.spec_of_string ~timeout:5.0 ~retries:1 "local:9") with
  | Darco_dispatch.Local { jobs; timeout; retries } ->
    Alcotest.(check int) "explicit jobs" 9 jobs;
    Alcotest.(check (float 0.0)) "dispatch timeout governs local" 5.0 timeout;
    Alcotest.(check int) "dispatch retries govern local" 1 retries
  | _ -> Alcotest.fail "expected Local");
  (match ok (Darco_dispatch.spec_of_string ~jobs:3 "domains") with
  | Darco_dispatch.Domains { jobs } ->
    Alcotest.(check int) "default domain jobs" 3 jobs
  | _ -> Alcotest.fail "expected Domains");
  (match ok (Darco_dispatch.spec_of_string "domains:6") with
  | Darco_dispatch.Domains { jobs } ->
    Alcotest.(check int) "explicit domain jobs" 6 jobs
  | _ -> Alcotest.fail "expected Domains");
  (match ok (Darco_dispatch.spec_of_string ~timeout:5.0 ~retries:1 "remote:a:1,b:2") with
  | Darco_dispatch.Remote { workers; timeout; retries } ->
    Alcotest.(check (list string)) "workers"
      [ "a:1"; "b:2" ]
      (List.map Darco_dispatch.addr_to_string workers);
    Alcotest.(check (float 0.0)) "timeout" 5.0 timeout;
    Alcotest.(check int) "retries" 1 retries
  | _ -> Alcotest.fail "expected Remote");
  let bad s =
    match Darco_dispatch.spec_of_string s with
    | Ok _ -> Alcotest.failf "accepted bad spec %S" s
    | Error _ -> ()
  in
  List.iter bad
    [
      "";
      "serial:2";
      "local:zero";
      "domains:zero";
      "domains:0";
      "remote:";
      "remote:host";
      "remote:host:0";
      "ftp:x";
    ]

let () =
  Alcotest.run "dispatch"
    [
      ( "protocol",
        [
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "malformed frames rejected" `Quick
            test_malformed_frame_rejected;
          Alcotest.test_case "mismatched CKPT rejected" `Quick
            test_mismatched_ckpt_rejected;
          Alcotest.test_case "partial reads and writes reassemble" `Quick
            test_partial_io;
          Alcotest.test_case "v4 golden fixtures" `Quick
            test_v4_golden_fixtures;
          Alcotest.test_case "v5 golden fixtures" `Quick
            test_v5_golden_fixtures;
          Alcotest.test_case "malformed v4 frames rejected" `Quick
            test_v4_malformed_rejected;
          Alcotest.test_case "v5 frames roundtrip" `Quick test_v5_roundtrip;
          Alcotest.test_case "version negotiation" `Quick
            test_version_negotiation;
          Alcotest.test_case "busy worker refuses a second dispatcher" `Quick
            test_busy_worker_refuses;
          Alcotest.test_case "worker announces its bound port" `Quick
            test_worker_announces_bound_port;
        ] );
      ( "registry",
        [
          Alcotest.test_case "rebuilt from the event stream" `Quick
            test_registry_rebuild;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "loopback end-to-end" `Quick (isolated test_loopback_e2e);
          Alcotest.test_case "sweep observability: stamps, spans, chrome"
            `Quick (isolated test_sweep_observability);
          Alcotest.test_case "checkpoint shipped at most once" `Quick
            (isolated test_ckpt_shipped_once);
          Alcotest.test_case "slow worker is stolen from" `Quick
            (isolated test_steal_from_slow_worker);
          Alcotest.test_case "worker dies mid-unit" `Quick
            (isolated test_worker_died_mid_unit);
          Alcotest.test_case "keepalive exposes a stopped worker" `Quick
            (isolated test_keepalive_detects_stopped_worker);
          Alcotest.test_case "local fleet matches serial, is reaped" `Quick
            (isolated test_fleet_matches_serial);
          Alcotest.test_case "killed fleet worker loses nothing" `Quick
            (isolated test_fleet_worker_killed);
          Alcotest.test_case "dead fleet worker revived" `Quick
            (isolated test_fleet_revive);
          Alcotest.test_case "lost unit is not run in the dispatcher" `Quick
            (isolated test_lost_unit_not_run_here);
          Alcotest.test_case "unreachable worker falls back" `Quick
            (isolated test_unreachable_falls_back);
        ] );
    ]
