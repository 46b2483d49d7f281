module B = Darco_sampling.Buf
module Sweep = Darco_sampling.Sweep
module Work = Darco_sampling.Work
module Store = Darco_sampling.Store
module Jsonx = Darco_obs.Jsonx
module Bus = Darco_obs.Bus
module Event = Darco_obs.Event
module Clock = Darco_obs.Clock
module Span = Darco_obs.Span

type addr = { host : string; port : int }

let addr_to_string a = Printf.sprintf "%s:%d" a.host a.port

let addr_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "worker address %S is not HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Ok { host; port = p }
    | _ -> Error (Printf.sprintf "worker address %S is not HOST:PORT" s))

type spec =
  | Serial
  | Local of { jobs : int; timeout : float; retries : int }
  | Domains of { jobs : int }
  | Remote of { workers : addr list; timeout : float; retries : int }

let spec_of_string ?(jobs = 4) ?(timeout = 60.0) ?(retries = 2) s =
  let prefix p =
    String.length s > String.length p
    && String.sub s 0 (String.length p) = p
  in
  if s = "serial" then Ok Serial
  else if s = "local" then Ok (Local { jobs; timeout; retries })
  else if prefix "local:" then begin
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some j when j >= 1 -> Ok (Local { jobs = j; timeout; retries })
    | _ -> Error (Printf.sprintf "bad backend %S: expected local:JOBS" s)
  end
  else if s = "domains" then Ok (Domains { jobs })
  else if prefix "domains:" then begin
    match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
    | Some j when j >= 1 -> Ok (Domains { jobs = j })
    | _ -> Error (Printf.sprintf "bad backend %S: expected domains:JOBS" s)
  end
  else if prefix "remote:" then begin
    let rest = String.sub s 7 (String.length s - 7) in
    let parts = String.split_on_char ',' rest in
    let rec collect acc = function
      | [] -> Ok (Remote { workers = List.rev acc; timeout; retries })
      | p :: tl -> (
        match addr_of_string (String.trim p) with
        | Ok a -> collect (a :: acc) tl
        | Error e -> Error e)
    in
    collect [] parts
  end
  else
    Error
      (Printf.sprintf
         "bad backend %S: expected serial, local:JOBS, domains:JOBS or \
          remote:HOST:PORT[,HOST:PORT...]"
         s)

(* --- the dispatcher ----------------------------------------------------- *)

(* Base delay before a unit bounced off a dead worker is eligible again;
   doubles per attempt (0.2s, 0.4s, 0.8s, ...). *)
let backoff_base = 0.2

(* A unit is only stolen (speculatively duplicated onto an idle worker)
   once it has been in flight for this fraction of the per-unit timeout —
   young units are almost certainly just still computing. *)
let steal_fraction = 0.25

(* One unit, from [add] until it settles.  Its id is unique within the
   session: it is the unit's wire id, so a stale frame (e.g. the loser of
   a steal race finishing late) can never alias a later unit, and the
   correlation id of its dispatcher spans. *)
type job = {
  j_id : int;
  j_work : Work.t;
  j_k : Sweep.outcome -> unit;
  mutable j_attempt : int;
  mutable j_settled : bool;
  (* the dispatcher-side span open for the unit: "queued" covers arrival
     to dispatch (and backoff waits), "inflight" dispatch to settle on the
     primary holder; stolen duplicates open none (the [Steal] instant
     marks them) *)
  mutable j_span : string option;
  mutable j_lost_with : string;  (* why its last worker was lost *)
}

type inflight = { if_job : job; if_deadline : float; if_sent_at : float }

(* One queued outbound frame: its exact wire bytes, how much has reached
   the kernel, and what to do once the last byte is written (or the
   connection dies first — [ob_done false]).  Frames flush opportunistically
   at enqueue and then whenever select reports the socket writable, so a
   multi-megabyte checkpoint push drains in the background while results
   keep being handled. *)
type obent = {
  ob_bytes : string;
  mutable ob_off : int;
  ob_done : bool -> unit;
}

type worker_state = {
  w_addr : string;
  (* position in the caller's worker list; used to derive a stable
     correlation id for per-worker spans (checkpoint pushes) that cannot
     collide with unit ids *)
  w_ix : int;
  mutable w_fd : Unix.file_descr option;
  w_slots : int;
  (* unit id -> its in-flight record; up to [w_slots] entries *)
  w_inflight : (int, inflight) Hashtbl.t;
  (* checkpoint digests this worker has been assigned or pushed — any
     later unit sharing one rides the worker's cached copy *)
  w_seen : (string, unit) Hashtbl.t;
  (* outbound frames not yet fully written; every post-handshake frame
     goes through here so two frames can never interleave *)
  w_outbox : obent Queue.t;
  (* keepalive probing: wall time of the last frame received, when the
     next PING may go out, and how many PINGs are outstanding without any
     intervening traffic (any received frame counts as life, not just
     PONG — a worker busy streaming results never gets probed) *)
  mutable w_last_recv : float;
  mutable w_next_ping : float;
  mutable w_pings : int;
}

(* Dispatch-lifecycle events are stamped with the strictly monotonic
   wall-clock microsecond tick — there is no retired-instruction clock
   across machines, and a wall stamp keeps a merged JSONL trace in
   real-time order. *)
let emit bus ev = Option.iter (fun b -> Bus.emit b ~at:(Clock.ticks ()) ev) bus

(* Span halves ride the same bus; skip the allocation when nobody listens
   (the bus-active contract of the core applies here too). *)
let span bus sp =
  Option.iter (fun b -> if Bus.active b then Span.emit b sp) bus

let dispatcher_host = "dispatcher"

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Non-blocking connect bounded by [timeout] seconds, then the Hello
   handshake bounded by the same budget.  The socket stays non-blocking:
   the wire layer parks in select on EAGAIN, so multiplexed traffic never
   stalls the whole dispatcher on one slow peer. *)
let connect_worker ~bus ~timeout ~ix (a : addr) =
  let name = addr_to_string a in
  let fail fd reason =
    Option.iter close_quietly fd;
    emit bus (Event.Worker_lost { worker = name; reason });
    None
  in
  match Worker.resolve a.host with
  | exception Invalid_argument m -> fail None m
  | inet -> (
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Wire.no_delay fd;
    Unix.set_nonblock fd;
    let sockaddr = Unix.ADDR_INET (inet, a.port) in
    let deadline = Unix.gettimeofday () +. timeout in
    let connected =
      match Unix.connect fd sockaddr with
      | () -> true
      | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
        -> (
        match Unix.select [] [ fd ] [] timeout with
        | _, [ _ ], _ -> Unix.getsockopt_error fd = None
        | _ -> false)
      | exception Unix.Unix_error _ -> false
    in
    if not connected then fail (Some fd) "connection refused or timed out"
    else begin
      match
        Wire.send ~deadline fd
          (Wire.Hello { version = Wire.protocol_version; slots = 0 });
        Wire.recv ~deadline fd
      with
      | Wire.Hello { version = v; slots }
        when v >= Wire.min_version && v <= Wire.protocol_version ->
        (* the worker already negotiated down to [min ours theirs]; any
           version in the accepted range speaks the same worker protocol *)
        emit bus (Event.Worker_up { worker = name });
        let now = Unix.gettimeofday () in
        Some
          {
            w_addr = name;
            w_ix = ix;
            w_fd = Some fd;
            w_slots = max 1 slots;
            w_inflight = Hashtbl.create 8;
            w_seen = Hashtbl.create 4;
            w_outbox = Queue.create ();
            w_last_recv = now;
            w_next_ping = now;
            w_pings = 0;
          }
      | Wire.Hello { version = v; _ } ->
        fail (Some fd)
          (Printf.sprintf "protocol version mismatch (worker speaks %d)" v)
      | Wire.Fail { reason; _ } -> fail (Some fd) reason
      | _ -> fail (Some fd) "unexpected handshake reply"
      | exception Wire.Timeout -> fail (Some fd) "handshake timed out"
      | exception Wire.Closed -> fail (Some fd) "connection closed during handshake"
      | exception B.Corrupt m -> fail (Some fd) ("malformed handshake: " ^ m)
    end)

(* The one incremental core behind every remote dispatch.  What persists
   between calls is what is expensive to rebuild — the TCP connections,
   each worker's [w_seen] checkpoint cache and half-drained outbound
   frames — along with the units in flight, their deadlines and retries. *)
type session = {
  se_bus : Bus.t option;
  se_store : Store.t option;
  se_fallback_jobs : int;
  se_keepalive_idle : float;
  se_keepalive_misses : int;
  se_timeout : float;
  se_retries : int;
  se_workers : unit -> addr list;
  (* what [se_workers] last answered; [None] before the first dispatch *)
  mutable se_addrs : addr list option;
  (* the workers connected since then, lost ones included *)
  mutable se_ws : worker_state list;
  mutable se_next_id : int;
  (* units waiting for a slot, with the earliest time each may go, in
     arrival order *)
  mutable se_queue : (job * float) list;
  mutable se_settled : int;  (* units settled so far *)
  mutable se_straggler_pct : int;
}

let open_session ?bus ?(fallback_jobs = 4) ?store ?(keepalive_idle = 5.0)
    ?(keepalive_misses = 3) ?(timeout = 60.0) ?(retries = 2) workers =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  { se_bus = bus; se_store = store; se_fallback_jobs = fallback_jobs;
    se_keepalive_idle = keepalive_idle; se_keepalive_misses = keepalive_misses;
    se_timeout = timeout; se_retries = retries; se_workers = workers;
    se_addrs = None; se_ws = []; se_next_id = 0; se_queue = [];
    se_settled = 0; se_straggler_pct = 0 }

(* Frames still queued will never arrive: fail their completions so their
   spans close. *)
let disconnect w =
  Option.iter close_quietly w.w_fd;
  w.w_fd <- None;
  Queue.iter (fun e -> e.ob_done false) w.w_outbox;
  Queue.clear w.w_outbox

let close_session se = List.iter disconnect se.se_ws

let live se = List.filter (fun w -> w.w_fd <> None) se.se_ws

(* An idle session (nothing queued or in flight) with fewer live
   connections than addresses reconnects at its next dispatch: nothing in
   flight can be held up by it. *)
let wants_refresh se =
  se.se_queue = []
  && List.for_all (fun w -> Hashtbl.length w.w_inflight = 0) se.se_ws
  &&
  match se.se_addrs with
  | None -> true
  | Some addrs -> List.length (live se) < List.length addrs

(* Ask for the addresses again and connect every one without a live
   connection; live ones keep their units and pushed checkpoints.  Over a
   loopback fleet the answer comes from [fleet_revive], which first
   restarts any worker that died. *)
let refresh se =
  let addrs = se.se_workers () in
  se.se_addrs <- Some addrs;
  let lv = live se in
  let connect ix a =
    if List.exists (fun w -> w.w_addr = addr_to_string a) lv then None
    else connect_worker ~bus:se.se_bus ~timeout:se.se_timeout ~ix a
  in
  se.se_ws <- lv @ List.filter_map Fun.id (List.mapi connect addrs)

let open_span se j name ~detail =
  span se.se_bus
    (Span.begin_ ~detail ~span:name ~corr:j.j_id ~host:dispatcher_host ());
  j.j_span <- Some name

let close_span se j ~ok =
  Option.iter
    (fun name ->
      span se.se_bus
        (Span.end_ ~ok ~span:name ~corr:j.j_id ~host:dispatcher_host ()))
    j.j_span;
  j.j_span <- None

let enqueue se j at =
  open_span se j "queued" ~detail:j.j_work.Work.label;
  se.se_queue <- se.se_queue @ [ (j, at) ]

let add se work k =
  if wants_refresh se then refresh se;
  let id = se.se_next_id in
  se.se_next_id <- id + 1;
  enqueue se
    { j_id = id; j_work = work; j_k = k; j_attempt = 0; j_settled = false;
      j_span = None; j_lost_with = "" }
    0.0

let free_slots se =
  let queued = List.length se.se_queue in
  if wants_refresh se then 1
  else
    match live se with
    | [] -> se.se_fallback_jobs - queued
    | lv ->
      List.fold_left
        (fun acc w -> acc + w.w_slots - Hashtbl.length w.w_inflight)
        (-queued) lv

let gauge se w =
  emit se.se_bus
    (Event.Dispatch_inflight
       { worker = w.w_addr; in_flight = Hashtbl.length w.w_inflight })

let settle se j outcome =
  if not j.j_settled then begin
    j.j_settled <- true;
    se.se_settled <- se.se_settled + 1;
    close_span se j ~ok:(match outcome with Sweep.Ok _ -> true | _ -> false);
    (* withdraw every other copy so a late duplicate result is ignored *)
    List.iter
      (fun w ->
        if Hashtbl.mem w.w_inflight j.j_id then begin
          Hashtbl.remove w.w_inflight j.j_id;
          gauge se w
        end)
      se.se_ws;
    j.j_k outcome
  end

let requeue se j reason =
  j.j_lost_with <- reason;
  if j.j_attempt >= se.se_retries then
    settle se j
      (Sweep.Failed
         (Printf.sprintf "gave up after %d attempts (last: %s)"
            (j.j_attempt + 1) reason))
  else begin
    let delay = backoff_base *. (2.0 ** float_of_int j.j_attempt) in
    j.j_attempt <- j.j_attempt + 1;
    emit se.se_bus
      (Event.Dispatch_retry
         { unit_label = j.j_work.Work.label; attempt = j.j_attempt; delay });
    close_span se j ~ok:false;
    enqueue se j (Unix.gettimeofday () +. delay)
  end

(* how many live workers currently hold [j] (can exceed 1 after a steal
   speculatively duplicated it) *)
let copies se j =
  List.length
    (List.filter (fun w -> w.w_fd <> None && Hashtbl.mem w.w_inflight j.j_id) se.se_ws)

let lose_worker se w reason =
  emit se.se_bus (Event.Worker_lost { worker = w.w_addr; reason });
  disconnect w;
  let inflight = Hashtbl.fold (fun _ inf acc -> inf.if_job :: acc) w.w_inflight [] in
  Hashtbl.reset w.w_inflight;
  (* a unit duplicated onto another live worker is still in flight there;
     only units with no surviving copy go back on the queue *)
  List.iter
    (fun j -> if (not j.j_settled) && copies se j = 0 then requeue se j reason)
    inflight

(* Write as much queued output as the socket will take without blocking;
   a hard write error costs the whole worker. *)
let kick se w =
  match w.w_fd with
  | None -> ()
  | Some fd ->
    let ok = ref true and progress = ref true in
    while !ok && !progress && not (Queue.is_empty w.w_outbox) do
      let e = Queue.peek w.w_outbox in
      let len = String.length e.ob_bytes in
      match Unix.write_substring fd e.ob_bytes e.ob_off (len - e.ob_off) with
      | k ->
        e.ob_off <- e.ob_off + k;
        if e.ob_off = len then begin
          ignore (Queue.pop w.w_outbox);
          e.ob_done true
        end
        else progress := false
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        progress := false
      | exception Unix.Unix_error _ -> ok := false
    done;
    if not !ok then lose_worker se w "send failed"

let enqueue_frame w msg ~done_ =
  Queue.push { ob_bytes = Wire.encode msg; ob_off = 0; ob_done = done_ } w.w_outbox

(* Assign [j] to [w].  The frame goes through the outbox; the unit is in
   flight from the moment it is queued (its deadline covers a wedged
   socket), and a write failure loses the worker, whose table — stolen
   copies and all — requeues correctly. *)
let send_unit se w ~stolen j =
  let u = j.j_work in
  let now = Unix.gettimeofday () in
  let enc = Work.to_string u in
  emit se.se_bus
    (Event.Dispatch_sent
       { unit_label = u.Work.label; worker = w.w_addr; attempt = j.j_attempt;
         bytes = String.length enc });
  if not stolen then begin
    close_span se j ~ok:true;
    open_span se j "inflight"
      ~detail:(Printf.sprintf "%s attempt %d" w.w_addr j.j_attempt)
  end;
  (match Work.digest u with
  | None -> ()
  | Some d ->
    if Hashtbl.mem w.w_seen d then
      emit se.se_bus (Event.Ckpt_hit { worker = w.w_addr; digest = d })
    else Hashtbl.replace w.w_seen d ());
  enqueue_frame w (Wire.Work { id = j.j_id; unit_ = enc }) ~done_:ignore;
  Hashtbl.replace w.w_inflight j.j_id
    { if_job = j; if_deadline = now +. se.se_timeout; if_sent_at = now };
  gauge se w;
  kick se w

(* Worker span logs ride back inside [Result] frames; replay them on the
   bus with their original stamps so the merged trace carries both
   machines' timelines.  A malformed log is a telemetry defect, never a
   reason to reject the (CRC-verified, parseable) result itself. *)
let replay_spans se encoded =
  match se.se_bus with
  | Some b when Bus.active b -> (
    match Span.decode_list encoded with
    | sps -> List.iter (fun sp -> Span.emit b sp) sps
    | exception Jsonx.Parse_error _ -> ())
  | _ -> ()

let handle_msg se w msg =
  (* a reply for a unit no longer in flight here is a late duplicate of
     something already settled (or withdrawn): dropped *)
  let finish id ok outcome =
    Option.iter
      (fun inf ->
        emit se.se_bus
          (Event.Dispatch_done
             { unit_label = inf.if_job.j_work.Work.label; worker = w.w_addr; ok });
        settle se inf.if_job outcome)
      (Hashtbl.find_opt w.w_inflight id)
  in
  match msg with
  | Wire.Result { id; text; spans = spanlog } -> (
    if Hashtbl.mem w.w_inflight id then
      match Jsonx.parse text with
      | json ->
        replay_spans se spanlog;
        finish id true (Sweep.Ok json)
      | exception Jsonx.Parse_error m ->
        (* the frame passed its CRC, so this is the worker misbehaving, not
           the network: drop it (the unit requeues from its table) *)
        lose_worker se w ("unparseable result: " ^ m))
  | Wire.Fail { id; reason } when id >= 0 ->
    (* the unit itself failed over a healthy connection — execution is
       deterministic, so retrying (or waiting out a duplicate) would not
       help *)
    finish id false (Sweep.Failed reason)
  | Wire.Fail { reason; _ } -> lose_worker se w ("worker reported: " ^ reason)
  | Wire.Need { digest } -> (
    match se.se_store with
    | None ->
      lose_worker se w
        "worker requested a checkpoint but the dispatcher has no store"
    | Some s -> (
      match Store.find s digest with
      | Some bytes ->
        (* one span per push, on a per-worker correlation track well away
           from unit ids; the span closes when the last byte drains, so
           its width is the real transfer time overlapped with everything
           else the loop did meanwhile *)
        let corr = 1_000_000 + w.w_ix in
        span se.se_bus
          (Span.begin_ ~detail:digest ~span:"ckpt_push" ~corr
             ~host:dispatcher_host ());
        Hashtbl.replace w.w_seen digest ();
        enqueue_frame w
          (Wire.Ckpt { digest; bytes })
          ~done_:(fun ok ->
            span se.se_bus
              (Span.end_ ~ok ~span:"ckpt_push" ~corr ~host:dispatcher_host ());
            if ok then
              emit se.se_bus
                (Event.Ckpt_push
                   { worker = w.w_addr; digest; bytes = String.length bytes }));
        kick se w
      | None ->
        lose_worker se w
          (Printf.sprintf "worker requested unknown checkpoint %s" digest)
      | exception B.Corrupt m -> lose_worker se w ("checkpoint store: " ^ m)))
  | Wire.Pong -> () (* keepalive reply; receipt already reset the probe state *)
  | Wire.Hello _ | Wire.Ping | Wire.Work _ | Wire.Ckpt _ | Wire.Submit _
  | Wire.Status _ | Wire.Artifact _ | Wire.Done _ | Wire.Metrics _
  | Wire.Health _ ->
    lose_worker se w "protocol violation"

let drain se w fd =
  let deadline =
    Hashtbl.fold
      (fun _ inf acc -> Float.min acc inf.if_deadline)
      w.w_inflight
      (Unix.gettimeofday () +. se.se_timeout)
  in
  match Wire.recv ~deadline fd with
  | msg ->
    (* any complete frame proves the worker alive *)
    w.w_last_recv <- Unix.gettimeofday ();
    w.w_pings <- 0;
    handle_msg se w msg
  | exception Wire.Closed -> lose_worker se w "connection closed"
  | exception Wire.Timeout -> lose_worker se w "work unit timed out"
  | exception B.Corrupt m -> lose_worker se w ("malformed frame: " ^ m)

(* When the next keepalive probe of [w] is due: once nothing has arrived
   for [keepalive_idle] seconds, and then at that interval. *)
let ping_due se w =
  Float.max (w.w_last_recv +. se.se_keepalive_idle) w.w_next_ping

(* Probe idle connections; after [keepalive_misses] unanswered probes the
   worker is declared dead and its units reassigned — much sooner than the
   per-unit deadline when a worker is SIGSTOPped or its host vanished. *)
let keepalive_check se now =
  List.iter
    (fun w ->
      if ping_due se w <= now then begin
        if w.w_pings >= se.se_keepalive_misses then
          lose_worker se w (Printf.sprintf "missed %d keepalive pongs" w.w_pings)
        else begin
          w.w_pings <- w.w_pings + 1;
          w.w_next_ping <- now +. se.se_keepalive_idle;
          enqueue_frame w Wire.Ping ~done_:ignore;
          kick se w
        end
      end)
    (live se)

(* Straggler gauge: age of the oldest in-flight unit over the median
   in-flight age, in percent, attributed to the worker holding it.  Needs
   two units in flight to mean anything; emitted only when the rounded
   percentage moves so an idle fleet adds nothing to the trace. *)
let straggler_check se now =
  if match se.se_bus with Some b -> Bus.active b | None -> false then begin
    let ages = ref [] in
    List.iter
      (fun w ->
        Hashtbl.iter
          (fun _ inf -> ages := (now -. inf.if_sent_at, w.w_addr) :: !ages)
          w.w_inflight)
      (live se);
    let ages = List.sort (fun (a, _) (b, _) -> compare b a) !ages in
    match ages with
    | (slowest, worker) :: _ :: _ ->
      let median, _ = List.nth ages (List.length ages / 2) in
      let pct =
        if median <= 1e-6 then 100
        else int_of_float (Float.round (100.0 *. slowest /. median))
      in
      if pct <> se.se_straggler_pct then begin
        se.se_straggler_pct <- pct;
        emit se.se_bus (Event.Straggler { worker; ratio_pct = pct })
      end
    | _ -> ()
  end

(* No worker left: the queued units no worker ever received run on domains
   in this process.  A unit lost along with a worker may be what killed
   it, and a domain shares this process, so it fails instead. *)
let fallback se reason =
  let queue = List.map fst se.se_queue in
  se.se_queue <- [];
  let lost, todo = List.partition (fun j -> j.j_attempt > 0) queue in
  List.iter
    (fun j ->
      settle se j
        (Sweep.Failed
           (Printf.sprintf "worker lost while running it (%s)" j.j_lost_with)))
    lost;
  if todo <> [] then begin
    emit se.se_bus (Event.Dispatch_fallback { reason });
    (* close the dispatcher-side spans before handing over: the domains
       backend opens its own "running" spans for these units *)
    List.iter (fun j -> close_span se j ~ok:true) todo;
    let results =
      Sweep.run
        (Sweep.Backend.domains ?bus:se.se_bus ?store:se.se_store
           ~jobs:se.se_fallback_jobs ())
        (List.map (fun j -> j.j_work) todo)
    in
    List.iter2 (fun j (r : Sweep.result) -> settle se j r.outcome) todo results
  end

(* Send every unit that can go now: eligible queued units into free slots,
   arrival order first, then — with the queue drained — idle slots steal
   (duplicate) the oldest singly-held in-flight unit from another worker:
   a fast worker finishes it while a slow or wedged one is still grinding,
   and whichever result lands first settles the unit.  With no worker
   left, the queue falls back. *)
let pump se =
  (* the last worker died under queued units: ask for the fleet again
     before giving up on it *)
  if se.se_queue <> [] && live se = [] && se.se_ws <> [] then refresh se;
  if se.se_queue <> [] && live se = [] then
    fallback se
      (if se.se_ws <> [] then "all workers lost"
       else
         Printf.sprintf "no reachable workers among [%s]"
           (String.concat ", "
              (List.map addr_to_string (Option.value ~default:[] se.se_addrs))))
  else begin
    let now = Unix.gettimeofday () in
    let free w = w.w_fd <> None && Hashtbl.length w.w_inflight < w.w_slots in
    List.iter
      (fun w ->
        let rec fill () =
          match List.find_opt (fun (_, at) -> at <= now) se.se_queue with
          | Some ((j, _) as e) when free w ->
            se.se_queue <- List.filter (( != ) e) se.se_queue;
            send_unit se w ~stolen:false j;
            fill ()
          | _ -> ()
        in
        fill ())
      se.se_ws;
    let now = Unix.gettimeofday () in
    if se.se_queue = [] then
      List.iter
        (fun thief ->
          let best = ref None in
          if free thief then
            List.iter
              (fun victim ->
                if victim != thief && victim.w_fd <> None then
                  Hashtbl.iter
                    (fun _ inf ->
                      if
                        copies se inf.if_job = 1
                        && now -. inf.if_sent_at >= steal_fraction *. se.se_timeout
                        && match !best with
                           | Some (_, b) -> inf.if_sent_at < b.if_sent_at
                           | None -> true
                      then best := Some (victim, inf))
                    victim.w_inflight)
              se.se_ws;
          Option.iter
            (fun (victim, inf) ->
              emit se.se_bus
                (Event.Steal
                   { unit_label = inf.if_job.j_work.Work.label;
                     from_worker = victim.w_addr; to_worker = thief.w_addr });
              send_unit se thief ~stolen:true inf.if_job)
            !best)
        se.se_ws
  end

(* The earliest moment a worker-side timer fires: an in-flight deadline, a
   backed-off retry becoming eligible, a keepalive probe, or an in-flight
   unit growing old enough to steal.  Other times already past are left
   out: [pump] has just sent everything that could go. *)
let next_timer se now =
  let t = ref infinity in
  let at x = if x > now then t := Float.min !t x in
  List.iter
    (fun w ->
      at (ping_due se w);
      Hashtbl.iter
        (fun _ inf ->
          t := Float.min !t inf.if_deadline;
          at (inf.if_sent_at +. (steal_fraction *. se.se_timeout)))
        w.w_inflight)
    (live se);
  List.iter (fun (_, eligible) -> at eligible) se.se_queue;
  !t

let step se ?timeout fds =
  let settled = se.se_settled in
  pump se;
  let lv = live se in
  let now = Unix.gettimeofday () in
  let wake = next_timer se now in
  let wake = match timeout with Some s -> Float.min wake (now +. s) | None -> wake in
  (* units settled by the pump itself (a fallback, a worker lost on send)
     hand control back at once: their callbacks may have been the caller's
     last wait *)
  let wait =
    if se.se_settled <> settled then 0.0
    else if wake = infinity then -1.0
    else Float.max 0.0 (wake -. now)
  in
  let fd_of w = w.w_fd in
  (* watch for writability only where output is actually queued *)
  let wfds = List.filter_map fd_of (List.filter (fun w -> not (Queue.is_empty w.w_outbox)) lv) in
  let ready, writable =
    match Unix.select (List.filter_map fd_of lv @ fds) wfds [] wait with
    | r, wr, _ -> (r, wr)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
  in
  let on fds f w = match w.w_fd with Some fd when List.memq fd fds -> f fd | _ -> () in
  List.iter (fun w -> on writable (fun _ -> kick se w) w) lv;
  List.iter (fun w -> on ready (drain se w) w) lv;
  let now = Unix.gettimeofday () in
  List.iter
    (fun w ->
      Hashtbl.fold
        (fun _ inf acc -> if inf.if_deadline <= now then Some inf.if_job else acc)
        w.w_inflight None
      |> Option.iter (fun j ->
             lose_worker se w (Printf.sprintf "unit %s timed out" j.j_work.Work.label)))
    (live se);
  keepalive_check se now;
  straggler_check se now;
  List.filter (fun fd -> List.memq fd ready) fds

(* A round of a sweep: add every unit, then step until all settle. *)
let session_run se works =
  let left = ref (List.length works) in
  let outcomes = List.map (fun _ -> ref (Sweep.Failed "not dispatched")) works in
  List.iter2 (fun w o -> add se w (fun r -> o := r; decr left)) works outcomes;
  while !left > 0 do
    ignore (step se [])
  done;
  List.map2 (fun (u : Work.t) o -> { Sweep.label = u.Work.label; outcome = !o }) works outcomes

(* [Sweep.run] is a session of exactly one round: its units take ids from
   0, so the wire ids — and with them every span and trace record — are
   those of a one-shot dispatch. *)
let remote ?bus ?fallback_jobs ?store ?keepalive_idle ?keepalive_misses
    ?(timeout = 60.0) ?(retries = 2) workers : Sweep.Backend.t =
  {
    Sweep.Backend.name =
      Printf.sprintf "remote:%s"
        (String.concat "," (List.map addr_to_string workers));
    session =
      (fun () ->
        let se =
          open_session ?bus ?fallback_jobs ?store ?keepalive_idle
            ?keepalive_misses ~timeout ~retries (fun () -> workers)
        in
        { s_dispatch = session_run se; s_close = (fun () -> close_session se) });
  }

(* --- the loopback fleet ------------------------------------------------- *)

(* A port reservation: a socket bound with SO_REUSEADDR but never
   listening.  The worker's own bind beside it succeeds (it sets
   SO_REUSEADDR too, and neither socket listens yet), while no other
   socket is handed the port in between — not even by the kernel's
   ephemeral choice.  [port] when it is free, else a fresh one. *)
let rec reserve port =
  let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt s Unix.SO_REUSEADDR true;
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.getsockname s
  with
  | Unix.ADDR_INET (_, p) -> (s, p)
  | Unix.ADDR_UNIX _ -> invalid_arg "reserve"
  | exception e ->
    close_quietly s;
    if port = 0 then raise e else reserve 0

let accepts port =
  let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  match Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> true
  | exception Unix.Unix_error _ -> false

type member = {
  mutable m_addr : addr;
  mutable m_pid : int; (* 0 once reaped *)
  mutable m_resv : Unix.file_descr option; (* held until the worker accepts *)
}

type fleet = { f_exe : string; f_members : member list }

let fleet_members f = List.map (fun m -> (m.m_addr, m.m_pid)) f.f_members

let release m =
  Option.iter close_quietly m.m_resv;
  m.m_resv <- None

(* Reaps the member's process when it has exited. *)
let exited m =
  m.m_pid = 0
  ||
  match Unix.waitpid [ Unix.WNOHANG ] m.m_pid with
  | 0, _ -> false
  | _ | (exception Unix.Unix_error _) ->
    m.m_pid <- 0;
    true

let stop m =
  release m;
  if m.m_pid > 0 then begin
    (try Unix.kill m.m_pid Sys.sigkill with Unix.Unix_error _ -> ());
    let rec reap () =
      try ignore (Unix.waitpid [] m.m_pid) with
      | Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | Unix.Unix_error _ -> ()
    in
    reap ();
    m.m_pid <- 0
  end

(* Spawn, not fork: [Unix.create_process] stays legal after the process
   has run a domain, and the worker is a fresh image with nothing of ours
   to copy.  The worker gets the member's old port back while it is
   free. *)
let launch exe m =
  release m;
  let resv, port = reserve m.m_addr.port in
  m.m_resv <- Some resv;
  m.m_addr <- { host = "127.0.0.1"; port };
  m.m_pid <-
    Unix.create_process exe
      [| exe; "worker"; "--listen"; addr_to_string m.m_addr; "-j"; "1"; "--quiet" |]
      Unix.stdin Unix.stdout Unix.stderr

(* Wait until every launched member accepts, then drop its reservation.
   A worker that exits first starts again on a fresh port, twice at
   most. *)
let await exe members =
  let deadline = Unix.gettimeofday () +. 30.0 in
  List.iter
    (fun m ->
      let restarts = ref 2 in
      while not (accepts m.m_addr.port) do
        if exited m then begin
          if !restarts = 0 then
            failwith ("loopback worker exited during start-up: " ^ addr_to_string m.m_addr);
          decr restarts;
          m.m_addr <- { m.m_addr with port = 0 };
          launch exe m
        end
        else if Unix.gettimeofday () > deadline then
          failwith ("loopback worker did not start: " ^ addr_to_string m.m_addr);
        Unix.sleepf 0.002
      done;
      release m)
    members

let stop_fleet f = List.iter stop f.f_members

let start_fleet ~exe jobs =
  let f =
    {
      f_exe = exe;
      f_members =
        List.init (max 1 jobs) (fun _ ->
            { m_addr = { host = "127.0.0.1"; port = 0 }; m_pid = 0; m_resv = None });
    }
  in
  match
    List.iter (launch exe) f.f_members;
    await exe f.f_members
  with
  | () -> f
  | exception e ->
    stop_fleet f;
    raise e

let with_fleet ~exe jobs f =
  let fleet = start_fleet ~exe jobs in
  Fun.protect ~finally:(fun () -> stop_fleet fleet) (fun () -> f fleet)

let fleet_revive f =
  let dead =
    List.filter (fun m -> exited m || not (accepts m.m_addr.port)) f.f_members
  in
  (* a worker still running but no longer accepting is stopped before its
     replacement starts *)
  List.iter
    (fun m ->
      stop m;
      launch f.f_exe m)
    dead;
  await f.f_exe dead;
  List.map (fun m -> m.m_addr) f.f_members

let backend ?bus ?fallback_jobs ?store ~exe spec : Sweep.Backend.t =
  match spec with
  | Serial -> Sweep.Backend.serial ?bus ?store ()
  | Domains { jobs } -> Sweep.Backend.domains ?bus ?store ~jobs ()
  | Remote { workers; timeout; retries } ->
    remote ?bus ?fallback_jobs ?store ~timeout ~retries workers
  | Local { jobs; timeout; retries } ->
    {
      name = Printf.sprintf "local:%d" (max 1 jobs);
      session =
        (fun () ->
          (* one fleet per session: it lives exactly as long as the
             dispatcher's connections to it (opening one connects nothing,
             so it cannot fail) *)
          let fleet = start_fleet ~exe jobs in
          let workers = List.map fst (fleet_members fleet) in
          let s =
            (remote ?bus ?fallback_jobs ?store ~timeout ~retries workers).session ()
          in
          let s_close () = Fun.protect ~finally:(fun () -> stop_fleet fleet) s.s_close in
          { s with s_close });
    }
