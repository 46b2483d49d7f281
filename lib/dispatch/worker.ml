module B = Darco_sampling.Buf
module Work = Darco_sampling.Work
module Store = Darco_sampling.Store
module Dpool = Darco_sampling.Dpool
module Jsonx = Darco_obs.Jsonx
module Span = Darco_obs.Span

let log quiet fmt =
  Printf.ksprintf
    (fun s -> if not quiet then Printf.printf "[worker] %s\n%!" s)
    fmt

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      invalid_arg (Printf.sprintf "cannot resolve host %S" host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found ->
      invalid_arg (Printf.sprintf "cannot resolve host %S" host))

(* A dispatcher that dials while another is being served is answered at
   once with a connection-level [Fail].  Its socket stays open, and what
   it sends is read and dropped, until it hangs up: closing with unread
   bytes would reset the connection, which could destroy the reply.
   [listen] is non-blocking, so an accept that finds the connection
   already gone returns [None] rather than waiting for the next one. *)
let refuse_caller ~quiet listen =
  match Unix.accept listen with
  | cfd, _ ->
    log quiet "refusing a second dispatcher while serving one";
    (try
       Wire.send cfd
         (Wire.Fail { id = -1; reason = "worker busy: serving another dispatcher" })
     with Wire.Closed | Unix.Unix_error _ -> ());
    Some cfd
  | exception Unix.Unix_error _ -> None

(* Read from a refused caller that select found readable (so the read
   cannot block); true until it hangs up. *)
let drain_caller cfd =
  let open_ = try Unix.read cfd (Bytes.create 256) 0 256 > 0 with Unix.Unix_error _ -> false in
  if not open_ then (try Unix.close cfd with Unix.Unix_error _ -> ());
  open_

(* One connection: a select loop multiplexing incoming frames with up to
   [jobs] unit executions on the daemon's domain pool, whose completions
   wake the loop through the pool's pipe.  The pool outlives connections.
   The loop also watches [listen]: a second dispatcher is accepted and
   refused at once, so it fails over instead of waiting out its handshake
   timeout.
   Units whose checkpoint is missing from the store park until the
   dispatcher ships it ([Need] is sent once per digest, no matter how
   many units wait on it).  A malformed frame means the byte stream can
   no longer be trusted, so after a [Fail] courtesy reply the connection
   is dropped — the daemon itself lives on.  An exception in a unit fails
   only that unit. *)
let serve_connection ~quiet ~ident ~pool ~exec ~jobs ~store ~listen fd =
  let runq = Queue.create () in
  let callers = ref [] in
  let parked : (string, (int * Work.t) Queue.t) Hashtbl.t = Hashtbl.create 4 in
  let closed = ref false in
  let send msg = try Wire.send fd msg with Wire.Closed -> closed := true in
  (* Per-unit span log (newest first): "queued" covers enqueue-to-start —
     including any park waiting for a checkpoint push — and "running"
     covers the unit's execution.  The log ships back inside the
     unit's [Result] frame so the dispatcher can merge this machine's
     timeline into its own trace. *)
  let spanlog : (int, Span.t list) Hashtbl.t = Hashtbl.create jobs in
  let log_span id sp =
    Hashtbl.replace spanlog id
      (sp :: Option.value ~default:[] (Hashtbl.find_opt spanlog id))
  in
  let take_spans id =
    let sps = Option.value ~default:[] (Hashtbl.find_opt spanlog id) in
    Hashtbl.remove spanlog id;
    Span.encode_list (List.rev sps)
  in
  let spawn (id, work) =
    log_span id (Span.end_ ~span:"queued" ~corr:id ~host:ident ());
    log_span id (Span.begin_ ~span:"running" ~corr:id ~host:ident ());
    Dpool.submit pool ~tag:id (fun () -> exec work)
  in
  let finish id msg =
    let ok = match msg with Wire.Result _ -> true | _ -> false in
    log_span id (Span.end_ ~ok ~span:"running" ~corr:id ~host:ident ());
    let msg =
      match msg with
      | Wire.Result { id; text; _ } ->
        Wire.Result { id; text; spans = take_spans id }
      | m ->
        (* [Fail] frames carry no span log; drop the unit's record *)
        Hashtbl.remove spanlog id;
        m
    in
    send msg
  in
  let rec reap () =
    match Dpool.try_next pool with
    | None -> ()
    | Some (id, res) ->
      (match res with
      | Stdlib.Ok json ->
        finish id (Wire.Result { id; text = Jsonx.to_string json; spans = "" })
      | Stdlib.Error e ->
        (* worded as the in-process backends word it, so a failed unit
           renders identically on every backend *)
        finish id
          (Wire.Fail { id; reason = "worker failed: " ^ Printexc.to_string e }));
      reap ()
  in
  let enqueue id (work : Work.t) =
    log_span id
      (Span.begin_ ~detail:work.Work.label ~span:"queued" ~corr:id ~host:ident ());
    match Work.digest work with
    | Some d when not (Store.mem store d) ->
      let q =
        match Hashtbl.find_opt parked d with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace parked d q;
          log quiet "missing checkpoint %s; requesting it" d;
          send (Wire.Need { digest = d });
          q
      in
      Queue.push (id, work) q
    | _ -> Queue.push (id, work) runq
  in
  let handle = function
    | Wire.Hello { version = v; slots = _ } when v >= Wire.min_version ->
      (* negotiate downward: speak the older of the two versions (the
         worker conversation is identical across the accepted range) *)
      send
        (Wire.Hello { version = min v Wire.protocol_version; slots = jobs })
    | Wire.Hello { version = v; _ } ->
      log quiet "rejecting protocol version %d (speaking %d)" v
        Wire.protocol_version;
      send
        (Wire.Fail
           {
             id = -1;
             reason =
               Printf.sprintf
                 "protocol version mismatch: worker speaks %d, got %d"
                 Wire.protocol_version v;
           });
      closed := true
    | Wire.Ping -> send Wire.Pong
    | Wire.Work { id; unit_ } -> (
      match Work.of_string unit_ with
      | work ->
        log quiet "unit %d: %s (offset %d, window %d, warmup %d)" id work.label
          work.offset work.window work.warmup;
        enqueue id work
      | exception B.Corrupt m ->
        log quiet "rejecting malformed work unit: %s" m;
        send (Wire.Fail { id; reason = "malformed work unit: " ^ m }))
    | Wire.Ckpt { digest; bytes } -> (
      ignore (Store.add store bytes);
      log quiet "checkpoint %s cached (%d bytes)" digest (String.length bytes);
      match Hashtbl.find_opt parked digest with
      | None -> ()
      | Some q ->
        Hashtbl.remove parked digest;
        Queue.transfer q runq)
    | Wire.Pong | Wire.Result _ | Wire.Fail _ | Wire.Need _ | Wire.Submit _
    | Wire.Status _ | Wire.Artifact _ | Wire.Done _ | Wire.Metrics _
    | Wire.Health _ ->
      send (Wire.Fail { id = -1; reason = "unexpected message; closing connection" });
      closed := true
  in
  while not !closed do
    while (not (Queue.is_empty runq)) && Dpool.pending pool < jobs do
      spawn (Queue.pop runq)
    done;
    let ready =
      let watched = fd :: Dpool.wake_fd pool :: listen :: !callers in
      match Unix.select watched [] [] (-1.0) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if List.mem fd ready then begin
      match Wire.recv fd with
      | msg -> handle msg
      | exception Wire.Closed -> closed := true
      | exception B.Corrupt m ->
        log quiet "malformed frame (%s); dropping connection" m;
        (try Wire.send fd (Wire.Fail { id = -1; reason = "malformed frame: " ^ m })
         with Wire.Closed -> ());
        closed := true
    end
    else begin
      (* callers only while the served connection is quiet: a dispatcher
         that closes and redials shows its unread frames and EOF here
         first, so its new connection waits in the backlog and is served *)
      if List.mem listen ready then
        Option.iter (fun c -> callers := c :: !callers) (refuse_caller ~quiet listen);
      callers := List.filter (fun c -> (not (List.mem c ready)) || drain_caller c) !callers
    end;
    reap ()
  done;
  List.iter (fun c -> try Unix.close c with Unix.Unix_error _ -> ()) !callers;
  (* the dispatcher is gone: domains cannot be killed, so let in-flight
     units run out and discard their results, leaving the pool clean for
     the next connection, which waits in the backlog meanwhile *)
  while Dpool.pending pool > 0 do
    ignore (Dpool.await pool)
  done;
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve ?(quiet = false) ?exec ?ready ?(jobs = 1) ?store_dir ~host ~port () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let jobs = max 1 jobs in
  let store = Store.create ?dir:store_dir () in
  let exec =
    match exec with Some f -> f | None -> fun w -> Work.exec ~store w
  in
  let pool = Dpool.create ~jobs () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (resolve host, port));
  Unix.listen sock 16;
  Option.iter (fun f -> f (Unix.getsockname sock)) ready;
  (* the kernel assigns the port when the caller passed 0: report the
     bound one, in the log and as the span host identity *)
  let bound =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let ident = Printf.sprintf "worker:%s:%d" host bound in
  let plural n = if n = 1 then "" else "s" in
  log quiet "listening on %s:%d (protocol v%d, %d domain slot%s%s)" host bound
    Wire.protocol_version jobs (plural jobs)
    (if Dpool.size pool < jobs then
       Printf.sprintf ", %d domain%s" (Dpool.size pool) (plural (Dpool.size pool))
     else "");
  (* non-blocking, for [refuse_caller]: this loop waits in [select] *)
  Unix.set_nonblock sock;
  let rec accept_loop () =
    (try ignore (Unix.select [ sock ] [] [] (-1.0))
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    match Unix.accept sock with
    | fd, peer ->
      Wire.no_delay fd;
      log quiet "connection from %s"
        (match peer with
        | Unix.ADDR_INET (a, p) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        | Unix.ADDR_UNIX p -> p);
      serve_connection ~quiet ~ident ~pool ~exec ~jobs ~store ~listen:sock fd;
      accept_loop ()
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
      accept_loop ()
  in
  accept_loop ()
