module B = Darco_sampling.Buf
module Wire = Darco_dispatch.Wire

type stats = { done_ : int; total : int; hits : int; dispatched : int }
type info = { uptime_s : int; version : string }

let zero_stats = { done_ = 0; total = 0; hits = 0; dispatched = 0 }

(* Open, handshake (the server must speak at least [need], default v4),
   run [f], close.  Every failure mode becomes an [Error text]. *)
let with_server ?(need = 4) ~deadline (addr : Darco_dispatch.addr) f =
  match Darco_dispatch.Worker.resolve addr.host with
  | exception Invalid_argument msg -> Error msg
  | inet -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    match
      Unix.connect fd (Unix.ADDR_INET (inet, addr.port));
      Wire.no_delay fd;
      Unix.set_nonblock fd;
      Wire.send ~deadline fd
        (Wire.Hello { version = Wire.protocol_version; slots = 0 });
      Wire.recv ~deadline fd
    with
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "%s:%d: %s" addr.host addr.port (Unix.error_message e))
    | exception Wire.Closed -> Error "server closed the connection"
    | exception Wire.Timeout -> Error "timed out talking to the server"
    | exception B.Corrupt msg -> Error ("corrupt frame: " ^ msg)
    | Wire.Hello { version; _ } when version >= need -> (
      match f fd with
      | r -> r
      | exception Wire.Closed -> Error "server closed the connection"
      | exception Wire.Timeout -> Error "timed out talking to the server"
      | exception B.Corrupt msg -> Error ("corrupt frame: " ^ msg)
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
    | Wire.Hello { version; _ } ->
      Error
        (Printf.sprintf
           "server speaks protocol v%d; this conversation needs v%d" version
           need)
    | Wire.Fail { reason; _ } -> Error reason
    | _ -> Error "unexpected handshake reply")

let submit ?(timeout = 3600.0) ?on_artifact addr spec =
  let deadline = Unix.gettimeofday () +. timeout in
  with_server ~deadline addr @@ fun fd ->
  Wire.send ~deadline fd
    (Wire.Submit { id = 1; sweep = Campaign.to_string spec });
  let stats = ref zero_stats in
  let rec loop () =
    match Wire.recv ~deadline fd with
    | Wire.Status { id = 1; state = _; done_; total; hits; dispatched; _ } ->
      stats := { done_; total; hits; dispatched };
      loop ()
    | Wire.Artifact { id = 1; key; json } ->
      Option.iter (fun f -> f ~key ~json) on_artifact;
      loop ()
    | Wire.Done { id = 1; json } -> Ok (!stats, json)
    | Wire.Fail { reason; _ } -> Error reason
    | Wire.Ping ->
      Wire.send ~deadline fd Wire.Pong;
      loop ()
    | _ -> Error "unexpected frame from server"
  in
  loop ()

let status ?(timeout = 30.0) addr =
  let deadline = Unix.gettimeofday () +. timeout in
  with_server ~deadline addr @@ fun fd ->
  Wire.send ~deadline fd
    (Wire.Status
       {
         id = -1;
         state = "";
         done_ = 0;
         total = 0;
         hits = 0;
         dispatched = 0;
         uptime_s = 0;
         version = "";
       });
  match Wire.recv ~deadline fd with
  | Wire.Status { id = -1; state; done_; total; hits; dispatched; uptime_s;
                  version } ->
    Ok (state, { done_; total; hits; dispatched }, { uptime_s; version })
  | Wire.Fail { reason; _ } -> Error reason
  | _ -> Error "unexpected frame from server"

(* v5 telemetry: one round trip each; the reply carries one JSON string. *)
let telemetry ~health ?(timeout = 30.0) addr =
  let deadline = Unix.gettimeofday () +. timeout in
  with_server ~need:5 ~deadline addr @@ fun fd ->
  Wire.send ~deadline fd
    (if health then Wire.Health { json = "" } else Wire.Metrics { json = "" });
  match Wire.recv ~deadline fd with
  | Wire.Health { json } when health -> Ok json
  | Wire.Metrics { json } when not health -> Ok json
  | Wire.Fail { reason; _ } -> Error reason
  | _ -> Error "unexpected frame from server"

let scrape = telemetry ~health:false
let health = telemetry ~health:true

let fetch ?(timeout = 60.0) addr spec ~offset =
  let deadline = Unix.gettimeofday () +. timeout in
  with_server ~deadline addr @@ fun fd ->
  Wire.send ~deadline fd
    (Wire.Artifact { id = offset; key = Campaign.to_string spec; json = "" });
  match Wire.recv ~deadline fd with
  | Wire.Artifact { id; json; _ } when id = offset ->
    Ok (if json = "" then None else Some json)
  | Wire.Fail { reason; _ } -> Error reason
  | _ -> Error "unexpected frame from server"
