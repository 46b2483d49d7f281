module B = Darco_sampling.Buf
module Store = Darco_sampling.Store

exception Timeout
exception Closed

let protocol_version = 5
let min_version = 3

(* A checkpoint push carries a whole memory image; generous, but bounded so
   a corrupted length field cannot make us allocate the address space. *)
let max_frame = 1 lsl 28

type msg =
  | Hello of { version : int; slots : int }
  | Ping
  | Pong
  | Work of { id : int; unit_ : string }
  | Result of { id : int; text : string; spans : string }
  | Fail of { id : int; reason : string }
  | Need of { digest : string }
  | Ckpt of { digest : string; bytes : string }
  | Submit of { id : int; sweep : string }
  | Status of {
      id : int;
      state : string;
      done_ : int;
      total : int;
      hits : int;
      dispatched : int;
      uptime_s : int;
      version : string;
    }
  | Artifact of { id : int; key : string; json : string }
  | Done of { id : int; json : string }
  | Metrics of { json : string }
  | Health of { json : string }

(* Every frame is the one [Buf] frame: the tag names the message, and the
   sealed payload carries its fields. *)
let codec : msg B.t =
  let open B in
  let frame tag payload inject = case tag (sealed payload) inject in
  let hello =
    frame "HELO" (pair int int) (fun (version, slots) -> Hello { version; slots })
  and ping = frame "PING" unit (fun () -> Ping)
  and pong = frame "PONG" unit (fun () -> Pong)
  and work = frame "WORK" (pair int str) (fun (id, unit_) -> Work { id; unit_ })
  and result =
    frame "RSLT" (triple int str str) (fun (id, text, spans) ->
        Result { id; text; spans })
  and fail = frame "FAIL" (pair int str) (fun (id, reason) -> Fail { id; reason })
  and need = frame "NEED" Store.digest_codec (fun digest -> Need { digest })
  and ckpt =
    frame "CKPT" (pair Store.digest_codec str) (fun (digest, bytes) ->
        if Store.digest bytes <> digest then
          corrupt "CKPT bytes do not match their digest";
        Ckpt { digest; bytes })
  and submit = frame "SUBM" (pair int str) (fun (id, sweep) -> Submit { id; sweep })
  and status =
    (* v5 uptime/version ride as an optional tail so a default-valued
       Status encodes exactly as it did under v4 (golden fixtures) *)
    frame "STAT"
      (pair (quad int str int int) (triple int int (tail (0, "") (pair int str))))
      (fun ((id, state, done_, total), (hits, dispatched, (uptime_s, version))) ->
        Status { id; state; done_; total; hits; dispatched; uptime_s; version })
  and artifact =
    frame "ARTF" (triple int str str) (fun (id, key, json) -> Artifact { id; key; json })
  and done_ = frame "DONE" (pair int str) (fun (id, json) -> Done { id; json })
  and metrics = frame "METR" str (fun json -> Metrics { json })
  and health = frame "HLTH" str (fun json -> Health { json }) in
  variant tag4
    [ Case hello; Case ping; Case pong; Case work; Case result; Case fail; Case need;
      Case ckpt; Case submit; Case status; Case artifact; Case done_; Case metrics;
      Case health ]
    (function
      | Hello { version; slots } -> tag hello (version, slots)
      | Ping -> tag ping ()
      | Pong -> tag pong ()
      | Work { id; unit_ } -> tag work (id, unit_)
      | Result { id; text; spans } -> tag result (id, text, spans)
      | Fail { id; reason } -> tag fail (id, reason)
      | Need { digest } -> tag need digest
      | Ckpt { digest; bytes } -> tag ckpt (digest, bytes)
      | Submit { id; sweep } -> tag submit (id, sweep)
      | Status { id; state; done_; total; hits; dispatched; uptime_s; version } ->
        tag status ((id, state, done_, total), (hits, dispatched, (uptime_s, version)))
      | Artifact { id; key; json } -> tag artifact (id, key, json)
      | Done { id; json } -> tag done_ (id, json)
      | Metrics { json } -> tag metrics json
      | Health { json } -> tag health json)

let encode msg = B.encode codec msg

let is_closed_error = function
  | Unix.ECONNRESET | Unix.EPIPE | Unix.ECONNABORTED | Unix.ESHUTDOWN -> true
  | _ -> false

(* Park until [fd] is ready for the wanted direction.  Without a deadline
   this waits indefinitely (EINTR restarts the wait); with one, running out
   of budget raises {!Timeout}. *)
let wait_fd ?deadline ~write fd =
  let rec go () =
    let remaining =
      match deadline with
      | None -> -1.0
      | Some t ->
        let r = t -. Unix.gettimeofday () in
        if r <= 0.0 then raise Timeout;
        r
    in
    let reads = if write then [] else [ fd ] in
    let writes = if write then [ fd ] else [] in
    match Unix.select reads writes [] remaining with
    | [], [], _ -> if deadline = None then go () else raise Timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* A reply is often several small frames.  With Nagle's algorithm on, the
   second waits for the peer's delayed ACK, about 40 ms; the setting is an
   optimisation, so a socket that refuses it still works. *)
let no_delay fd = try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let send ?deadline fd msg =
  let s = encode msg in
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_fd ?deadline ~write:true fd;
        go off
      | exception Unix.Unix_error (e, _, _) when is_closed_error e -> raise Closed
  in
  go 0

(* Fill [buf] from [off] to its end. *)
let read_into ?deadline fd buf off =
  let n = Bytes.length buf in
  let rec go off =
    if off < n then begin
      if deadline <> None then wait_fd ?deadline ~write:false fd;
      match Unix.read fd buf off (n - off) with
      | 0 -> raise Closed
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_fd ?deadline ~write:false fd;
        go off
      | exception Unix.Unix_error (e, _, _) when is_closed_error e -> raise Closed
    end
  in
  go off

(* The header comes first, so a corrupted length is refused before the
   payload's buffer is allocated. *)
let recv ?deadline fd =
  let header = Bytes.create B.frame_header_bytes in
  read_into ?deadline fd header 0;
  let len = B.frame_length (Bytes.to_string header) in
  if len < 0 || len > max_frame then
    B.corrupt (Printf.sprintf "frame length %d out of bounds" len);
  let frame = Bytes.extend header 0 len in
  read_into ?deadline fd frame B.frame_header_bytes;
  B.decode codec (Bytes.unsafe_to_string frame)
