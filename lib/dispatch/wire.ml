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

let tag_of = function
  | Hello _ -> "HELO"
  | Ping -> "PING"
  | Pong -> "PONG"
  | Work _ -> "WORK"
  | Result _ -> "RSLT"
  | Fail _ -> "FAIL"
  | Need _ -> "NEED"
  | Ckpt _ -> "CKPT"
  | Submit _ -> "SUBM"
  | Status _ -> "STAT"
  | Artifact _ -> "ARTF"
  | Done _ -> "DONE"
  | Metrics _ -> "METR"
  | Health _ -> "HLTH"

let payload_of = function
  | Hello { version; slots } ->
    let w = B.writer () in
    B.int w version;
    B.int w slots;
    B.contents w
  | Ping | Pong -> ""
  | Work { id; unit_ = s } | Fail { id; reason = s } ->
    let w = B.writer () in
    B.int w id;
    B.str w s;
    B.contents w
  | Result { id; text; spans } ->
    let w = B.writer () in
    B.int w id;
    B.str w text;
    B.str w spans;
    B.contents w
  | Need { digest } ->
    let w = B.writer () in
    B.str w digest;
    B.contents w
  | Ckpt { digest; bytes } ->
    let w = B.writer () in
    B.str w digest;
    B.str w bytes;
    B.contents w
  | Submit { id; sweep = s } | Done { id; json = s } ->
    let w = B.writer () in
    B.int w id;
    B.str w s;
    B.contents w
  | Status { id; state; done_; total; hits; dispatched; uptime_s; version } ->
    let w = B.writer () in
    B.int w id;
    B.str w state;
    B.int w done_;
    B.int w total;
    B.int w hits;
    B.int w dispatched;
    (* v5 uptime/version ride as an optional tail so a default-valued
       Status encodes exactly as it did under v4 (golden fixtures) *)
    if uptime_s <> 0 || version <> "" then begin
      B.int w uptime_s;
      B.str w version
    end;
    B.contents w
  | Artifact { id; key; json } ->
    let w = B.writer () in
    B.int w id;
    B.str w key;
    B.str w json;
    B.contents w
  | Metrics { json } | Health { json } ->
    let w = B.writer () in
    B.str w json;
    B.contents w

let encode msg =
  let payload = payload_of msg in
  let w = B.writer () in
  B.tag4 w (tag_of msg);
  B.int w (String.length payload);
  B.int w (B.crc32 payload);
  B.raw w payload;
  B.contents w

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

let read_exact ?deadline fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Bytes.unsafe_to_string buf
    else begin
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
  go 0

let header_bytes = 4 + 8 + 8 (* tag, payload length, payload CRC *)

let recv ?deadline fd =
  let r = B.reader (read_exact ?deadline fd header_bytes) in
  let tag = B.read_tag4 r in
  let len = B.read_int r in
  let crc = B.read_int r in
  if len < 0 || len > max_frame then
    B.corrupt (Printf.sprintf "frame length %d out of bounds" len);
  let payload = read_exact ?deadline fd len in
  if B.crc32 payload <> crc then B.corrupt "frame checksum mismatch";
  match tag with
  | "HELO" ->
    let r = B.reader payload in
    let version = B.read_int r in
    let slots = B.read_int r in
    B.expect_end r;
    Hello { version; slots }
  | "PING" -> if payload = "" then Ping else B.corrupt "PING carries a payload"
  | "PONG" -> if payload = "" then Pong else B.corrupt "PONG carries a payload"
  | "WORK" ->
    let r = B.reader payload in
    let id = B.read_int r in
    let unit_ = B.read_str r in
    B.expect_end r;
    Work { id; unit_ }
  | "RSLT" ->
    let r = B.reader payload in
    let id = B.read_int r in
    let text = B.read_str r in
    let spans = B.read_str r in
    B.expect_end r;
    Result { id; text; spans }
  | "FAIL" ->
    let r = B.reader payload in
    let id = B.read_int r in
    let reason = B.read_str r in
    B.expect_end r;
    Fail { id; reason }
  | "NEED" ->
    let r = B.reader payload in
    let digest = B.read_str r in
    B.expect_end r;
    if not (Store.is_digest digest) then
      B.corrupt (Printf.sprintf "NEED carries malformed digest %S" digest);
    Need { digest }
  | "CKPT" ->
    let r = B.reader payload in
    let digest = B.read_str r in
    let bytes = B.read_str r in
    B.expect_end r;
    if not (Store.is_digest digest) then
      B.corrupt (Printf.sprintf "CKPT carries malformed digest %S" digest);
    if Store.digest bytes <> digest then
      B.corrupt "CKPT bytes do not match their digest";
    Ckpt { digest; bytes }
  | "SUBM" ->
    let r = B.reader payload in
    let id = B.read_int r in
    let sweep = B.read_str r in
    B.expect_end r;
    Submit { id; sweep }
  | "STAT" ->
    let r = B.reader payload in
    let id = B.read_int r in
    let state = B.read_str r in
    let done_ = B.read_int r in
    let total = B.read_int r in
    let hits = B.read_int r in
    let dispatched = B.read_int r in
    let uptime_s, version =
      if B.at_end r then (0, "")
      else
        let u = B.read_int r in
        let v = B.read_str r in
        (u, v)
    in
    B.expect_end r;
    Status { id; state; done_; total; hits; dispatched; uptime_s; version }
  | "ARTF" ->
    let r = B.reader payload in
    let id = B.read_int r in
    let key = B.read_str r in
    let json = B.read_str r in
    B.expect_end r;
    Artifact { id; key; json }
  | "DONE" ->
    let r = B.reader payload in
    let id = B.read_int r in
    let json = B.read_str r in
    B.expect_end r;
    Done { id; json }
  | "METR" ->
    let r = B.reader payload in
    let json = B.read_str r in
    B.expect_end r;
    Metrics { json }
  | "HLTH" ->
    let r = B.reader payload in
    let json = B.read_str r in
    B.expect_end r;
    Health { json }
  | other -> B.corrupt (Printf.sprintf "unknown frame tag %S" other)
