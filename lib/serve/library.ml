module B = Darco_sampling.Buf
module Store = Darco_sampling.Store

type t = {
  dir : string;
  store : Store.t;
  (* warm cache of window texts already read (or written) this process;
     key id -> JSON text.  Purely an I/O saver: the disk copy is the
     truth and is fully re-verified whenever this table misses. *)
  windows : (string, string) Hashtbl.t;
}

type key = {
  bench : string;
  cfg : string;
  snap : string;
  offset : int;
  window : int;
  warmup : int;
}

let render k =
  let prefix =
    if String.length k.snap >= 8 then String.sub k.snap 0 8 else k.snap
  in
  Printf.sprintf "%s@%d/%s" k.bench k.offset prefix

let key_string k =
  Printf.sprintf "dart1|%s|%s|%s|%d|%d|%d" k.bench k.cfg k.snap k.offset
    k.window k.warmup

let key_id k = Store.digest (key_string k)

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let create ?bus ?max_bytes ~dir () =
  ensure_dir dir;
  let store =
    Store.create ?bus ~dir:(Filename.concat dir "ckpt") ?max_bytes ()
  in
  { dir; store; windows = Hashtbl.create 64 }

let store t = t.store

(* --- framed artifact files --------------------------------------------- *)

(* Each artifact file is one frame — [tag4 | payload length (i64 LE) |
   CRC-32 (i64 LE) | payload] — written whole to a temporary name and
   renamed into place so a crash mid-write leaves either the old file or
   none, never a torn one. *)

let write_artifact path codec v =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (B.encode codec v));
  Sys.rename tmp path

let read_artifact path codec =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  try B.decode codec s
  with B.Corrupt msg -> B.corrupt (Filename.basename path ^ ": " ^ msg)

(* --- window results ---------------------------------------------------- *)

let window_version = 1
let window_path t id = Filename.concat t.dir (id ^ ".dart")

let key_codec : key B.t =
  B.(
    record (fun bench cfg snap offset window warmup ->
        { bench; cfg; snap; offset; window; warmup })
    |+ (str, fun k -> k.bench)
    |+ (str, fun k -> k.cfg)
    |+ (str, fun k -> k.snap)
    |+ (int, fun k -> k.offset)
    |+ (int, fun k -> k.window)
    |+ (int, fun k -> k.warmup)
    |> seal)

(* The key, the JSON text's content digest, then the text. *)
let window_artifact : (key * string) B.t =
  B.(
    triple key_codec str str
    |> conv
         (fun (k, json) -> (k, Store.digest json, json))
         (fun (k, digest, json) ->
           if Store.digest json <> digest then
             corrupt "window artifact content digest mismatch";
           (k, json))
    |> const int window_version
    |> sealed
    |> const tag4 "DART")

let put_window t k json =
  let id = key_id k in
  write_artifact (window_path t id) window_artifact (k, json);
  Hashtbl.replace t.windows id json

let find_window t k =
  let id = key_id k in
  match Hashtbl.find_opt t.windows id with
  | Some json -> Some json
  | None ->
    let path = window_path t id in
    if not (Sys.file_exists path) then None
    else begin
      let stored, json = read_artifact path window_artifact in
      (* the file name is a digest of the key; a mismatch means the file
         was renamed or the library tampered with — refuse, don't serve a
         wrong window under a right name *)
      if stored <> k then
        B.corrupt
          (Printf.sprintf "%s: window artifact does not match its key"
             (Filename.basename path));
      Hashtbl.replace t.windows id json;
      Some json
    end

(* --- checkpoint sets --------------------------------------------------- *)

let ckpt_version = 1

let ckpt_path t ~bench ~ckpt =
  ignore bench;
  Filename.concat t.dir ("ckpts_" ^ ckpt ^ ".dcki")

(* Benchmark, checkpoint-set digest, then (instruction count, snapshot
   digest) per checkpoint. *)
let ckpt_index =
  B.(
    triple str str (list (pair int str))
    |> const int ckpt_version
    |> sealed
    |> const tag4 "DCKI")

let put_checkpoints t ~bench ~ckpt entries =
  write_artifact (ckpt_path t ~bench ~ckpt) ckpt_index (bench, ckpt, entries)

let find_checkpoints t ~bench ~ckpt =
  let path = ckpt_path t ~bench ~ckpt in
  if not (Sys.file_exists path) then None
  else begin
    let f_bench, f_ckpt, entries = read_artifact path ckpt_index in
    if f_bench <> bench || f_ckpt <> ckpt then
      B.corrupt
        (Printf.sprintf "%s: checkpoint index does not match its key"
           (Filename.basename path));
    (* every snapshot must still resolve: the store may have evicted some
       under its byte budget, and a partial checkpoint set is useless —
       the sweep would silently pick farther-away checkpoints and change
       its warm-up.  Absent any entry, report the whole set missing. *)
    if List.for_all (fun (_, digest) -> Store.mem t.store digest) entries then
      Some entries
    else None
  end
