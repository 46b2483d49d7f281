module B = Buf
module Jsonx = Darco_obs.Jsonx

type ckpt =
  | Inline of string
  | Stored of string

type t = {
  label : string;
  ckpt : ckpt;
  offset : int;
  window : int;
  warmup : int;
}

let magic = "DWRK"
let version = 2

let check_params ~window ~warmup who =
  if window <= 0 then invalid_arg (who ^ ": window <= 0");
  if warmup < 0 then invalid_arg (who ^ ": warmup < 0")

let checkpoint_for ix ~offset ~warmup =
  Driver.nearest_ix ix (max 0 (offset - warmup))

let pick_checkpoint ~checkpoints ~offset ~warmup =
  checkpoint_for (Driver.index_of (fun ck -> ck.Driver.at) checkpoints) ~offset ~warmup

let of_window ~checkpoints ~label ~offset ~window ~warmup =
  check_params ~window ~warmup "Work.of_window";
  let ck = pick_checkpoint ~checkpoints ~offset ~warmup in
  {
    label;
    ckpt = Inline (Snapshot.to_string ck.Driver.snapshot);
    offset;
    window;
    warmup;
  }

let of_window_stored ~store ~checkpoints ~label ~offset ~window ~warmup =
  check_params ~window ~warmup "Work.of_window_stored";
  let ck = pick_checkpoint ~checkpoints ~offset ~warmup in
  let d = Store.add store (Snapshot.to_string ck.Driver.snapshot) in
  { label; ckpt = Stored d; offset; window; warmup }

let of_window_digest ~checkpoints ~label ~offset ~window ~warmup =
  check_params ~window ~warmup "Work.of_window_digest";
  let _, d = checkpoint_for checkpoints ~offset ~warmup in
  { label; ckpt = Stored d; offset; window; warmup }

let digest t = match t.ckpt with Inline _ -> None | Stored d -> Some d

(* Both versions share the payload layout: label and window parameters,
   then the embedded snapshot bytes (version 1 — the exact layout the
   original writer produced) or the checkpoint digest (version 2).  Per
   the compatibility policy, the version-1 case is frozen: it is only ever
   joined by new cases, never edited. *)
let codec : t B.t =
  let open B in
  let params = quad str int int int in
  let unit_ ckpt (label, offset, window, warmup) =
    if window <= 0 then corrupt "work unit has non-positive window";
    if warmup < 0 then corrupt "work unit has negative warmup";
    { label; ckpt; offset; window; warmup }
  in
  let inline = case 1 (sealed (pair params str)) (fun (p, s) -> unit_ (Inline s) p)
  and stored =
    case version (sealed (pair params Store.digest_codec)) (fun (p, d) ->
        unit_ (Stored d) p)
  in
  const tag4 magic
    (variant u8 [ Case inline; Case stored ] (fun t ->
         let p = (t.label, t.offset, t.window, t.warmup) in
         match t.ckpt with Inline s -> tag inline (p, s) | Stored d -> tag stored (p, d)))

let to_string t = B.encode codec t
let of_string s = B.decode codec s

let snapshot_bytes ?store t =
  match t.ckpt with
  | Inline bytes -> bytes
  | Stored d -> (
    let found = Option.map (fun s -> Store.find s d) store in
    match found with
    | Some (Some bytes) -> bytes
    | Some None ->
      failwith (Printf.sprintf "checkpoint %s not in the store" d)
    | None ->
      failwith
        (Printf.sprintf
           "work unit %s references checkpoint %s but no store is available"
           t.label d))

let exec ?store t =
  let snap = Snapshot.of_string (snapshot_bytes ?store t) in
  let checkpoints = [ { Driver.at = Snapshot.retired snap; snapshot = snap } ] in
  Driver.window_json
    (Driver.detailed_window ~warmup:t.warmup ~checkpoints ~offset:t.offset
       ~window:t.window ())
