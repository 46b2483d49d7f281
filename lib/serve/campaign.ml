module B = Darco_sampling.Buf
module Store = Darco_sampling.Store

type t = {
  bench : string;
  scale : int;
  seed : int;
  input : string option;
  interval : int;
  horizon : int;
  offsets : int list;
  window : int;
  warmup : int;
  ci_target : float option;
}

let magic = "DCAM"
let version = 1
let version_plan = 2

(* The one normalization of a sweep description: offsets sorted and
   deduplicated, horizon stretched so the last window fits under it.
   [darco sample], [submit] and [fetch] apply it to their flags, and the
   server to every submission. *)
let normalize t =
  let offsets = List.sort_uniq compare t.offsets in
  let horizon =
    List.fold_left (fun acc o -> max acc (o + t.window)) t.horizon offsets
  in
  { t with offsets; horizon }

let validate t =
  if t.scale < 1 then B.corrupt "campaign: scale < 1";
  if t.interval <= 0 then B.corrupt "campaign: interval <= 0";
  if t.window <= 0 then B.corrupt "campaign: window <= 0";
  if t.warmup < 0 then B.corrupt "campaign: warmup < 0";
  (match t.ci_target with
  | Some c when not (c > 0.0) -> B.corrupt "campaign: ci_target <= 0"
  | _ -> ());
  t

(* A campaign with no confidence target still encodes as version 1, so
   every pre-planner frame, golden test and on-the-wire digest keeps its
   exact bytes; only a planned campaign pays the version bump, which
   appends the target. *)
let codec : t B.t =
  let open B in
  let spec =
    record (fun bench scale seed input interval horizon offsets window warmup ->
        { bench; scale; seed; input; interval; horizon; offsets; window; warmup;
          ci_target = None })
    |+ (str, fun t -> t.bench)
    |+ (int, fun t -> t.scale)
    |+ (int, fun t -> t.seed)
    |+ (option str, fun t -> t.input)
    |+ (int, fun t -> t.interval)
    |+ (int, fun t -> t.horizon)
    |+ (list int, fun t -> t.offsets)
    |+ (int, fun t -> t.window)
    |+ (int, fun t -> t.warmup)
    |> seal
  in
  let plain = case version spec Fun.id
  and planned =
    case version_plan (pair spec f64) (fun (t, c) -> { t with ci_target = Some c })
  in
  variant int [ Case plain; Case planned ] (fun t ->
      match t.ci_target with None -> tag plain t | Some c -> tag planned (t, c))
  |> conv Fun.id validate
  |> const tag4 magic

let to_string t = B.encode codec t
let of_string s = B.decode codec s

(* The digest inputs are rendered, not binary-encoded: a one-line canonical
   string is greppable in a trace and trivially stable.  '|' cannot appear
   in the numeric fields and the input is length-prefixed, so the rendering
   is injective. *)
let input_part = function
  | None -> "-"
  | Some s -> Printf.sprintf "%d:%s" (String.length s) s

let config_digest t =
  Store.digest
    (Printf.sprintf "dcfg1|%s|%d|%d|%s|%d|%d" t.bench t.scale t.seed
       (input_part t.input) t.window t.warmup)

let ckpt_digest t =
  Store.digest
    (Printf.sprintf "dckp1|%s|%d|%d|%s|%d|%d" t.bench t.scale t.seed
       (input_part t.input) t.interval t.horizon)

let describe t =
  Printf.sprintf "%s seed %d, %d windows of %d%s" t.bench t.seed
    (List.length t.offsets) t.window
    (match t.ci_target with
    | None -> ""
    | Some c -> Printf.sprintf ", ci target %g" c)
