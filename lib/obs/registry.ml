type counter = int Atomic.t
type gauge = int Atomic.t
type histogram = { hm : Mutex.t; hh : Hist.t }
type cell = C of counter | G of gauge | H of histogram

type t = {
  lock : Mutex.t;
  cells : (string, cell) Hashtbl.t;
  kinds : (string, string) Hashtbl.t; (* family -> exposition kind *)
}

let create () =
  {
    lock = Mutex.create ();
    cells = Hashtbl.create 64;
    kinds = Hashtbl.create 64;
  }

let family name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

let valid_family f =
  String.length f > 0
  && (match f.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       f

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Get-or-register under the registry mutex; the hot path never comes
   back here — callers hold the returned cell. *)
let register t name kind make unwrap =
  let fam = family name in
  if not (valid_family fam) then
    invalid_arg (Printf.sprintf "Registry: bad metric name %S" name);
  if kind = "histogram" && fam <> name then
    invalid_arg (Printf.sprintf "Registry: histogram %S cannot take labels" name);
  locked t (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some cell -> (
        match unwrap cell with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Registry: %S is already a %s" name
               (Option.value ~default:"metric" (Hashtbl.find_opt t.kinds fam))))
      | None ->
        (match Hashtbl.find_opt t.kinds fam with
        | Some k when k <> kind ->
          invalid_arg
            (Printf.sprintf "Registry: family %S is already a %s" fam k)
        | _ -> ());
        Hashtbl.replace t.kinds fam kind;
        let cell, v = make () in
        Hashtbl.replace t.cells name cell;
        v)

let counter t name =
  register t name "counter"
    (fun () ->
      let a = Atomic.make 0 in
      (C a, a))
    (function C a -> Some a | _ -> None)

let gauge t name =
  register t name "gauge"
    (fun () ->
      let a = Atomic.make 0 in
      (G a, a))
    (function G a -> Some a | _ -> None)

let hist t name =
  register t name "histogram"
    (fun () ->
      let h = { hm = Mutex.create (); hh = Hist.create () } in
      (H h, h))
    (function H h -> Some h | _ -> None)

let inc c n = ignore (Atomic.fetch_and_add c n : int)
let set g v = Atomic.set g v

let observe h v =
  Mutex.lock h.hm;
  Hist.add h.hh v;
  Mutex.unlock h.hm

let counter_value c = Atomic.get c
let gauge_value g = Atomic.get g

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  hists : (string * Jsonx.t) list;
}

let snapshot t =
  locked t (fun () ->
      let cs = ref [] and gs = ref [] and hs = ref [] in
      Hashtbl.iter
        (fun name cell ->
          match cell with
          | C a -> cs := (name, Atomic.get a) :: !cs
          | G a -> gs := (name, Atomic.get a) :: !gs
          | H h ->
            Mutex.lock h.hm;
            let j = Hist.to_json h.hh in
            Mutex.unlock h.hm;
            hs := (name, j) :: !hs)
        t.cells;
      let sort l = List.sort (fun (a, _) (b, _) -> compare a b) l in
      { counters = sort !cs; gauges = sort !gs; hists = sort !hs })

let to_json s =
  let sec l = Jsonx.Obj l in
  Jsonx.Obj
    [
      ("counters", sec (List.map (fun (n, v) -> (n, Jsonx.Int v)) s.counters));
      ("gauges", sec (List.map (fun (n, v) -> (n, Jsonx.Int v)) s.gauges));
      ("hists", sec s.hists);
    ]

let of_json j =
  let section name =
    match Jsonx.member name j with
    | Some (Jsonx.Obj kvs) -> Ok kvs
    | None -> Ok []
    | Some _ -> Error (Printf.sprintf "registry snapshot: %S is not an object" name)
  in
  let ints name =
    match section name with
    | Error _ as e -> e
    | Ok kvs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (k, Jsonx.Int v) :: rest -> go ((k, v) :: acc) rest
        | (k, _) :: _ ->
          Error (Printf.sprintf "registry snapshot: %s %S is not an int" name k)
      in
      go [] kvs
  in
  match (ints "counters", ints "gauges", section "hists") with
  | Ok counters, Ok gauges, Ok hists -> Ok { counters; gauges; hists }
  | (Error _ as e), _, _ | _, (Error _ as e), _ | _, _, (Error _ as e) -> e

(* Cumulative Prometheus buckets from the Hist.to_json document. *)
let hist_lines name j =
  let geti k =
    Option.value ~default:0 (Option.bind (Jsonx.member k j) Jsonx.to_int)
  in
  let buckets =
    match Jsonx.member "buckets" j with Some (Jsonx.List l) -> l | _ -> []
  in
  let cum = ref 0 in
  let blines =
    List.filter_map
      (fun b ->
        match (Jsonx.member "le" b, Jsonx.member "n" b) with
        | Some (Jsonx.Int le), Some (Jsonx.Int n) ->
          cum := !cum + n;
          Some (Printf.sprintf "darco_%s_bucket{le=\"%d\"} %d" name le !cum)
        | _ -> None)
      buckets
  in
  blines
  @ [
      Printf.sprintf "darco_%s_bucket{le=\"+Inf\"} %d" name (geti "count");
      Printf.sprintf "darco_%s_sum %d" name (geti "sum");
      Printf.sprintf "darco_%s_count %d" name (geti "count");
    ]

let exposition s =
  (* family -> (kind, series); a series keeps its lines in order, series
     within a family and families overall sort alphabetically *)
  let groups : (string, string * (string * string list) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let push kind (name, lines) =
    let fam = family name in
    let _, r =
      match Hashtbl.find_opt groups fam with
      | Some g -> g
      | None ->
        let g = (kind, ref []) in
        Hashtbl.replace groups fam g;
        g
    in
    r := (name, lines) :: !r
  in
  List.iter
    (fun (n, v) -> push "counter" (n, [ Printf.sprintf "darco_%s %d" n v ]))
    s.counters;
  List.iter
    (fun (n, v) -> push "gauge" (n, [ Printf.sprintf "darco_%s %d" n v ]))
    s.gauges;
  List.iter (fun (n, j) -> push "histogram" (n, hist_lines n j)) s.hists;
  let fams =
    Hashtbl.fold (fun f (k, r) acc -> (f, k, !r) :: acc) groups []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (f, kind, series) ->
      Buffer.add_string buf (Printf.sprintf "# TYPE darco_%s %s\n" f kind);
      List.iter
        (fun (_, lines) ->
          List.iter
            (fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            lines)
        (List.sort (fun (a, _) (b, _) -> compare a b) series))
    fams;
  Buffer.contents buf

let apply t =
  let c = counter t in
  let events = c "events_total"
  and worker_up = c "worker_up_total"
  and worker_lost = c "worker_lost_total"
  and sent = c "dispatch_sent_total"
  and done_ok = c "dispatch_done_total"
  and done_failed = c "dispatch_failed_total"
  and retries = c "dispatch_retries_total"
  and fallbacks = c "dispatch_fallbacks_total"
  and ckpt_pushes = c "ckpt_pushes_total"
  and ckpt_hits = c "ckpt_hits_total"
  and steals = c "steals_total"
  and submissions = c "submissions_total"
  and admitted = c "admitted_units_total"
  and artifact_hits = c "artifact_hits_total"
  and artifact_stores = c "artifact_stores_total"
  and evictions = c "store_evictions_total"
  and plan_rounds = c "plan_rounds_total"
  and plan_stops = c "plan_stops_total" in
  let straggler = gauge t "straggler_ratio_pct" in
  let h_ckpt = hist t "ckpt_push_bytes"
  and h_store = hist t "artifact_store_bytes"
  and h_sent = hist t "dispatch_sent_bytes" in
  (* per-worker gauges appear as workers do; cached so the steady state
     never re-enters the registry mutex *)
  let worker_gauges : (string, gauge) Hashtbl.t = Hashtbl.create 8 in
  let inflight w =
    match Hashtbl.find_opt worker_gauges w with
    | Some g -> g
    | None ->
      let g = gauge t (Printf.sprintf "dispatch_inflight{worker=%S}" w) in
      Hashtbl.replace worker_gauges w g;
      g
  in
  fun ~at:_ (ev : Event.t) ->
    inc events 1;
    match ev with
    (* the simulated machine: counted by [Stats], attributed by [Prof] *)
    | Init _ | Clock_sync _ | Slice_start | Slice_end _ | Interp_block _
    | Interp_step _ | Interp_exec _ | Bb_translated _ | Sb_translated _
    | Region_exec _ | Chain_made _ | Ibtc_miss _ | Ibtc_fill _ | Rollback _
    | Deopt_rebuild _ | Cache_flush _ | Page_install _ | Syscall _
    | Validation _ | Divergence _ | Halt ->
      ()
    | Worker_up _ -> inc worker_up 1
    | Worker_lost { worker; _ } ->
      inc worker_lost 1;
      set (inflight worker) 0
    | Dispatch_sent { bytes; _ } ->
      inc sent 1;
      observe h_sent bytes
    | Dispatch_done { ok; _ } -> inc (if ok then done_ok else done_failed) 1
    | Dispatch_retry _ -> inc retries 1
    | Dispatch_fallback _ -> inc fallbacks 1
    | Ckpt_push { bytes; _ } ->
      inc ckpt_pushes 1;
      observe h_ckpt bytes
    | Ckpt_hit _ -> inc ckpt_hits 1
    | Steal _ -> inc steals 1
    | Dispatch_inflight { worker; in_flight } -> set (inflight worker) in_flight
    | Span_begin _ | Span_end _ -> ()
    | Submit _ -> inc submissions 1
    | Admit { units; _ } -> inc admitted units
    | Artifact_hit _ -> inc artifact_hits 1
    | Artifact_store { bytes; _ } ->
      inc artifact_stores 1;
      observe h_store bytes
    | Store_evict _ -> inc evictions 1
    | Plan_round _ -> inc plan_rounds 1
    | Plan_predict _ -> ()
    | Plan_stop _ -> inc plan_stops 1
    | Straggler { ratio_pct; _ } -> set straggler ratio_pct

let attach bus =
  let t = create () in
  Bus.attach bus ~name:"registry" (apply t);
  t
