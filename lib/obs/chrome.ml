type instant = {
  i_name : string;
  i_wall : int;
  i_args : (string * Jsonx.t) list;
}

(* Both lists accumulate in reverse emission order. *)
type t = { mutable spans : Span.t list; mutable instants : instant list }

let create () = { spans = []; instants = [] }

let record t ~at (ev : Event.t) =
  match Span.of_event ev with
  | Some sp -> t.spans <- sp :: t.spans
  | None -> (
    (* dispatch markers become instants on the dispatcher's track; their
       [at] is already the monotonic wall-microsecond stamp *)
    match ev with
    | Event.Worker_up _ | Event.Worker_lost _ | Event.Steal _
    | Event.Ckpt_hit _ | Event.Ckpt_push _ | Event.Dispatch_retry _
    | Event.Dispatch_fallback _
    (* planner decisions land on the same track, so a Perfetto timeline
       shows why each round's windows were chosen and when the early
       exit fired *)
    | Event.Plan_round _ | Event.Plan_predict _ | Event.Plan_stop _ ->
      t.instants <-
        { i_name = Event.name ev; i_wall = at; i_args = Event.fields ev }
        :: t.instants
    | _ -> ())

let attach bus =
  let t = create () in
  Bus.attach bus ~name:"chrome" (record t);
  t

let dispatcher_host = "dispatcher"

let to_json t =
  let spans = List.rev t.spans and instants = List.rev t.instants in
  (* host -> pid, the dispatcher first when present *)
  let pids = Hashtbl.create 4 in
  let next = ref 0 in
  let pid_of host =
    match Hashtbl.find_opt pids host with
    | Some p -> p
    | None ->
      incr next;
      Hashtbl.add pids host !next;
      !next
  in
  if instants <> [] || List.exists (fun (s : Span.t) -> s.Span.host = dispatcher_host) spans
  then ignore (pid_of dispatcher_host);
  List.iter (fun (s : Span.t) -> ignore (pid_of s.Span.host)) spans;
  let base =
    List.fold_left
      (fun acc (s : Span.t) -> min acc s.Span.wall_us)
      (List.fold_left (fun acc i -> min acc i.i_wall) max_int instants)
      spans
  in
  let base = if base = max_int then 0 else base in
  (* (ts, tie-breaker seq, record); microsecond ties within one process
     order by that process's sequence numbers, keeping B/E nested *)
  let entries =
    List.map
      (fun (s : Span.t) ->
        let args =
          match s.Span.phase with
          | Span.B ->
            if s.Span.detail = "" then []
            else [ ("args", Jsonx.Obj [ ("detail", Jsonx.String s.Span.detail) ]) ]
          | Span.E -> [ ("args", Jsonx.Obj [ ("ok", Jsonx.Bool s.Span.ok) ]) ]
        in
        ( s.Span.wall_us - base,
          s.Span.seq,
          Jsonx.Obj
            ([
               ("name", Jsonx.String s.Span.span);
               ("cat", Jsonx.String "darco");
               ( "ph",
                 Jsonx.String
                   (match s.Span.phase with Span.B -> "B" | Span.E -> "E") );
               ("ts", Jsonx.Int (s.Span.wall_us - base));
               ("pid", Jsonx.Int (pid_of s.Span.host));
               ("tid", Jsonx.Int s.Span.corr);
             ]
            @ args) ))
      spans
    @ List.map
        (fun i ->
          ( i.i_wall - base,
            0,
            Jsonx.Obj
              [
                ("name", Jsonx.String i.i_name);
                ("cat", Jsonx.String "darco");
                ("ph", Jsonx.String "i");
                ("s", Jsonx.String "p");
                ("ts", Jsonx.Int (i.i_wall - base));
                ("pid", Jsonx.Int (pid_of dispatcher_host));
                ("tid", Jsonx.Int 0);
                ("args", Jsonx.Obj i.i_args);
              ] ))
        instants
  in
  let entries =
    List.stable_sort
      (fun (t1, s1, _) (t2, s2, _) ->
        match compare t1 t2 with 0 -> compare s1 s2 | c -> c)
      entries
  in
  let metadata =
    Hashtbl.fold
      (fun host pid acc ->
        Jsonx.Obj
          [
            ("name", Jsonx.String "process_name");
            ("ph", Jsonx.String "M");
            ("ts", Jsonx.Int 0);
            ("pid", Jsonx.Int pid);
            ("tid", Jsonx.Int 0);
            ("args", Jsonx.Obj [ ("name", Jsonx.String host) ]);
          ]
        :: acc)
      pids []
  in
  Jsonx.Obj
    [
      ( "traceEvents",
        Jsonx.List (metadata @ List.map (fun (_, _, j) -> j) entries) );
      ("displayTimeUnit", Jsonx.String "ms");
    ]

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Jsonx.to_string (to_json t));
      output_char oc '\n')

(* --- schema validation --------------------------------------------------- *)

let validate j =
  let ( >>= ) r f = match r with Ok v -> f v | Error _ as e -> e in
  (match Jsonx.member "traceEvents" j with
  | Some (Jsonx.List evs) -> Ok evs
  | Some _ -> Error "traceEvents is not a list"
  | None -> Error "document has no traceEvents field")
  >>= fun evs ->
  let str name ev = Option.bind (Jsonx.member name ev) Jsonx.to_str in
  let int name ev = Option.bind (Jsonx.member name ev) Jsonx.to_int in
  (* collect (pid, tid) -> [(ts, order, ph, name)] in document order *)
  let tracks = Hashtbl.create 16 in
  let rec check i = function
    | [] -> Ok ()
    | ev :: tl -> (
      match (str "name" ev, str "ph" ev) with
      | None, _ -> Error (Printf.sprintf "event %d lacks a name" i)
      | _, None -> Error (Printf.sprintf "event %d lacks a ph" i)
      | Some _, Some "M" -> check (i + 1) tl
      | Some name, Some ph -> (
        match (int "ts" ev, int "pid" ev, int "tid" ev) with
        | None, _, _ -> Error (Printf.sprintf "event %d (%s) lacks ts" i name)
        | _, None, _ -> Error (Printf.sprintf "event %d (%s) lacks pid" i name)
        | _, _, None -> Error (Printf.sprintf "event %d (%s) lacks tid" i name)
        | Some ts, Some pid, Some tid ->
          let key = (pid, tid) in
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt tracks key)
          in
          Hashtbl.replace tracks key ((ts, i, ph, name) :: prev);
          check (i + 1) tl))
  in
  check 0 evs >>= fun () ->
  (* per track: time order (stable on document order), then LIFO B/E *)
  let result = ref (Ok ()) in
  Hashtbl.iter
    (fun (pid, tid) entries ->
      if !result = Ok () then begin
        let entries =
          List.stable_sort
            (fun (t1, i1, _, _) (t2, i2, _, _) ->
              match compare t1 t2 with 0 -> compare i1 i2 | c -> c)
            (List.rev entries)
        in
        let stack = ref [] in
        List.iter
          (fun (_, i, ph, name) ->
            if !result = Ok () then
              match ph with
              | "B" -> stack := name :: !stack
              | "E" -> (
                match !stack with
                | top :: rest when top = name -> stack := rest
                | top :: _ ->
                  result :=
                    Error
                      (Printf.sprintf
                         "event %d: E %S closes open span %S on pid %d tid %d"
                         i name top pid tid)
                | [] ->
                  result :=
                    Error
                      (Printf.sprintf
                         "event %d: E %S with no open span on pid %d tid %d" i
                         name pid tid))
              | _ -> ())
          entries;
        (match (!result, !stack) with
        | Ok (), open_ :: _ ->
          result :=
            Error
              (Printf.sprintf "span %S never closed on pid %d tid %d" open_
                 pid tid)
        | _ -> ())
      end)
    tracks;
  !result

let validate_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | text -> (
    match Jsonx.parse text with
    | exception Jsonx.Parse_error m -> Error ("not valid JSON: " ^ m)
    | j -> validate j)
