let read_whole path =
  (* /proc files report size 0; read incrementally *)
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 1024 in
        let rec go () =
          match input ic chunk 0 1024 with
          | 0 -> Some (Buffer.contents buf)
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          | exception Sys_error _ -> None
        in
        go ())

(* "VmRSS:     1234 kB"-style lines of status/smaps_rollup *)
let field_kb key text =
  let prefix = key ^ ":" in
  let rec scan lines =
    match lines with
    | [] -> None
    | line :: tl ->
      if String.length line > String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then
        let rest = String.sub line (String.length prefix)
                     (String.length line - String.length prefix) in
        let digits = String.to_seq rest
                     |> Seq.filter (function '0' .. '9' -> true | _ -> false)
                     |> String.of_seq in
        int_of_string_opt digits
      else scan tl
  in
  scan (String.split_on_char '\n' text)

let status_kb pid key =
  Option.bind (read_whole (Printf.sprintf "/proc/%d/status" pid)) (field_kb key)

let pss_kb pid =
  Option.bind
    (read_whole (Printf.sprintf "/proc/%d/smaps_rollup" pid))
    (field_kb "Pss")

let rss_kb pid =
  match pss_kb pid with Some _ as s -> s | None -> status_kb pid "VmRSS"

let peak_kb pid = status_kb pid "VmHWM"

let ppid_of pid =
  Option.bind (read_whole (Printf.sprintf "/proc/%d/status" pid))
    (field_kb "PPid")

let descendants root =
  let pids =
    match Sys.readdir "/proc" with
    | exception Sys_error _ -> [||]
    | entries -> entries
  in
  let parent = Hashtbl.create 64 in
  Array.iter
    (fun name ->
      match int_of_string_opt name with
      | None -> ()
      | Some pid -> (
        match ppid_of pid with
        | Some pp -> Hashtbl.replace parent pid pp
        | None -> ()))
    pids;
  let rec is_descendant pid =
    match Hashtbl.find_opt parent pid with
    | Some pp -> pp = root || (pp <> 0 && pp <> pid && is_descendant pp)
    | None -> false
  in
  Hashtbl.fold
    (fun pid _ acc ->
      if pid <> root && is_descendant pid then pid :: acc else acc)
    parent []

let tree_rss_kb root =
  List.fold_left
    (fun acc pid ->
      match rss_kb pid with
      | None -> acc
      | Some kb -> Some (kb + Option.value ~default:0 acc))
    None
    (root :: descendants root)
