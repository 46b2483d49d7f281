(* Clocks, order statistics and the pass loop shared by every workload. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs (now_ns () - t0))

(* Nearest-rank percentile of a non-empty list, [p] in [0, 1]. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: empty";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* Repeat [pass] until [seconds] of wall time are spent, and at least
   [min_passes] times, so every reported figure is a median. *)
let repeat ~seconds ?(min_passes = 3) pass =
  let t0 = now_ns () in
  let rec go i acc =
    if i >= min_passes && secs (now_ns () - t0) >= seconds then List.rev acc
    else go (i + 1) (pass i :: acc)
  in
  go 0 []

(* Peak resident set of a process in MB ([VmHWM]). *)
let peak_rss_mb pid =
  match Darco_util.Rss.peak_kb pid with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
