type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  let note_row r = List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) r in
  List.iter note_row all;
  let line r =
    r
    |> List.mapi (fun i c -> pad (if i = 0 then Left else Right) widths.(i) c)
    |> String.concat "  "
  in
  let sep = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  String.concat "\n" (line header :: sep :: List.map line rows)

(* One glyph per series, cycling if there are more series than glyphs. *)
let glyphs = [| '#'; '='; '.'; '+'; '~'; ':'; '%'; '@' |]

let stacked_bars ~labels ~series =
  let width = 50 in
  let label_w = List.fold_left (fun acc l -> max acc (String.length l)) 0 labels in
  let buf = Buffer.create 1024 in
  let legend =
    List.mapi
      (fun i (name, _) -> Printf.sprintf "%c=%s" glyphs.(i mod Array.length glyphs) name)
      series
  in
  Buffer.add_string buf ("  legend: " ^ String.concat "  " legend ^ "\n");
  List.iteri
    (fun li label ->
      let vals = List.map (fun (_, arr) -> arr.(li)) series in
      let total = List.fold_left ( +. ) 0.0 vals in
      let bar = Buffer.create width in
      let used = ref 0 in
      List.iteri
        (fun si v ->
          let share = if total = 0.0 then 0.0 else v /. total in
          let n =
            if si = List.length series - 1 then width - !used
            else int_of_float (Float.round (share *. float_of_int width))
          in
          let n = max 0 (min n (width - !used)) in
          Buffer.add_string bar (String.make n glyphs.(si mod Array.length glyphs));
          used := !used + n)
        vals;
      Buffer.add_string buf
        (Printf.sprintf "  %s |%s|\n" (pad Left label_w label) (Buffer.contents bar)))
    labels;
  Buffer.contents buf

let bar_chart ~labels ~values ~unit =
  let vmax = Array.fold_left max 0.0 values in
  let width = 40 in
  let label_w = List.fold_left (fun acc l -> max acc (String.length l)) 0 labels in
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i label ->
      let v = values.(i) in
      let n =
        if vmax = 0.0 then 0 else int_of_float (Float.round (v /. vmax *. float_of_int width))
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s |%s %.2f %s\n" (pad Left label_w label) (String.make n '#') v unit))
    labels;
  Buffer.contents buf
