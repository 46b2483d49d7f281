module Jsonx = Darco_obs.Jsonx
module Reg = Darco_obs.Registry
module Table = Darco_util.Table

type view = { metrics : Reg.snapshot; health : Jsonx.t }

let fetch ?timeout addr =
  match Client.scrape ?timeout addr with
  | Error _ as e -> e
  | Ok mjson -> (
    match Client.health ?timeout addr with
    | Error _ as e -> e
    | Ok hjson -> (
      match (Jsonx.parse mjson, Jsonx.parse hjson) with
      | exception Jsonx.Parse_error msg -> Error ("unparseable telemetry: " ^ msg)
      | mdoc, health -> (
        match Reg.of_json mdoc with
        | Error _ as e -> e
        | Ok metrics -> Ok { metrics; health })))

let geti ?(default = 0) k j =
  Option.value ~default (Option.bind (Jsonx.member k j) Jsonx.to_int)

let gets ?(default = "") k j =
  Option.value ~default (Option.bind (Jsonx.member k j) Jsonx.to_str)

let getf ?(default = 0.0) k j =
  match Jsonx.member k j with
  | Some (Jsonx.Float f) -> f
  | Some (Jsonx.Int i) -> float_of_int i
  | _ -> default

let getl k j = match Jsonx.member k j with Some (Jsonx.List l) -> l | _ -> []

let counter_value snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Reg.counters)

(* One screenful: a header line, the campaign table, the worker table and
   a library line — everything the acceptance criteria ask a mid-campaign
   [darco top --once] to show. *)
let render { metrics; health } =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
  let uptime = geti "uptime_s" health in
  add "darco serve %s  protocol v%d  up %dh%02dm%02ds\n"
    (gets ~default:"?" "version" health)
    (geti "protocol" health) (uptime / 3600)
    (uptime mod 3600 / 60) (uptime mod 60);
  add "submissions: %d active, %d completed of %d  clients: %d  pending windows: %d\n"
    (List.length (getl "campaigns" health))
    (geti "completed" health) (geti "submitted" health)
    (geti "clients" health)
    (geti "windows_pending" health);
  let lib = Option.value ~default:Jsonx.Null (Jsonx.member "library" health) in
  add "library: %.0f%% hit-rate (%d hits / %d dispatched), %d checkpoints, %d bytes spilled\n"
    (100.0 *. getf "hit_rate" lib)
    (geti "hits_total" lib) (geti "dispatched_total" lib)
    (geti "checkpoints" lib)
    (geti "spilled_bytes" lib);
  (match getl "campaigns" health with
  | [] -> add "\nno active campaigns\n"
  | cs ->
    let rows =
      List.map
        (fun c ->
          let plan =
            match Jsonx.member "plan" c with
            | Some p ->
              Printf.sprintf "ci %.4f/%.4f r%d" (getf "ci95" p)
                (getf "ci_target" p) (geti "rounds" p)
            | None -> "-"
          in
          [
            string_of_int (geti "seq" c);
            gets "benchmark" c;
            gets "client" c;
            Printf.sprintf "%d/%d" (geti "done" c) (geti "total" c);
            string_of_int (geti "hits" c);
            string_of_int (geti "dispatched" c);
            string_of_int (geti "in_flight" c);
            string_of_int (geti "queued" c);
            plan;
          ])
        cs
    in
    add "\n%s"
      (Table.render
         ~header:
           [
             "sub"; "benchmark"; "client"; "done"; "hits"; "disp"; "infl";
             "queue"; "plan";
           ]
         rows));
  (match getl "workers" health with
  | [] -> add "\nno workers connected yet\n"
  | ws ->
    let rows =
      List.map
        (fun w ->
          [
            gets "addr" w;
            gets "state" w;
            string_of_int (geti "in_flight" w);
            gets "reason" w;
          ])
        ws
    in
    add "\n%s" (Table.render ~header:[ "worker"; "state"; "infl"; "reason" ] rows));
  add "\nevents: %d  straggler: %d%%\n"
    (counter_value metrics "events_total")
    (Option.value ~default:0
       (List.assoc_opt "straggler_ratio_pct" metrics.Reg.gauges));
  Buffer.contents b
