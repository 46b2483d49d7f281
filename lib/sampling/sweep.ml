module Jsonx = Darco_obs.Jsonx
module Bus = Darco_obs.Bus
module Span = Darco_obs.Span

type outcome = Ok of Jsonx.t | Failed of string
type result = { label : string; outcome : outcome }

(* Both in-process backends give every unit one "running" span pair on
   host "local", correlated by unit index, and render a raising unit the
   same way — so a sweep produces the same timeline and byte-identical
   JSON whichever of them ran it.  All bus emission happens on the
   calling domain. *)
let span bus sp =
  match bus with
  | Some b when Bus.active b -> Span.emit b sp
  | _ -> ()

let begin_running bus idx (w : Work.t) =
  span bus
    (Span.begin_ ~detail:w.Work.label ~span:"running" ~corr:idx ~host:"local" ())

let end_running bus idx outcome =
  let ok = match outcome with Ok _ -> true | Failed _ -> false in
  span bus (Span.end_ ~ok ~span:"running" ~corr:idx ~host:"local" ())

let outcome_of = function
  | Stdlib.Ok json -> Ok json
  | Stdlib.Error e -> Failed ("worker failed: " ^ Printexc.to_string e)

(* At most [jobs] units in flight on [pool], submitted in input order.
   The pool is a parameter so a session reuses one set of domains across
   rounds instead of respawning them per round. *)
let domains_map pool ?bus ~jobs exec works =
  let items = Array.of_list works in
  let n = Array.length items in
  let outcomes = Array.make n (Failed "not run") in
  let next = ref 0 in
  let submit_one () =
    let idx = !next in
    incr next;
    begin_running bus idx items.(idx);
    Dpool.submit pool ~tag:idx (fun () -> exec items.(idx))
  in
  while !next < n && Dpool.pending pool < jobs do
    submit_one ()
  done;
  while Dpool.pending pool > 0 do
    let idx, res = Dpool.await pool in
    outcomes.(idx) <- outcome_of res;
    end_running bus idx outcomes.(idx);
    if !next < n then submit_one ()
  done;
  List.mapi
    (fun idx (w : Work.t) -> { label = w.Work.label; outcome = outcomes.(idx) })
    works

module Backend = struct
  type nonrec session = {
    s_dispatch : Work.t list -> result list;
    s_close : unit -> unit;
  }

  type nonrec t = { name : string; session : unit -> session }

  let serial ?bus ?store () =
    let exec = Work.exec ?store in
    let dispatch works =
      List.mapi
        (fun idx (w : Work.t) ->
          begin_running bus idx w;
          let outcome =
            outcome_of (match exec w with j -> Stdlib.Ok j | exception e -> Error e)
          in
          end_running bus idx outcome;
          { label = w.Work.label; outcome })
        works
    in
    {
      name = "serial";
      session = (fun () -> { s_dispatch = dispatch; s_close = ignore });
    }

  let domains ?bus ?store ?(jobs = 4) () =
    let jobs = max 1 jobs in
    let exec = Work.exec ?store in
    {
      name = Printf.sprintf "domains:%d" jobs;
      session =
        (fun () ->
          let pool = Dpool.create ~jobs () in
          {
            s_dispatch = domains_map pool ?bus ~jobs exec;
            s_close = (fun () -> Dpool.shutdown pool);
          });
    }
end

let ipc = function
  | Ok json -> Option.bind (Jsonx.member "ipc" json) Jsonx.to_float
  | Failed _ -> None

let with_session (b : Backend.t) f =
  let s = b.Backend.session () in
  Fun.protect ~finally:s.Backend.s_close (fun () -> f s.Backend.s_dispatch)

let run b works = with_session b (fun dispatch -> dispatch works)

(* Rounds are the planner's determinism barrier: it sees a round's IPCs
   only once every unit of it has settled, through [Plan.record], which
   sorts them by offset. *)
let run_plan b plan work =
  with_session b (fun dispatch ->
      let rec rounds acc =
        match Plan.next plan with
        | [] -> List.concat (List.rev acc)
        | offsets ->
          let rows = List.combine offsets (dispatch (List.map work offsets)) in
          Plan.record plan
            (List.filter_map
               (fun (off, r) -> Option.map (fun v -> (off, v)) (ipc r.outcome))
               rows);
          rounds (rows :: acc)
      in
      rounds [])
