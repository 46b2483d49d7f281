module Bus = Darco_obs.Bus
module Event = Darco_obs.Event
module Clock = Darco_obs.Clock
module Rng = Darco_util.Rng
module Sm = Darco_util.Stats_math

type kind = Fixed | Adaptive

type config = {
  kind : kind;
  ci_target : float;
  max_windows : int;
  round_size : int;
  seed : int;
}

let default =
  { kind = Adaptive; ci_target = 0.02; max_windows = 0; round_size = 4; seed = 42 }

type stop = Ci_target | Budget | Exhausted

let stop_reason = function
  | Ci_target -> "ci_target"
  | Budget -> "budget"
  | Exhausted -> "exhausted"

type stratum = {
  st_phase : int;
  st_population : int;  (* candidates originally in the stratum *)
  mutable st_remaining : int list;  (* unchosen offsets, ascending *)
  mutable st_ipcs : float list;  (* completed, oldest first *)
}

type t = {
  cfg : config;
  bus : Bus.t option;
  rng : Rng.t;
  strata : stratum array;  (* sorted by st_phase, ascending *)
  phase_of : int -> int;
  mutable t_ipcs : float list;  (* all completed, in record order *)
  mutable t_completed : int;
  mutable t_rounds : int;
  mutable t_stop : stop option;
}

let emit t ev =
  match t.bus with
  | Some b when Bus.active b -> Bus.emit b ~at:(Clock.ticks ()) ev
  | _ -> ()

let create ?bus cfg ~candidates ~phase_of =
  let cfg = { cfg with round_size = max 1 cfg.round_size } in
  let candidates = List.sort_uniq compare candidates in
  let by_phase = Hashtbl.create 16 in
  List.iter
    (fun off ->
      let ph = phase_of off in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_phase ph) in
      Hashtbl.replace by_phase ph (off :: prev))
    candidates;
  let strata =
    Hashtbl.fold
      (fun ph offs acc ->
        let offs = List.rev offs (* ascending again *) in
        { st_phase = ph; st_population = List.length offs; st_remaining = offs;
          st_ipcs = [] }
        :: acc)
      by_phase []
    |> List.sort (fun a b -> compare a.st_phase b.st_phase)
    |> Array.of_list
  in
  {
    cfg;
    bus;
    rng = Rng.create cfg.seed;
    strata;
    phase_of;
    t_ipcs = [];
    t_completed = 0;
    t_rounds = 0;
    t_stop = None;
  }

let config t = t.cfg
let completed t = t.t_completed
let rounds t = t.t_rounds
let stopped t = t.t_stop

let candidates_left t =
  Array.fold_left (fun acc st -> acc + List.length st.st_remaining) 0 t.strata

let mean t = Sm.mean t.t_ipcs
let ci95 t = Sm.ci95_halfwidth t.t_ipcs

let ci_target_met t =
  t.cfg.ci_target > 0.0 && t.t_completed >= 2
  &&
  let m = mean t in
  m > 0.0 && ci95 t <= t.cfg.ci_target *. m

let stratum_of t off =
  let ph = t.phase_of off in
  let found = ref None in
  Array.iter (fun st -> if st.st_phase = ph then found := Some st) t.strata;
  !found

let predict t off =
  match stratum_of t off with
  | Some st when st.st_ipcs <> [] -> Sm.mean st.st_ipcs
  | _ -> mean t

let record t results =
  (* sort by offset so folding order — and with it every float
     accumulation downstream — is independent of which backend finished
     which unit first *)
  let results = List.sort (fun (a, _) (b, _) -> compare a b) results in
  List.iter
    (fun (off, ipc) ->
      (match stratum_of t off with
      | Some st -> st.st_ipcs <- st.st_ipcs @ [ ipc ]
      | None -> ());
      t.t_ipcs <- t.t_ipcs @ [ ipc ];
      t.t_completed <- t.t_completed + 1)
    results

(* Remove and return the [j]-th remaining offset of a stratum. *)
let take_nth st j =
  let off = List.nth st.st_remaining j in
  st.st_remaining <- List.filteri (fun k _ -> k <> j) st.st_remaining;
  off

(* Marginal value of giving stratum [i] one more window this round:
   Neyman-style population x sigma weight, discounted by the samples it
   already has (recorded plus picked this round).  Unexplored strata
   borrow the global sigma (or 1.0 while nothing is measured) so they
   get bootstrapped; a measured-steady stratum scores 0 and is left
   alone until everything else is exhausted. *)
let score t picks i st =
  match st.st_remaining with
  | [] -> neg_infinity
  | _ ->
    let n_s = List.length st.st_ipcs + picks.(i) in
    let sigma =
      if List.length st.st_ipcs >= 2 then Sm.sample_stddev st.st_ipcs
      else
        let g = Sm.sample_stddev t.t_ipcs in
        if g > 0.0 then g else 1.0
    in
    float_of_int st.st_population *. sigma /. float_of_int (n_s + 1)

let choose_adaptive t k =
  let picks = Array.make (Array.length t.strata) 0 in
  let chosen = ref [] in
  (try
     for _ = 1 to k do
       (* best-scoring stratum; ties resolve to the lowest phase because
          strata are sorted ascending and > is strict *)
       let best = ref (-1) and best_score = ref neg_infinity in
       Array.iteri
         (fun i st ->
           let s = score t picks i st in
           if s > !best_score then begin
             best := i;
             best_score := s
           end)
         t.strata;
       if !best < 0 || !best_score = neg_infinity then raise Exit;
       let st = t.strata.(!best) in
       let off = take_nth st (Rng.int t.rng (List.length st.st_remaining)) in
       picks.(!best) <- picks.(!best) + 1;
       chosen := off :: !chosen
     done
   with Exit -> ());
  List.rev !chosen

let choose_fixed t k =
  (* all strata merged, ascending offsets: the one-shot sweep's order *)
  let all =
    Array.fold_left (fun acc st -> acc @ st.st_remaining) [] t.strata
    |> List.sort compare
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let chosen = take k all in
  List.iter
    (fun off ->
      match stratum_of t off with
      | Some st -> st.st_remaining <- List.filter (fun o -> o <> off) st.st_remaining
      | None -> ())
    chosen;
  chosen

let stop t reason =
  t.t_stop <- Some reason;
  emit t
    (Event.Plan_stop
       {
         reason = stop_reason reason;
         windows = t.t_completed;
         mean = mean t;
         ci95 = ci95 t;
       });
  []

let next t =
  match t.t_stop with
  | Some _ -> []
  | None ->
    if ci_target_met t then stop t Ci_target
    else if t.cfg.max_windows > 0 && t.t_completed >= t.cfg.max_windows then
      stop t Budget
    else if candidates_left t = 0 then stop t Exhausted
    else begin
      let k = t.cfg.round_size in
      let k =
        if t.cfg.max_windows > 0 then min k (t.cfg.max_windows - t.t_completed)
        else k
      in
      let k = min k (candidates_left t) in
      let chosen =
        match t.cfg.kind with
        | Fixed -> choose_fixed t k
        | Adaptive -> choose_adaptive t k
      in
      if t.cfg.kind = Adaptive then
        List.iter
          (fun off ->
            emit t
              (Event.Plan_predict
                 { offset = off; phase = t.phase_of off; ipc = predict t off }))
          chosen;
      emit t
        (Event.Plan_round
           {
             round = t.t_rounds;
             chosen = List.length chosen;
             completed = t.t_completed;
             mean = mean t;
             ci95 = ci95 t;
           });
      t.t_rounds <- t.t_rounds + 1;
      chosen
    end
