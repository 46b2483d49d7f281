type stats = { mutable accesses : int; mutable misses : int }

type entry = { mutable vpn : int; mutable valid : bool; mutable lru : int }

type t = {
  entries : entry array;
  latency : int;
  parent : int -> int;
  stats : stats;
  mutable tick : int;
  mutable last : int;  (* the entry the previous hit found *)
}

let page_bits = 12

let create (geom : Tconfig.tlb_geom) ~parent =
  {
    entries = Array.init geom.entries (fun _ -> { vpn = 0; valid = false; lru = 0 });
    latency = geom.latency;
    parent;
    stats = { accesses = 0; misses = 0 };
    tick = 0;
    last = 0;
  }

let walker (cfg : Tconfig.t) _vpn = cfg.tlb_walk_latency

(* At most one valid entry maps a page: entries are filled only on a miss,
   and [apply] refuses persisted state that breaks the rule.  So a lookup
   may stop at the first match, and returns its index, -1 on a miss; and
   when the previous hit's entry still maps the page, it is the match,
   with no scan (consecutive accesses mostly share a page). *)
let rec find entries vpn i =
  if i >= Array.length entries then -1
  else
    let e = entries.(i) in
    if e.valid && e.vpn = vpn then i else find entries vpn (i + 1)

(* Least recently used entry; the first on a tie. *)
let victim t =
  let entries = t.entries in
  let best = ref entries.(0) in
  for i = 1 to Array.length entries - 1 do
    let e = entries.(i) in
    if e.lru < !best.lru then best := e
  done;
  !best

(* The out-of-line half of [access]: the previous hit's entry does not
   map the page, so search every entry. *)
let[@inline never] access_slow t addr =
  let vpn = addr lsr page_bits in
  t.stats.accesses <- t.stats.accesses + 1;
  t.tick <- t.tick + 1;
  let i = find t.entries vpn 0 in
  if i >= 0 then begin
    t.last <- i;
    t.entries.(i).lru <- t.tick;
    t.latency
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let below = t.parent vpn in
    let v = victim t in
    v.valid <- true;
    v.vpn <- vpn;
    v.lru <- t.tick;
    t.latency + below
  end

(* The hit on the previous hit's entry, inlined into the caller
   (DESIGN.md §8); anything else is [access_slow]'s. *)
let[@inline] access t addr =
  let l = t.entries.(t.last) in
  if l.valid && l.vpn = addr lsr page_bits then begin
    t.stats.accesses <- t.stats.accesses + 1;
    let tick = t.tick + 1 in
    t.tick <- tick;
    l.lru <- tick;
    t.latency
  end
  else access_slow t addr

let second_level (cfg : Tconfig.t) =
  create cfg.l2tlb ~parent:(fun vpn -> walker cfg vpn)

let stats t = t.stats

type persisted = {
  p_entries : (int * bool * int) array;  (* (vpn, valid, lru) *)
  p_tick : int;
  p_accesses : int;
  p_misses : int;
}

let persist t =
  {
    p_entries = Array.map (fun e -> (e.vpn, e.valid, e.lru)) t.entries;
    p_tick = t.tick;
    p_accesses = t.stats.accesses;
    p_misses = t.stats.misses;
  }

let apply t p =
  if Array.length p.p_entries <> Array.length t.entries then
    invalid_arg "Tlb.apply: persisted TLB geometry mismatch";
  let seen = Hashtbl.create (Array.length p.p_entries) in
  Array.iter
    (fun (vpn, valid, _) ->
      if valid then begin
        if Hashtbl.mem seen vpn then
          invalid_arg "Tlb.apply: two valid entries map the same page";
        Hashtbl.add seen vpn ()
      end)
    p.p_entries;
  Array.iteri
    (fun i (vpn, valid, lru) ->
      let e = t.entries.(i) in
      e.vpn <- vpn;
      e.valid <- valid;
      e.lru <- lru)
    p.p_entries;
  t.tick <- p.p_tick;
  t.stats.accesses <- p.p_accesses;
  t.stats.misses <- p.p_misses

let miss_rate t =
  if t.stats.accesses = 0 then 0.0
  else float_of_int t.stats.misses /. float_of_int t.stats.accesses
