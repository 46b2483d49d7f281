type stats = {
  mutable accesses : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable prefetch_fills : int;
}

(* Each line's state lives in flat arrays of [sets * ways] entries,
   indexed [set * ways + way]: [create] makes a fixed handful of
   allocations whatever the geometry, and a lookup reads no record. *)
type t = {
  name : string;
  geom : Tconfig.cache_geom;
  ways : int;
  tags : int array;
  lru : int array;
  valid : Bytes.t;  (* '\001' for a valid line *)
  dirty : Bytes.t;  (* '\001' for a dirty line *)
  parent : int -> is_write:bool -> int;
  stats : stats;
  mutable tick : int;
  line_bits : int;
  set_bits : int;
  set_mask : int;
}

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create ~name (geom : Tconfig.cache_geom) ~parent =
  if geom.sets < 1 || geom.ways < 1 then invalid_arg (name ^ ": a cache needs a set and a way");
  let n = geom.sets * geom.ways in
  {
    name;
    geom;
    ways = geom.ways;
    tags = Array.make n 0;
    lru = Array.make n 0;
    valid = Bytes.make n '\000';
    dirty = Bytes.make n '\000';
    parent;
    stats = { accesses = 0; misses = 0; writebacks = 0; prefetch_fills = 0 };
    tick = 0;
    line_bits = log2 geom.line;
    set_bits = log2 geom.sets;
    set_mask = geom.sets - 1;
  }

(* The per-access path allocates nothing: a lookup returns the index of
   the first valid way whose tag matches, -1 on a miss. *)
let[@inline] base_of t addr = ((addr lsr t.line_bits) land t.set_mask) * t.ways
let[@inline] tag_of t addr = (addr lsr t.line_bits) lsr t.set_bits

let find t addr =
  let base = base_of t addr and tag = tag_of t addr in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && not (t.tags.(!i) = tag && Bytes.get t.valid !i <> '\000') do
    incr i
  done;
  if !i < stop then !i else -1

(* Least recently used way of the set at [base]; the first on a tie. *)
let victim t base =
  let best = ref base in
  for i = base + 1 to base + t.ways - 1 do
    if t.lru.(i) < t.lru.(!best) then best := i
  done;
  !best

let fill t addr ~dirty =
  let l = victim t (base_of t addr) in
  if Bytes.get t.valid l <> '\000' && Bytes.get t.dirty l <> '\000' then begin
    t.stats.writebacks <- t.stats.writebacks + 1;
    (* Dirty evictions write back to the parent; the latency is off the
       load's critical path and is not charged. *)
    ignore (t.parent 0 ~is_write:true)
  end;
  Bytes.set t.valid l '\001';
  Bytes.set t.dirty l (if dirty then '\001' else '\000');
  t.tags.(l) <- tag_of t addr;
  t.tick <- t.tick + 1;
  t.lru.(l) <- t.tick

(* The out-of-line half of [access]: only a probe that found no way for
   the address reaches it, so it counts a miss without looking again. *)
let[@inline never] miss t addr ~is_write =
  t.stats.accesses <- t.stats.accesses + 1;
  t.stats.misses <- t.stats.misses + 1;
  let below = t.parent addr ~is_write:false in
  fill t addr ~dirty:is_write;
  t.geom.latency + below

(* The hit path, inlined into the caller (DESIGN.md §8): probe the set's
   ways, and on a hit count it, stamp the way and mark a write dirty.
   A miss is [miss]'s.  A set index is masked below the set
   count, which [create] checked is at least 1, so the probe stays inside
   the arrays and reads them without bounds checks. *)
let[@inline] access t addr ~is_write =
  let base = base_of t addr and tag = tag_of t addr in
  let stop = base + t.ways in
  let tags = t.tags and valid = t.valid in
  let i = ref base in
  while
    !i < stop
    && not (Array.unsafe_get tags !i = tag && Bytes.unsafe_get valid !i <> '\000')
  do
    incr i
  done;
  if !i < stop then begin
    let w = !i in
    t.stats.accesses <- t.stats.accesses + 1;
    let tick = t.tick + 1 in
    t.tick <- tick;
    Array.unsafe_set t.lru w tick;
    if is_write then Bytes.unsafe_set t.dirty w '\001';
    t.geom.latency
  end
  else miss t addr ~is_write

let prefetch t addr =
  if find t addr < 0 then begin
    t.stats.prefetch_fills <- t.stats.prefetch_fills + 1;
    ignore (t.parent addr ~is_write:false);
    fill t addr ~dirty:false
  end

let contains t addr = find t addr >= 0

let stats t = t.stats
let name t = t.name

type persisted = {
  p_lines : (int * bool * bool * int) array array;  (* (tag, valid, dirty, lru) *)
  p_tick : int;
  p_accesses : int;
  p_misses : int;
  p_writebacks : int;
  p_prefetch_fills : int;
}

let persist t =
  {
    p_lines =
      Array.init t.geom.sets (fun s ->
          Array.init t.ways (fun w ->
              let i = (s * t.ways) + w in
              (t.tags.(i), Bytes.get t.valid i <> '\000', Bytes.get t.dirty i <> '\000', t.lru.(i))));
    p_tick = t.tick;
    p_accesses = t.stats.accesses;
    p_misses = t.stats.misses;
    p_writebacks = t.stats.writebacks;
    p_prefetch_fills = t.stats.prefetch_fills;
  }

(* Every set is checked before any is written: a ragged state must leave
   the cache as it was. *)
let apply t p =
  if
    Array.length p.p_lines <> t.geom.sets
    || not (Array.for_all (fun ways -> Array.length ways = t.ways) p.p_lines)
  then invalid_arg (t.name ^ ": persisted cache geometry mismatch");
  Array.iteri
    (fun s ways ->
      Array.iteri
        (fun w (tag, valid, dirty, lru) ->
          let i = (s * t.ways) + w in
          t.tags.(i) <- tag;
          Bytes.set t.valid i (if valid then '\001' else '\000');
          Bytes.set t.dirty i (if dirty then '\001' else '\000');
          t.lru.(i) <- lru)
        ways)
    p.p_lines;
  t.tick <- p.p_tick;
  t.stats.accesses <- p.p_accesses;
  t.stats.misses <- p.p_misses;
  t.stats.writebacks <- p.p_writebacks;
  t.stats.prefetch_fills <- p.p_prefetch_fills

let miss_rate t =
  if t.stats.accesses = 0 then 0.0
  else float_of_int t.stats.misses /. float_of_int t.stats.accesses
