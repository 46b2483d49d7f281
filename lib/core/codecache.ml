open Darco_host
module Bus = Darco_obs.Bus
module Event = Darco_obs.Event

(* Host code addresses live in their own region of the address space,
   disjoint from guest data and TOL data. *)
let code_base = 0xC000_0000

type t = {
  tolmem : Tolmem.t;
  stats : Stats.t;
  bus : Bus.t;
  by_pc : (int, Code.region list) Hashtbl.t;
  by_base : (int, Code.region) Hashtbl.t;
  (* region id -> packed form (with its timing descriptors once it ran
     timed); compiled on first execution, dropped when the region dies.
     Ids are dense (they count up from 0), so a chained transfer finds its
     form with one array load. *)
  mutable tcode : Threaded.compiled option array;
  mutable next_id : int;
  mutable next_base : int;
  mutable total_insns : int;
  ibtc_base : int;
  ibtc_entries : int;
}

let create ?(bus = Bus.create ()) (cfg : Config.t) tolmem stats =
  let entries = 1 lsl cfg.ibtc_bits in
  {
    tolmem;
    stats;
    bus;
    by_pc = Hashtbl.create 256;
    by_base = Hashtbl.create 256;
    tcode = [||];
    next_id = 0;
    next_base = code_base;
    total_insns = 0;
    ibtc_base = Tolmem.alloc tolmem (8 * entries);
    ibtc_entries = entries;
  }

let ibtc_base t = t.ibtc_base

let ibtc_clear_entry t i =
  Tolmem.write32 t.tolmem (t.ibtc_base + (8 * i)) 0xFFFFFFFF;
  Tolmem.write32 t.tolmem (t.ibtc_base + (8 * i) + 4) 0

let flush t =
  let regions = Hashtbl.length t.by_base and host_insns = t.total_insns in
  Hashtbl.iter (fun _ (r : Code.region) -> r.invalidated <- true) t.by_base;
  Hashtbl.reset t.by_pc;
  Hashtbl.reset t.by_base;
  Array.fill t.tcode 0 (Array.length t.tcode) None;
  t.total_insns <- 0;
  for i = 0 to t.ibtc_entries - 1 do
    ibtc_clear_entry t i
  done;
  t.stats.code_cache_flushes <- t.stats.code_cache_flushes + 1;
  if Bus.active t.bus then
    Bus.emit t.bus
      ~at:(Stats.guest_total t.stats)
      (Event.Cache_flush { regions; host_insns })

let register t (r : Code.region) =
  let existing = Option.value (Hashtbl.find_opt t.by_pc r.entry_pc) ~default:[] in
  Hashtbl.replace t.by_pc r.entry_pc (r :: existing);
  Hashtbl.replace t.by_base r.base r;
  t.total_insns <- t.total_insns + Array.length r.code

let insert t (cfg : Config.t) (rir : Regionir.t) =
  let alloc = Regalloc.allocate rir in
  let spill_base =
    if alloc.slot_count = 0 then 0 else Tolmem.alloc t.tolmem (8 * alloc.slot_count)
  in
  let code, _exits = Codegen.lower cfg rir ~alloc ~spill_base ~ibtc_base:t.ibtc_base in
  if t.total_insns + Array.length code > cfg.code_cache_capacity then flush t;
  let region =
    {
      Code.id = t.next_id;
      entry_pc = rir.entry_pc;
      mode = rir.mode;
      base = t.next_base;
      code;
      incoming = [];
      invalidated = false;
    }
  in
  t.next_id <- t.next_id + 1;
  t.next_base <- t.next_base + (4 * Array.length code);
  register t region;
  region

(* The first live region of the preferred mode, else the first live one:
   scans of the list that allocate nothing but the result. *)
let rec first_of_mode mode = function
  | [] -> None
  | (r : Code.region) :: rest ->
    if (not r.invalidated) && r.mode = mode then Some r else first_of_mode mode rest

let rec first_alive = function
  | [] -> None
  | (r : Code.region) :: rest -> if r.invalidated then first_alive rest else Some r

let find t ?(prefer_bb = false) pc =
  match Hashtbl.find_opt t.by_pc pc with
  | None -> None
  | Some regions -> (
    match first_of_mode (if prefer_bb then `Bb else `Super) regions with
    | Some _ as r -> r
    | None -> first_alive regions)

let resolve_base t base = Hashtbl.find_opt t.by_base base

let compiled t (r : Code.region) =
  let id = r.id in
  match if id >= 0 && id < Array.length t.tcode then Array.unsafe_get t.tcode id else None with
  | Some c -> c
  | None ->
    let c = Threaded.compile r in
    (* Only an id this cache issued is memoized (a restored region brings
       its id from the snapshot): the memo stays within twice [next_id]. *)
    if id >= 0 && id < t.next_id then begin
      if id >= Array.length t.tcode then begin
        let grown = Array.make (max 256 (2 * t.next_id)) None in
        Array.blit t.tcode 0 grown 0 (Array.length t.tcode);
        t.tcode <- grown
      end;
      t.tcode.(id) <- Some c
    end;
    c

let chain t (e : Code.exit_info) (target : Code.region) =
  e.chain <- Some target;
  target.incoming <- e :: target.incoming;
  t.stats.chains_made <- t.stats.chains_made + 1;
  if Bus.active t.bus then
    Bus.emit t.bus
      ~at:(Stats.guest_total t.stats)
      (Event.Chain_made { pc = target.entry_pc })

let ibtc_index t pc = pc land (t.ibtc_entries - 1)

let ibtc_fill t ~guest_pc (region : Code.region) =
  let addr = t.ibtc_base + (8 * ibtc_index t guest_pc) in
  Tolmem.write32 t.tolmem addr guest_pc;
  Tolmem.write32 t.tolmem (addr + 4) region.base;
  t.stats.ibtc_fills <- t.stats.ibtc_fills + 1;
  if Bus.active t.bus then
    Bus.emit t.bus
      ~at:(Stats.guest_total t.stats)
      (Event.Ibtc_fill { pc = guest_pc })

let invalidate t (r : Code.region) =
  r.invalidated <- true;
  if r.id >= 0 && r.id < Array.length t.tcode then t.tcode.(r.id) <- None;
  List.iter (fun (e : Code.exit_info) -> e.chain <- None) r.incoming;
  r.incoming <- [];
  (match Hashtbl.find_opt t.by_pc r.entry_pc with
  | None -> ()
  | Some regions ->
    Hashtbl.replace t.by_pc r.entry_pc
      (List.filter (fun (x : Code.region) -> x.id <> r.id) regions));
  Hashtbl.remove t.by_base r.base;
  t.total_insns <- t.total_insns - Array.length r.code;
  (* Purge IBTC entries that point into the dead region. *)
  for i = 0 to t.ibtc_entries - 1 do
    let addr = t.ibtc_base + (8 * i) in
    if Tolmem.read32 t.tolmem (addr + 4) = r.base then ibtc_clear_entry t i
  done

let region_count t = Hashtbl.length t.by_base
let total_host_insns t = t.total_insns

(* --- snapshot support ---------------------------------------------------- *)

type persisted = {
  p_regions : Code.region list;
  p_by_pc : (int * int list) list;
  p_next_id : int;
  p_next_base : int;
  p_total_insns : int;
  p_ibtc_base : int;
  p_ibtc_entries : int;
}

let persist t =
  let regions =
    Hashtbl.fold (fun _ r acc -> r :: acc) t.by_base []
    |> List.sort (fun (a : Code.region) b -> compare a.id b.id)
  in
  let by_pc =
    Hashtbl.fold
      (fun pc rs acc -> (pc, List.map (fun (r : Code.region) -> r.id) rs) :: acc)
      t.by_pc []
    |> List.sort compare
  in
  {
    p_regions = regions;
    p_by_pc = by_pc;
    p_next_id = t.next_id;
    p_next_base = t.next_base;
    p_total_insns = t.total_insns;
    p_ibtc_base = t.ibtc_base;
    p_ibtc_entries = t.ibtc_entries;
  }

let unpersist ?(bus = Bus.create ()) tolmem stats p =
  let t =
    {
      tolmem;
      stats;
      bus;
      by_pc = Hashtbl.create 256;
      by_base = Hashtbl.create 256;
      (* Packed forms and timing descriptors are process state, never
         snapshot state: a restored region rebuilds them the first time it
         runs. *)
      tcode = [||];
      next_id = p.p_next_id;
      next_base = p.p_next_base;
      total_insns = p.p_total_insns;
      (* The IBTC table itself lives in TOL memory and travels with the
         memory image; only its address is re-attached here. *)
      ibtc_base = p.p_ibtc_base;
      ibtc_entries = p.p_ibtc_entries;
    }
  in
  let by_id = Hashtbl.create 256 in
  List.iter
    (fun (r : Code.region) ->
      Hashtbl.replace by_id r.id r;
      Hashtbl.replace t.by_base r.base r)
    p.p_regions;
  List.iter
    (fun (pc, ids) ->
      Hashtbl.replace t.by_pc pc (List.map (Hashtbl.find by_id) ids))
    p.p_by_pc;
  t
