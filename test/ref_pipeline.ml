(* Reference model of the timing pipeline: the list-based, allocating
   implementation the production [Darco_timing] modules replaced, kept
   verbatim in behaviour as an oracle.  The differential test in
   test_timing.ml feeds it and [Darco_timing.Pipeline] the same retire
   streams and requires equal [persist], [summary] and [events].  It reads
   only the public records of [Darco_timing], so a drift in any fast path
   (operand sets, cache and TLB lookups, predictor, prefetcher, rings)
   shows up as a difference. *)

open Darco_host
module T = Darco_timing

(* --- the per-instruction retire record ------------------------------------ *)

(* One retired host instruction as a record, the shape the walker streamed
   before it appended to [Retire] batches.  The reference model steps on
   records; [add] packs the same instruction into a batch entry for
   [Darco_timing.Pipeline.consume]. *)
type retire_info = {
  host_pc : int;
  insn : Code.insn;
  mem_access : (int * [ `Load | `Store ]) option;  (* effective address *)
  branch : (bool * int) option;  (* taken?, target host PC *)
}

(* --- operand sets, as lists ---------------------------------------------- *)

module Operands = struct
  open Code

  let strip = List.filter (fun r -> r <> 0)

  let defs = function
    | Li (rd, _) | Bin (_, rd, _, _) | Bini (_, rd, _, _)
    | Load (_, _, rd, _, _) | Sload (_, _, rd, _, _)
    | Fcmp (rd, _, _) | Cvtfi (rd, _) | Mkfl (_, rd, _, _, _) | Isel (rd, _, _, _) ->
      strip [ rd ]
    | Callrt_div { q; r; _ } -> strip [ q; r ]
    | Nop | Store _ | Fli _ | Fmov _ | Fbin _ | Fun _ | Fload _ | Fstore _ | Cvtif _
    | Callrt_f _ | B _ | J _ | Jr _ | Assert _ | Chk | Commit _ | Exit _ ->
      []

  let uses = function
    | Bin (_, _, ra, rb) | B (_, ra, rb, _) | Assert (_, ra, rb) -> strip [ ra; rb ]
    | Mkfl (_, _, ra, rb, rc) -> strip [ ra; rb; rc ]
    | Isel (_, rc, ra, rb) -> strip [ rc; ra; rb ]
    | Bini (_, _, ra, _) | Load (_, _, _, ra, _) | Sload (_, _, _, ra, _)
    | Fload (_, ra, _) | Cvtif (_, ra) ->
      strip [ ra ]
    | Store (_, rv, ra, _) -> strip [ rv; ra ]
    | Fstore (_, ra, _) -> strip [ ra ]
    | Jr (ra, rg) -> strip [ ra; rg ]
    | Callrt_div { hi; lo; d; _ } -> strip [ hi; lo; d ]
    | Exit e -> (match e.kind with Exit_indirect r -> strip [ r ] | _ -> [])
    | Nop | Li _ | Fli _ | Fmov _ | Fbin _ | Fun _ | Fcmp _ | Cvtfi _ | Callrt_f _ | J _
    | Chk | Commit _ ->
      []

  let fdefs = function
    | Fli (fd, _) | Fmov (fd, _) | Fbin (_, fd, _, _) | Fun (_, fd, _) | Fload (fd, _, _)
    | Cvtif (fd, _) | Callrt_f (_, fd, _) ->
      [ fd ]
    | Nop | Li _ | Bin _ | Bini _ | Load _ | Sload _ | Store _ | Fstore _ | Fcmp _
    | Cvtfi _ | Mkfl _ | Isel _ | Callrt_div _ | B _ | J _ | Jr _ | Assert _ | Chk
    | Commit _ | Exit _ ->
      []

  let fuses = function
    | Fmov (_, fs) | Fun (_, _, fs) | Cvtfi (_, fs) | Callrt_f (_, _, fs) -> [ fs ]
    | Fbin (_, _, fa, fb) | Fcmp (_, fa, fb) -> [ fa; fb ]
    | Fstore (fv, _, _) -> [ fv ]
    | Nop | Li _ | Bin _ | Bini _ | Load _ | Sload _ | Store _ | Fli _ | Fload _ | Cvtif _
    | Mkfl _ | Isel _ | Callrt_div _ | B _ | J _ | Jr _ | Assert _ | Chk | Commit _
    | Exit _ ->
      []
end

(* --- cache --------------------------------------------------------------- *)

module Cache = struct
  type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

  type t = {
    geom : T.Tconfig.cache_geom;
    sets : line array array;
    parent : int -> is_write:bool -> int;
    stats : T.Cache.stats;
    mutable tick : int;
    line_bits : int;
    set_bits : int;
    set_mask : int;
  }

  let log2 n =
    let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
    go 0 1

  let create (geom : T.Tconfig.cache_geom) ~parent =
    {
      geom;
      sets =
        Array.init geom.sets (fun _ ->
            Array.init geom.ways (fun _ -> { tag = 0; valid = false; dirty = false; lru = 0 }));
      parent;
      stats = { accesses = 0; misses = 0; writebacks = 0; prefetch_fills = 0 };
      tick = 0;
      line_bits = log2 geom.line;
      set_bits = log2 geom.sets;
      set_mask = geom.sets - 1;
    }

  let locate t addr =
    let block = addr lsr t.line_bits in
    let set = t.sets.(block land t.set_mask) in
    let tag = block lsr t.set_bits in
    (set, tag)

  let find_way set tag =
    let n = Array.length set in
    let rec go i =
      if i >= n then None
      else if set.(i).valid && set.(i).tag = tag then Some set.(i)
      else go (i + 1)
    in
    go 0

  let victim set =
    Array.fold_left (fun best l -> if l.lru < best.lru then l else best) set.(0) set

  let fill t set tag ~dirty =
    let l = victim set in
    if l.valid && l.dirty then begin
      t.stats.writebacks <- t.stats.writebacks + 1;
      ignore (t.parent 0 ~is_write:true)
    end;
    l.valid <- true;
    l.dirty <- dirty;
    l.tag <- tag;
    t.tick <- t.tick + 1;
    l.lru <- t.tick

  let access t addr ~is_write =
    t.stats.accesses <- t.stats.accesses + 1;
    let set, tag = locate t addr in
    match find_way set tag with
    | Some l ->
      t.tick <- t.tick + 1;
      l.lru <- t.tick;
      if is_write then l.dirty <- true;
      t.geom.latency
    | None ->
      t.stats.misses <- t.stats.misses + 1;
      let below = t.parent addr ~is_write:false in
      fill t set tag ~dirty:is_write;
      t.geom.latency + below

  let prefetch t addr =
    let set, tag = locate t addr in
    match find_way set tag with
    | Some _ -> ()
    | None ->
      t.stats.prefetch_fills <- t.stats.prefetch_fills + 1;
      ignore (t.parent addr ~is_write:false);
      fill t set tag ~dirty:false

  let miss_rate t =
    if t.stats.accesses = 0 then 0.0
    else float_of_int t.stats.misses /. float_of_int t.stats.accesses

  let persist t : T.Cache.persisted =
    {
      p_lines = Array.map (Array.map (fun l -> (l.tag, l.valid, l.dirty, l.lru))) t.sets;
      p_tick = t.tick;
      p_accesses = t.stats.accesses;
      p_misses = t.stats.misses;
      p_writebacks = t.stats.writebacks;
      p_prefetch_fills = t.stats.prefetch_fills;
    }
end

(* --- TLB: full scan, no early exit ---------------------------------------- *)

module Tlb = struct
  type entry = { mutable vpn : int; mutable valid : bool; mutable lru : int }

  type t = {
    entries : entry array;
    latency : int;
    parent : int -> int;
    stats : T.Tlb.stats;
    mutable tick : int;
  }

  let page_bits = 12

  let create (geom : T.Tconfig.tlb_geom) ~parent =
    {
      entries = Array.init geom.entries (fun _ -> { vpn = 0; valid = false; lru = 0 });
      latency = geom.latency;
      parent;
      stats = { accesses = 0; misses = 0 };
      tick = 0;
    }

  let access t addr =
    let vpn = addr lsr page_bits in
    t.stats.accesses <- t.stats.accesses + 1;
    t.tick <- t.tick + 1;
    let hit =
      Array.fold_left
        (fun acc e ->
          if e.valid && e.vpn = vpn then begin
            e.lru <- t.tick;
            true
          end
          else acc)
        false t.entries
    in
    if hit then t.latency
    else begin
      t.stats.misses <- t.stats.misses + 1;
      let below = t.parent vpn in
      let v =
        Array.fold_left (fun best e -> if e.lru < best.lru then e else best) t.entries.(0)
          t.entries
      in
      v.valid <- true;
      v.vpn <- vpn;
      v.lru <- t.tick;
      t.latency + below
    end

  let second_level (cfg : T.Tconfig.t) =
    create cfg.l2tlb ~parent:(fun _ -> cfg.tlb_walk_latency)

  let miss_rate t =
    if t.stats.accesses = 0 then 0.0
    else float_of_int t.stats.misses /. float_of_int t.stats.accesses

  let persist t : T.Tlb.persisted =
    {
      p_entries = Array.map (fun e -> (e.vpn, e.valid, e.lru)) t.entries;
      p_tick = t.tick;
      p_accesses = t.stats.accesses;
      p_misses = t.stats.misses;
    }
end

(* --- branch predictor ------------------------------------------------------ *)

module Predictor = struct
  type t = {
    pht : int array;
    mutable ghr : int;
    ghr_mask : int;
    btb_tag : int array;
    btb_target : int array;
    btb_mask : int;
    stats : T.Predictor.stats;
  }

  let create (cfg : T.Tconfig.t) =
    let pht_size = 1 lsl cfg.gshare_bits in
    {
      pht = Array.make pht_size 2;
      ghr = 0;
      ghr_mask = pht_size - 1;
      btb_tag = Array.make cfg.btb_entries (-1);
      btb_target = Array.make cfg.btb_entries 0;
      btb_mask = cfg.btb_entries - 1;
      stats = { branches = 0; mispredicts = 0; btb_misses = 0 };
    }

  let pht_index t pc = (pc lsr 2) lxor t.ghr land t.ghr_mask
  let btb_index t pc = (pc lsr 2) land t.btb_mask

  let predict t ~pc =
    let taken = t.pht.(pht_index t pc) >= 2 in
    let i = btb_index t pc in
    let target = if t.btb_tag.(i) = pc then Some t.btb_target.(i) else None in
    (taken, target)

  let update t ~pc ~taken ~target =
    let i = pht_index t pc in
    t.pht.(i) <- (if taken then min 3 (t.pht.(i) + 1) else max 0 (t.pht.(i) - 1));
    t.ghr <- ((t.ghr lsl 1) lor if taken then 1 else 0) land t.ghr_mask;
    if taken then begin
      let bi = btb_index t pc in
      t.btb_tag.(bi) <- pc;
      t.btb_target.(bi) <- target
    end

  let observe t ~pc ~taken ~target =
    t.stats.branches <- t.stats.branches + 1;
    let pred_taken, pred_target = predict t ~pc in
    let outcome =
      if pred_taken <> taken then `Mispredict
      else if taken then
        match pred_target with
        | Some tg when tg = target -> `Correct
        | Some _ | None ->
          t.stats.btb_misses <- t.stats.btb_misses + 1;
          `Mispredict
      else `Correct
    in
    if outcome = `Mispredict then t.stats.mispredicts <- t.stats.mispredicts + 1;
    update t ~pc ~taken ~target;
    outcome

  let accuracy t =
    if t.stats.branches = 0 then 1.0
    else 1.0 -. (float_of_int t.stats.mispredicts /. float_of_int t.stats.branches)

  let persist t : T.Predictor.persisted =
    {
      p_pht = Array.copy t.pht;
      p_ghr = t.ghr;
      p_btb_tag = Array.copy t.btb_tag;
      p_btb_target = Array.copy t.btb_target;
      p_branches = t.stats.branches;
      p_mispredicts = t.stats.mispredicts;
      p_btb_misses = t.stats.btb_misses;
    }
end

(* --- stride prefetcher ----------------------------------------------------- *)

module Prefetch = struct
  type entry = {
    mutable tag : int;
    mutable last_addr : int;
    mutable stride : int;
    mutable confidence : int;
  }

  type t = {
    table : entry array;
    mask : int;
    into : Cache.t;
    degree : int;
    enabled : bool;
    stats : T.Prefetch.stats;
  }

  let create (cfg : T.Tconfig.t) ~into =
    {
      table =
        Array.init cfg.prefetch_table (fun _ ->
            { tag = -1; last_addr = 0; stride = 0; confidence = 0 });
      mask = cfg.prefetch_table - 1;
      into;
      degree = cfg.prefetch_degree;
      enabled = cfg.prefetch;
      stats = { issued = 0; triggered = 0 };
    }

  let observe t ~pc ~addr =
    if t.enabled then begin
      let e = t.table.((pc lsr 2) land t.mask) in
      if e.tag <> pc then begin
        e.tag <- pc;
        e.last_addr <- addr;
        e.stride <- 0;
        e.confidence <- 0
      end
      else begin
        let stride = addr - e.last_addr in
        if stride <> 0 && stride = e.stride then e.confidence <- min 4 (e.confidence + 1)
        else e.confidence <- 0;
        e.stride <- stride;
        e.last_addr <- addr;
        if e.confidence >= 2 then begin
          t.stats.triggered <- t.stats.triggered + 1;
          for k = 1 to t.degree do
            let target = addr + (k * stride) in
            if target >= 0 then begin
              t.stats.issued <- t.stats.issued + 1;
              Cache.prefetch t.into target
            end
          done
        end
      end
    end

  let persist t : T.Prefetch.persisted =
    {
      p_table = Array.map (fun e -> (e.tag, e.last_addr, e.stride, e.confidence)) t.table;
      p_issued = t.stats.issued;
      p_triggered = t.stats.triggered;
    }
end

(* --- pipeline -------------------------------------------------------------- *)

type ring = { buf : int array; mutable n : int }

let ring_make size = { buf = Array.make (max 1 size) 0; n = 0 }

let ring_push r v =
  r.buf.(r.n mod Array.length r.buf) <- v;
  r.n <- r.n + 1

let ring_cap r =
  if r.n < Array.length r.buf then 0 else r.buf.(r.n mod Array.length r.buf)

type t = {
  cfg : T.Tconfig.t;
  l2 : Cache.t;
  il1 : Cache.t;
  dl1 : Cache.t;
  l2tlb : Tlb.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  pf : Prefetch.t;
  bp : Predictor.t;
  int_ready : int array;
  fp_ready : int array;
  simple_free : int array;
  complex_free : int array;
  vector_free : int array;
  rport_free : int array;
  wport_free : int array;
  iq_ring : ring;
  inflight_ring : ring;
  mutable fetch_cycle : int;
  mutable fetch_count : int;
  mutable last_fetch_line : int;
  mutable redirect_at : int;
  mutable last_issue : int;
  mutable issued_in_cycle : int;
  mutable horizon : int;
  mutable insns : int;
  mutable int_ops : int;
  mutable mul_ops : int;
  mutable fp_ops : int;
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable branches : int;
  mutable rf_reads : int;
  mutable rf_writes : int;
}

let create (cfg : T.Tconfig.t) =
  let memory _addr ~is_write:_ = cfg.mem_latency in
  let l2 = Cache.create cfg.l2 ~parent:memory in
  let l2_parent addr ~is_write = Cache.access l2 addr ~is_write in
  let il1 = Cache.create cfg.il1 ~parent:l2_parent in
  let dl1 = Cache.create cfg.dl1 ~parent:l2_parent in
  let l2tlb = Tlb.second_level cfg in
  {
    cfg;
    l2;
    il1;
    dl1;
    l2tlb;
    itlb = Tlb.create cfg.itlb ~parent:(fun vpn -> Tlb.access l2tlb (vpn lsl 12));
    dtlb = Tlb.create cfg.dtlb ~parent:(fun vpn -> Tlb.access l2tlb (vpn lsl 12));
    pf = Prefetch.create cfg ~into:dl1;
    bp = Predictor.create cfg;
    int_ready = Array.make 64 0;
    fp_ready = Array.make 32 0;
    simple_free = Array.make (max 1 cfg.n_simple) 0;
    complex_free = Array.make (max 1 cfg.n_complex) 0;
    vector_free = Array.make (max 1 cfg.n_vector) 0;
    rport_free = Array.make (max 1 cfg.mem_read_ports) 0;
    wport_free = Array.make (max 1 cfg.mem_write_ports) 0;
    iq_ring = ring_make cfg.iq_size;
    inflight_ring = ring_make cfg.phys_regs;
    fetch_cycle = 0;
    fetch_count = 0;
    last_fetch_line = -1;
    redirect_at = 0;
    last_issue = 0;
    issued_in_cycle = 0;
    horizon = 0;
    insns = 0;
    int_ops = 0;
    mul_ops = 0;
    fp_ops = 0;
    mem_reads = 0;
    mem_writes = 0;
    branches = 0;
    rf_reads = 0;
    rf_writes = 0;
  }

type cls = Simple | Complex | Vector | Mem_read | Mem_write [@@warning "-37"]

let classify (cfg : T.Tconfig.t) (insn : Code.insn) =
  match insn with
  | Code.Bin ((Mul | Mulhu | Mulhs), _, _, _) -> (Complex, cfg.complex_mul_latency, 1, 1)
  | Code.Fbin (Fdiv, _, _, _) -> (Complex, cfg.fp_div_latency, cfg.fp_div_latency, 1)
  | Code.Fbin (_, _, _, _) -> (Complex, cfg.fp_latency, 1, 1)
  | Code.Fun (Fsqrt, _, _) -> (Complex, cfg.fp_div_latency + 3, cfg.fp_div_latency, 1)
  | Code.Fun (_, _, _) | Code.Fmov _ | Code.Fli _ -> (Complex, 1, 1, 1)
  | Code.Fcmp _ | Code.Cvtif _ | Code.Cvtfi _ -> (Complex, 2, 1, 1)
  | Code.Callrt_f (fn, _, _) ->
    let c = Code.rt_cost fn in
    (Complex, c, c, c)
  | Code.Callrt_div { signed; _ } ->
    let c = Code.rt_cost (if signed then Rt_divs else Rt_divu) in
    (Complex, c, c, c)
  | Code.Load _ | Code.Sload _ | Code.Fload _ -> (Mem_read, 0, 1, 1)
  | Code.Store _ | Code.Fstore _ -> (Mem_write, 1, 1, 1)
  | Code.Nop | Code.Li _ | Code.Bin _ | Code.Bini _ | Code.Mkfl _ | Code.Isel _ | Code.B _
  | Code.J _ | Code.Jr _ | Code.Assert _ | Code.Chk | Code.Commit _ | Code.Exit _ ->
    (Simple, 1, 1, 1)

let acquire_unit free_cycles at occupancy =
  let best = ref 0 in
  Array.iteri (fun i c -> if c < free_cycles.(!best) then best := i else ignore c) free_cycles;
  let start = max at free_cycles.(!best) in
  free_cycles.(!best) <- start + occupancy;
  start

let line_of (cfg : T.Tconfig.t) pc = pc / cfg.il1.line

let step t (ri : retire_info) =
  let cfg = t.cfg in
  if t.redirect_at > t.fetch_cycle then begin
    t.fetch_cycle <- t.redirect_at;
    t.fetch_count <- 0;
    t.last_fetch_line <- -1
  end;
  if t.fetch_count >= cfg.fetch_width then begin
    t.fetch_cycle <- t.fetch_cycle + 1;
    t.fetch_count <- 0
  end;
  let line = line_of cfg ri.host_pc in
  if line <> t.last_fetch_line then begin
    t.last_fetch_line <- line;
    let tlb_extra = Tlb.access t.itlb ri.host_pc in
    let ic = Cache.access t.il1 ri.host_pc ~is_write:false in
    t.fetch_cycle <- t.fetch_cycle + tlb_extra + (ic - cfg.il1.latency)
  end;
  t.fetch_cycle <- max t.fetch_cycle (ring_cap t.iq_ring);
  t.fetch_count <- t.fetch_count + 1;
  let at_decode = t.fetch_cycle + cfg.decode_depth in
  let cls, latency, occupancy, weight = classify cfg ri.insn in
  let src_ready =
    List.fold_left (fun acc r -> max acc t.int_ready.(r)) 0 (Operands.uses ri.insn)
  in
  let src_ready =
    List.fold_left (fun acc r -> max acc t.fp_ready.(r)) src_ready (Operands.fuses ri.insn)
  in
  let in_order_at =
    if t.issued_in_cycle >= cfg.issue_width then t.last_issue + 1 else t.last_issue
  in
  let earliest = max (max at_decode src_ready) (max in_order_at (ring_cap t.inflight_ring)) in
  let units =
    match cls with
    | Simple -> t.simple_free
    | Complex -> t.complex_free
    | Vector -> t.vector_free
    | Mem_read -> t.rport_free
    | Mem_write -> t.wport_free
  in
  let issue = acquire_unit units earliest occupancy in
  if issue > t.last_issue then begin
    t.last_issue <- issue;
    t.issued_in_cycle <- 1
  end
  else t.issued_in_cycle <- t.issued_in_cycle + 1;
  let result_latency =
    match ri.mem_access with
    | Some (addr, `Load) ->
      t.mem_reads <- t.mem_reads + 1;
      let tlb_extra = Tlb.access t.dtlb addr in
      let lat = Cache.access t.dl1 addr ~is_write:false in
      Prefetch.observe t.pf ~pc:ri.host_pc ~addr;
      tlb_extra + lat
    | Some (addr, `Store) ->
      t.mem_writes <- t.mem_writes + 1;
      let tlb_extra = Tlb.access t.dtlb addr in
      ignore (Cache.access t.dl1 addr ~is_write:true);
      tlb_extra + 1
    | None -> latency
  in
  let done_at = issue + max 1 result_latency in
  List.iter (fun r -> t.int_ready.(r) <- done_at) (Operands.defs ri.insn);
  List.iter (fun r -> t.fp_ready.(r) <- done_at) (Operands.fdefs ri.insn);
  t.rf_reads <-
    t.rf_reads + List.length (Operands.uses ri.insn) + List.length (Operands.fuses ri.insn);
  t.rf_writes <-
    t.rf_writes + List.length (Operands.defs ri.insn) + List.length (Operands.fdefs ri.insn);
  (match ri.branch with
  | Some (taken, target) -> (
    t.branches <- t.branches + 1;
    let resolve = issue + 1 in
    match Predictor.observe t.bp ~pc:ri.host_pc ~taken ~target with
    | `Correct -> ()
    | `Mispredict -> t.redirect_at <- max t.redirect_at (resolve + cfg.mispredict_penalty))
  | None -> ());
  ring_push t.iq_ring issue;
  ring_push t.inflight_ring done_at;
  t.horizon <- max t.horizon done_at;
  t.insns <- t.insns + weight;
  match cls with
  | Simple -> t.int_ops <- t.int_ops + 1
  | Complex -> (
    match ri.insn with
    | Code.Bin _ -> t.mul_ops <- t.mul_ops + 1
    | _ -> t.fp_ops <- t.fp_ops + 1)
  | Vector | Mem_read | Mem_write -> ()

let cycles t = max t.horizon t.last_issue

let summary t : T.Pipeline.summary =
  let c = cycles t in
  {
    instructions = t.insns;
    cycles = c;
    ipc = (if c = 0 then 0.0 else float_of_int t.insns /. float_of_int c);
    branch_accuracy = Predictor.accuracy t.bp;
    il1_miss_rate = Cache.miss_rate t.il1;
    dl1_miss_rate = Cache.miss_rate t.dl1;
    l2_miss_rate = Cache.miss_rate t.l2;
    itlb_miss_rate = Tlb.miss_rate t.itlb;
    dtlb_miss_rate = Tlb.miss_rate t.dtlb;
    mispredicts = t.bp.stats.mispredicts;
    prefetches = t.pf.stats.issued;
  }

let events t : T.Pipeline.events =
  {
    e_cycles = cycles t;
    e_insns = t.insns;
    e_int_ops = t.int_ops;
    e_mul_ops = t.mul_ops;
    e_fp_ops = t.fp_ops;
    e_mem_reads = t.mem_reads;
    e_mem_writes = t.mem_writes;
    e_branches = t.branches;
    e_il1 = t.il1.stats;
    e_dl1 = t.dl1.stats;
    e_l2 = t.l2.stats;
    e_btb = t.branches;
    e_regfile_reads = t.rf_reads;
    e_regfile_writes = t.rf_writes;
  }

let persist t : T.Pipeline.persisted =
  {
    p_cfg = t.cfg;
    p_l2 = Cache.persist t.l2;
    p_il1 = Cache.persist t.il1;
    p_dl1 = Cache.persist t.dl1;
    p_l2tlb = Tlb.persist t.l2tlb;
    p_itlb = Tlb.persist t.itlb;
    p_dtlb = Tlb.persist t.dtlb;
    p_pf = Prefetch.persist t.pf;
    p_bp = Predictor.persist t.bp;
    p_int_ready = Array.copy t.int_ready;
    p_fp_ready = Array.copy t.fp_ready;
    p_simple_free = Array.copy t.simple_free;
    p_complex_free = Array.copy t.complex_free;
    p_vector_free = Array.copy t.vector_free;
    p_rport_free = Array.copy t.rport_free;
    p_wport_free = Array.copy t.wport_free;
    p_iq_ring = (Array.copy t.iq_ring.buf, t.iq_ring.n);
    p_inflight_ring = (Array.copy t.inflight_ring.buf, t.inflight_ring.n);
    p_fetch_cycle = t.fetch_cycle;
    p_fetch_count = t.fetch_count;
    p_last_fetch_line = t.last_fetch_line;
    p_redirect_at = t.redirect_at;
    p_last_issue = t.last_issue;
    p_issued_in_cycle = t.issued_in_cycle;
    p_horizon = t.horizon;
    p_insns = t.insns;
    p_int_ops = t.int_ops;
    p_mul_ops = t.mul_ops;
    p_fp_ops = t.fp_ops;
    p_mem_reads = t.mem_reads;
    p_mem_writes = t.mem_writes;
    p_branches = t.branches;
    p_rf_reads = t.rf_reads;
    p_rf_writes = t.rf_writes;
  }

(* --- batches for the production pipeline ------------------------------------ *)

(* Append one entry to a batch that has room, as the walker does. *)
let append (b : Retire.t) ~pc ~desc ~addr ~branch =
  let n = b.length in
  b.pc.(n) <- pc;
  b.desc.(n) <- desc;
  b.addr.(n) <- addr;
  b.branch.(n) <- branch;
  b.length <- n + 1

let add batch r =
  append batch ~pc:r.host_pc ~desc:(T.Pipeline.describe r.insn)
    ~addr:(match r.mem_access with Some (a, _) -> a | None -> 0)
    ~branch:
      (match r.branch with
      | Some (taken, target) -> Retire.branch_word ~taken ~target
      | None -> 0)

(* Feed records to a production pipeline in batches of [size] entries. *)
let consume_all ?(size = 256) p records =
  let b = Retire.create size in
  List.iter
    (fun r ->
      if b.length = size then begin
        T.Pipeline.consume p b;
        b.length <- 0
      end;
      add b r)
    records;
  T.Pipeline.consume p b
