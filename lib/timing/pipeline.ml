open Darco_host

type summary = {
  instructions : int;
  cycles : int;
  ipc : float;
  branch_accuracy : float;
  il1_miss_rate : float;
  dl1_miss_rate : float;
  l2_miss_rate : float;
  itlb_miss_rate : float;
  dtlb_miss_rate : float;
  mispredicts : int;
  prefetches : int;
}

type events = {
  e_cycles : int;
  e_insns : int;
  e_int_ops : int;
  e_mul_ops : int;
  e_fp_ops : int;
  e_mem_reads : int;
  e_mem_writes : int;
  e_branches : int;
  e_il1 : Cache.stats;
  e_dl1 : Cache.stats;
  e_l2 : Cache.stats;
  e_btb : int;
  e_regfile_reads : int;
  e_regfile_writes : int;
}

(* Ring buffer of recent cycles, for the IQ-occupancy and physical-register
   in-flight caps.  [n] counts every push and is what a snapshot keeps;
   [pos] is [n mod capacity], kept alongside so that a push does no
   division.  [consume] pushes and reads the rings itself. *)
type ring = { buf : int array; mutable n : int; mutable pos : int }

let ring_make size = { buf = Array.make (Int.max 1 size) 0; n = 0; pos = 0 }

(* --- timing descriptors ------------------------------------------------- *)

(* What [describe] resolves an instruction to: each kind has one latency,
   occupancy, stream weight, unit pool and operation counter, tabled per
   configuration by [create], so a descriptor does not depend on the
   configuration.  Loads and stores are the kinds that read an entry's
   address, control transfers the one that reads its branch word.  The
   vector units exist for the SIMD-extension configuration; the current
   host ISA routes nothing to them. *)
type kind =
  | K_load | K_store | K_control | K_simple | K_mul | K_fdiv | K_fp | K_fsqrt
  | K_fmove | K_fconv | K_rt of Code.rt_fn

let kinds =
  [| K_load; K_store; K_control; K_simple; K_mul; K_fdiv; K_fp; K_fsqrt; K_fmove; K_fconv;
     K_rt Rt_sin; K_rt Rt_cos; K_rt Rt_divu; K_rt Rt_divs |]

let index k =
  let rec go i = if kinds.(i) = k then i else go (i + 1) in
  go 0

let k_load = index K_load
let k_store = index K_store
let k_control = index K_control

(* Exhaustive, with no wildcard: a new [Code.insn] constructor must be
   given a kind here before the tree compiles (DESIGN.md §8). *)
let kind_of (insn : Code.insn) =
  match insn with
  | Code.Bin ((Mul | Mulhu | Mulhs), _, _, _) -> K_mul
  | Code.Fbin (Fdiv, _, _, _) -> K_fdiv
  | Code.Fbin ((Fadd | Fsub | Fmul), _, _, _) -> K_fp
  | Code.Fun (Fsqrt, _, _) -> K_fsqrt
  | Code.Fun ((Fabs | Fneg), _, _) | Code.Fmov _ | Code.Fli _ -> K_fmove
  | Code.Fcmp _ | Code.Cvtif _ | Code.Cvtfi _ -> K_fconv
  | Code.Callrt_f (fn, _, _) -> K_rt fn
  | Code.Callrt_div { signed; _ } -> K_rt (if signed then Rt_divs else Rt_divu)
  | Code.Load _ | Code.Sload _ | Code.Fload _ -> K_load
  | Code.Store _ | Code.Fstore _ -> K_store
  | Code.B _ | Code.J _ | Code.Jr _ | Code.Exit _ -> K_control
  | Code.Nop | Code.Li _ | Code.Bin _ | Code.Bini _ | Code.Mkfl _ | Code.Isel _
  | Code.Assert _ | Code.Chk | Code.Commit _ ->
    K_simple

(* Result latency, unit occupancy and stream weight. *)
let cost (cfg : Tconfig.t) = function
  | K_load -> (0, 1, 1)
  | K_store | K_control | K_simple | K_fmove -> (1, 1, 1)
  | K_mul -> (cfg.complex_mul_latency, 1, 1)
  | K_fdiv -> (cfg.fp_div_latency, cfg.fp_div_latency, 1)
  | K_fp -> (cfg.fp_latency, 1, 1)
  | K_fsqrt -> (cfg.fp_div_latency + 3, cfg.fp_div_latency, 1)
  | K_fconv -> (2, 1, 1)
  | K_rt fn ->
    let c = Code.rt_cost fn in
    (c, c, c)

(* The operation counter a kind bumps, as an index into [t.op_count]: the
   power model counts multiplies apart from the other complex-unit work. *)
let c_int = 0
let c_mul = 1
let c_fp = 2

let counter = function
  | K_control | K_simple -> c_int
  | K_mul -> c_mul
  | K_fdiv | K_fp | K_fsqrt | K_fmove | K_fconv | K_rt _ -> c_fp
  | K_load | K_store -> 3

(* Descriptor layout (56 bits): the kind, then each operand set as a 2-bit
   count followed by its registers — integer uses (3 x 6 bits), FP uses
   (2 x 5), integer defs (2 x 6), FP defs (1 x 5).  [describe] writes it
   and [consume] reads it with shifts and masks; no other module looks
   inside. *)
let kind_mask = 0xF
let uses_at = 4
let fuses_at = 24
let defs_at = 36
let fdefs_at = 50

let describe insn =
  let ops = Array.make Code.max_operands 0 in
  let set operands ~at ~reg_bits =
    let n = operands insn ops in
    let packed = ref n in
    for i = 0 to n - 1 do
      let r = ops.(i) in
      if r < 0 || r lsr reg_bits <> 0 then
        invalid_arg (Format.asprintf "Pipeline.describe: register %d in %a" r Code.pp_insn insn);
      packed := !packed lor (r lsl (2 + (i * reg_bits)))
    done;
    !packed lsl at
  in
  index (kind_of insn)
  lor set Code.uses ~at:uses_at ~reg_bits:6
  lor set Code.fuses ~at:fuses_at ~reg_bits:5
  lor set Code.defs ~at:defs_at ~reg_bits:6
  lor set Code.fdefs ~at:fdefs_at ~reg_bits:5

(* --- the model ----------------------------------------------------------- *)

type t = {
  cfg : Tconfig.t;
  (* memory hierarchy *)
  l2 : Cache.t;
  il1 : Cache.t;
  dl1 : Cache.t;
  l2tlb : Tlb.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  pf : Prefetch.t;
  bp : Predictor.t;
  (* scoreboard *)
  int_ready : int array;
  fp_ready : int array;
  simple_free : int array;
  complex_free : int array;
  vector_free : int array;
  rport_free : int array;
  wport_free : int array;
  iq_ring : ring;
  inflight_ring : ring;
  (* per-kind tables, from the configuration *)
  latency : int array;
  occupancy : int array;
  weight : int array;
  counter : int array;
  units : int array array;  (* aliases the [*_free] arrays above *)
  line_bits : int;  (* log2 of the I-cache line *)
  (* front-end state *)
  mutable fetch_cycle : int;
  mutable fetch_count : int;
  mutable last_fetch_line : int;
  mutable redirect_at : int;
  (* back-end state *)
  mutable last_issue : int;
  mutable issued_in_cycle : int;
  mutable horizon : int;   (* latest completion cycle *)
  (* counters *)
  mutable insns : int;
  op_count : int array;  (* integer, multiply, FP and uncounted operations *)
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable branches : int;
  mutable rf_reads : int;
  mutable rf_writes : int;
  (* optional load-latency distribution (total dTLB + dL1 chain per load);
     [None] costs one pointer test per load and is never persisted — a
     restored pipeline starts with observation off *)
  mutable lat_hist : Darco_obs.Hist.t option;
}

let pow2 n = n >= 1 && n land (n - 1) = 0
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* The structures index with masks and shifts: a set count, line size,
   BTB or prefetch table that is not a power of two would alias entries
   it never filled, and an empty one would fail on its first access. *)
let check_geometry (c : Tconfig.t) =
  let refuse fmt = Printf.ksprintf invalid_arg ("Pipeline: " ^^ fmt) in
  let cache name (g : Tconfig.cache_geom) =
    if not (pow2 g.sets) then refuse "%s sets (%d) must be a power of two" name g.sets;
    if not (pow2 g.line) then refuse "%s line (%d) must be a power of two" name g.line;
    if g.ways < 1 then refuse "%s ways (%d) must be at least 1" name g.ways
  and tlb name (g : Tconfig.tlb_geom) =
    if g.entries < 1 then refuse "%s entries (%d) must be at least 1" name g.entries
  in
  cache "L2" c.l2;
  cache "IL1" c.il1;
  cache "DL1" c.dl1;
  tlb "L2 TLB" c.l2tlb;
  tlb "I-TLB" c.itlb;
  tlb "D-TLB" c.dtlb;
  if not (pow2 c.btb_entries) then
    refuse "BTB entries (%d) must be a power of two" c.btb_entries;
  if not (pow2 c.prefetch_table) then
    refuse "prefetch table (%d) must be a power of two" c.prefetch_table;
  if c.gshare_bits < 0 || c.gshare_bits >= Sys.int_size - 1 then
    refuse "gshare bits (%d) out of range" c.gshare_bits

let create (cfg : Tconfig.t) =
  check_geometry cfg;
  let memory _addr ~is_write:_ = cfg.mem_latency in
  let l2 = Cache.create ~name:"L2" cfg.l2 ~parent:memory in
  let l2_parent addr ~is_write = Cache.access l2 addr ~is_write in
  let il1 = Cache.create ~name:"IL1" cfg.il1 ~parent:l2_parent in
  let dl1 = Cache.create ~name:"DL1" cfg.dl1 ~parent:l2_parent in
  let l2tlb = Tlb.second_level cfg in
  let simple_free = Array.make (Int.max 1 cfg.n_simple) 0 in
  let complex_free = Array.make (Int.max 1 cfg.n_complex) 0 in
  let rport_free = Array.make (Int.max 1 cfg.mem_read_ports) 0 in
  let wport_free = Array.make (Int.max 1 cfg.mem_write_ports) 0 in
  let table f = Array.map f kinds in
  let costs = table (cost cfg) in
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
    simple_free;
    complex_free;
    vector_free = Array.make (Int.max 1 cfg.n_vector) 0;
    rport_free;
    wport_free;
    iq_ring = ring_make cfg.iq_size;
    inflight_ring = ring_make cfg.phys_regs;
    latency = Array.map (fun (l, _, _) -> l) costs;
    occupancy = Array.map (fun (_, o, _) -> o) costs;
    weight = Array.map (fun (_, _, w) -> w) costs;
    counter = table counter;
    units =
      table (function
        | K_load -> rport_free
        | K_store -> wport_free
        | K_control | K_simple -> simple_free
        | K_mul | K_fdiv | K_fp | K_fsqrt | K_fmove | K_fconv | K_rt _ -> complex_free);
    line_bits = log2 cfg.il1.line;
    fetch_cycle = 0;
    fetch_count = 0;
    last_fetch_line = -1;
    redirect_at = 0;
    last_issue = 0;
    issued_in_cycle = 0;
    horizon = 0;
    insns = 0;
    op_count = Array.make 4 0;
    mem_reads = 0;
    mem_writes = 0;
    branches = 0;
    rf_reads = 0;
    rf_writes = 0;
    lat_hist = None;
  }

(* Claim the unit that frees first (the lowest index on a tie) no earlier
   than cycle [at], busy for [occupancy] cycles; returns the issue cycle. *)
let[@inline] acquire_unit free_cycles at occupancy =
  let best = ref 0 in
  for i = 1 to Array.length free_cycles - 1 do
    if free_cycles.(i) < free_cycles.(!best) then best := i
  done;
  let start = Int.max at free_cycles.(!best) in
  free_cycles.(!best) <- start + occupancy;
  start

(* One batch of retired instructions.  Per instruction it allocates
   nothing, matches on no [Code.insn] and calls no polymorphic comparison:
   this build has no flambda, so [max] and [min] on ints are C calls unless
   typed, hence [Int.max].  Register numbers come out of the descriptor
   masked to the scoreboard's size, so reading the scoreboard needs no
   bounds check, and entry reads need none below [n], checked once per
   batch.  The scalar state lives in locals for the batch and is written
   back once at its end; nothing in the loop raises, so none of it can be
   lost.  DESIGN.md §8 ("The timing pipeline's hot path") has the rules. *)
let consume t (b : Retire.t) =
  let pcs = b.pc and descs = b.desc and addrs = b.addr and branches = b.branch in
  let n =
    Int.min
      (Int.min b.length (Array.length pcs))
      (Int.min (Int.min (Array.length descs) (Array.length addrs)) (Array.length branches))
  in
  let cfg = t.cfg in
  let fetch_width = cfg.fetch_width and decode_depth = cfg.decode_depth in
  let issue_width = cfg.issue_width and il1_latency = cfg.il1.latency in
  let int_ready = t.int_ready and fp_ready = t.fp_ready in
  let iq = t.iq_ring.buf and inflight = t.inflight_ring.buf in
  let fetch_cycle = ref t.fetch_cycle and fetch_count = ref t.fetch_count in
  let last_fetch_line = ref t.last_fetch_line and redirect_at = ref t.redirect_at in
  let last_issue = ref t.last_issue and issued_in_cycle = ref t.issued_in_cycle in
  let horizon = ref t.horizon and insns = ref t.insns in
  let rf_reads = ref t.rf_reads and rf_writes = ref t.rf_writes in
  let iq_n = ref t.iq_ring.n and iq_pos = ref t.iq_ring.pos in
  let inflight_n = ref t.inflight_ring.n and inflight_pos = ref t.inflight_ring.pos in
  for i = 0 to n - 1 do
    let pc = Array.unsafe_get pcs i and d = Array.unsafe_get descs i in
    let kind = d land kind_mask in
    (* ---- front end ---- *)
    if !redirect_at > !fetch_cycle then begin
      fetch_cycle := !redirect_at;
      fetch_count := 0;
      last_fetch_line := -1
    end;
    if !fetch_count >= fetch_width then begin
      incr fetch_cycle;
      fetch_count := 0
    end;
    let line = pc lsr t.line_bits in
    if line <> !last_fetch_line then begin
      last_fetch_line := line;
      let tlb_extra = Tlb.access t.itlb pc in
      let ic = Cache.access t.il1 pc ~is_write:false in
      (* only the portion beyond a first-cycle hit stalls fetch *)
      fetch_cycle := !fetch_cycle + tlb_extra + (ic - il1_latency)
    end;
    (* instruction-queue backpressure: the cycle the entry [iq_size] back
       issued, 0 while the ring is not yet full *)
    fetch_cycle :=
      Int.max !fetch_cycle (if !iq_n < Array.length iq then 0 else iq.(!iq_pos));
    incr fetch_count;
    let at_decode = !fetch_cycle + decode_depth in
    (* ---- issue ---- *)
    let n_uses = (d lsr uses_at) land 3 in
    let u = d lsr (uses_at + 2) in
    let src_ready =
      if n_uses = 0 then 0
      else
        let s = Array.unsafe_get int_ready (u land 63) in
        if n_uses = 1 then s
        else
          let s = Int.max s (Array.unsafe_get int_ready ((u lsr 6) land 63)) in
          if n_uses = 2 then s else Int.max s (Array.unsafe_get int_ready ((u lsr 12) land 63))
    in
    let n_fuses = (d lsr fuses_at) land 3 in
    let f = d lsr (fuses_at + 2) in
    let src_ready =
      if n_fuses = 0 then src_ready
      else
        let s = Int.max src_ready (Array.unsafe_get fp_ready (f land 31)) in
        if n_fuses = 1 then s else Int.max s (Array.unsafe_get fp_ready ((f lsr 5) land 31))
    in
    let in_order_at =
      if !issued_in_cycle >= issue_width then !last_issue + 1 else !last_issue
    in
    let inflight_cap =
      if !inflight_n < Array.length inflight then 0 else inflight.(!inflight_pos)
    in
    let earliest =
      Int.max (Int.max at_decode src_ready) (Int.max in_order_at inflight_cap)
    in
    let issue = acquire_unit t.units.(kind) earliest t.occupancy.(kind) in
    if issue > !last_issue then begin
      last_issue := issue;
      issued_in_cycle := 1
    end
    else incr issued_in_cycle;
    (* ---- execute ---- *)
    let result_latency =
      if kind = k_load then begin
        let addr = Array.unsafe_get addrs i in
        t.mem_reads <- t.mem_reads + 1;
        let tlb_extra = Tlb.access t.dtlb addr in
        let lat = Cache.access t.dl1 addr ~is_write:false in
        Prefetch.observe t.pf ~pc ~addr;
        (match t.lat_hist with
        | None -> ()
        | Some h -> Darco_obs.Hist.add h (tlb_extra + lat));
        tlb_extra + lat
      end
      else if kind = k_store then begin
        let addr = Array.unsafe_get addrs i in
        t.mem_writes <- t.mem_writes + 1;
        let tlb_extra = Tlb.access t.dtlb addr in
        ignore (Cache.access t.dl1 addr ~is_write:true);
        tlb_extra + 1
      end
      else t.latency.(kind)
    in
    let done_at = issue + Int.max 1 result_latency in
    let n_defs = (d lsr defs_at) land 3 in
    if n_defs > 0 then begin
      let w = d lsr (defs_at + 2) in
      Array.unsafe_set int_ready (w land 63) done_at;
      if n_defs > 1 then Array.unsafe_set int_ready ((w lsr 6) land 63) done_at
    end;
    let n_fdefs = (d lsr fdefs_at) land 3 in
    if n_fdefs > 0 then Array.unsafe_set fp_ready ((d lsr (fdefs_at + 2)) land 31) done_at;
    rf_reads := !rf_reads + n_uses + n_fuses;
    rf_writes := !rf_writes + n_defs + n_fdefs;
    (* ---- control ---- *)
    if kind = k_control then begin
      let br = Array.unsafe_get branches i in
      t.branches <- t.branches + 1;
      let resolve = issue + 1 in
      match
        Predictor.observe t.bp ~pc ~taken:(Retire.taken br) ~target:(Retire.target br)
      with
      | `Correct -> ()
      | `Mispredict -> redirect_at := Int.max !redirect_at (resolve + cfg.mispredict_penalty)
    end;
    (* ---- bookkeeping ---- *)
    iq.(!iq_pos) <- issue;
    incr iq_n;
    iq_pos := (if !iq_pos + 1 = Array.length iq then 0 else !iq_pos + 1);
    inflight.(!inflight_pos) <- done_at;
    incr inflight_n;
    inflight_pos := (if !inflight_pos + 1 = Array.length inflight then 0 else !inflight_pos + 1);
    horizon := Int.max !horizon done_at;
    insns := !insns + t.weight.(kind);
    let c = t.counter.(kind) in
    t.op_count.(c) <- t.op_count.(c) + 1
  done;
  t.fetch_cycle <- !fetch_cycle;
  t.fetch_count <- !fetch_count;
  t.last_fetch_line <- !last_fetch_line;
  t.redirect_at <- !redirect_at;
  t.last_issue <- !last_issue;
  t.issued_in_cycle <- !issued_in_cycle;
  t.horizon <- !horizon;
  t.insns <- !insns;
  t.rf_reads <- !rf_reads;
  t.rf_writes <- !rf_writes;
  t.iq_ring.n <- !iq_n;
  t.iq_ring.pos <- !iq_pos;
  t.inflight_ring.n <- !inflight_n;
  t.inflight_ring.pos <- !inflight_pos

let cycles t = Int.max t.horizon t.last_issue
let instructions t = t.insns

let summary t =
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
    mispredicts = (Predictor.stats t.bp).mispredicts;
    prefetches = (Prefetch.stats t.pf).issued;
  }

let events t =
  {
    e_cycles = cycles t;
    e_insns = t.insns;
    e_int_ops = t.op_count.(c_int);
    e_mul_ops = t.op_count.(c_mul);
    e_fp_ops = t.op_count.(c_fp);
    e_mem_reads = t.mem_reads;
    e_mem_writes = t.mem_writes;
    e_branches = t.branches;
    e_il1 = Cache.stats t.il1;
    e_dl1 = Cache.stats t.dl1;
    e_l2 = Cache.stats t.l2;
    e_btb = t.branches;
    e_regfile_reads = t.rf_reads;
    e_regfile_writes = t.rf_writes;
  }

let copy_cache_stats (s : Cache.stats) = { s with Cache.accesses = s.accesses }

let events_copy e =
  {
    e with
    e_il1 = copy_cache_stats e.e_il1;
    e_dl1 = copy_cache_stats e.e_dl1;
    e_l2 = copy_cache_stats e.e_l2;
  }

let diff_cache_stats (a : Cache.stats) (b : Cache.stats) =
  {
    Cache.accesses = a.accesses - b.accesses;
    misses = a.misses - b.misses;
    writebacks = a.writebacks - b.writebacks;
    prefetch_fills = a.prefetch_fills - b.prefetch_fills;
  }

let events_diff after before =
  {
    e_cycles = after.e_cycles - before.e_cycles;
    e_insns = after.e_insns - before.e_insns;
    e_int_ops = after.e_int_ops - before.e_int_ops;
    e_mul_ops = after.e_mul_ops - before.e_mul_ops;
    e_fp_ops = after.e_fp_ops - before.e_fp_ops;
    e_mem_reads = after.e_mem_reads - before.e_mem_reads;
    e_mem_writes = after.e_mem_writes - before.e_mem_writes;
    e_branches = after.e_branches - before.e_branches;
    e_il1 = diff_cache_stats after.e_il1 before.e_il1;
    e_dl1 = diff_cache_stats after.e_dl1 before.e_dl1;
    e_l2 = diff_cache_stats after.e_l2 before.e_l2;
    e_btb = after.e_btb - before.e_btb;
    e_regfile_reads = after.e_regfile_reads - before.e_regfile_reads;
    e_regfile_writes = after.e_regfile_writes - before.e_regfile_writes;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>insns %d, cycles %d, IPC %.3f@ branch accuracy %.2f%% (%d mispredicts)@ \
     IL1 miss %.2f%%, DL1 miss %.2f%%, L2 miss %.2f%%@ \
     ITLB miss %.3f%%, DTLB miss %.3f%%, prefetches %d@]"
    s.instructions s.cycles s.ipc
    (100. *. s.branch_accuracy)
    s.mispredicts (100. *. s.il1_miss_rate) (100. *. s.dl1_miss_rate)
    (100. *. s.l2_miss_rate)
    (100. *. s.itlb_miss_rate)
    (100. *. s.dtlb_miss_rate)
    s.prefetches

let attach t bus = Darco_obs.Bus.on_retire bus ~describe (consume t)

let observe_latencies t =
  match t.lat_hist with
  | Some h -> h
  | None ->
    let h = Darco_obs.Hist.create () in
    t.lat_hist <- Some h;
    h

(* --- snapshot support ---------------------------------------------------- *)

type persisted = {
  p_cfg : Tconfig.t;
  p_l2 : Cache.persisted;
  p_il1 : Cache.persisted;
  p_dl1 : Cache.persisted;
  p_l2tlb : Tlb.persisted;
  p_itlb : Tlb.persisted;
  p_dtlb : Tlb.persisted;
  p_pf : Prefetch.persisted;
  p_bp : Predictor.persisted;
  p_int_ready : int array;
  p_fp_ready : int array;
  p_simple_free : int array;
  p_complex_free : int array;
  p_vector_free : int array;
  p_rport_free : int array;
  p_wport_free : int array;
  p_iq_ring : int array * int;
  p_inflight_ring : int array * int;
  p_fetch_cycle : int;
  p_fetch_count : int;
  p_last_fetch_line : int;
  p_redirect_at : int;
  p_last_issue : int;
  p_issued_in_cycle : int;
  p_horizon : int;
  p_insns : int;
  p_int_ops : int;
  p_mul_ops : int;
  p_fp_ops : int;
  p_mem_reads : int;
  p_mem_writes : int;
  p_branches : int;
  p_rf_reads : int;
  p_rf_writes : int;
}

let persist t =
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
    p_int_ops = t.op_count.(c_int);
    p_mul_ops = t.op_count.(c_mul);
    p_fp_ops = t.op_count.(c_fp);
    p_mem_reads = t.mem_reads;
    p_mem_writes = t.mem_writes;
    p_branches = t.branches;
    p_rf_reads = t.rf_reads;
    p_rf_writes = t.rf_writes;
  }

let blit_same name src dst =
  if Array.length src <> Array.length dst then
    invalid_arg ("Pipeline.restore: " ^ name ^ " size mismatch");
  Array.blit src 0 dst 0 (Array.length dst)

(* Every persisted structure against the size [create p_cfg] would
   allocate for it, checked (after [check_geometry]) before anything is
   allocated: a corrupt geometry must not cost gigabytes before it is
   refused. *)
let sized p =
  let c = p.p_cfg and len = Array.length in
  let cache (g : Tconfig.cache_geom) (q : Cache.persisted) =
    len q.p_lines = g.sets && Array.for_all (fun set -> len set = g.ways) q.p_lines
  and tlb (g : Tconfig.tlb_geom) (q : Tlb.persisted) = len q.p_entries = g.entries
  and units n a = len a = Int.max 1 n in
  cache c.l2 p.p_l2
  && cache c.il1 p.p_il1
  && cache c.dl1 p.p_dl1
  && tlb c.l2tlb p.p_l2tlb
  && tlb c.itlb p.p_itlb
  && tlb c.dtlb p.p_dtlb
  && len p.p_pf.p_table = c.prefetch_table
  && len p.p_bp.p_pht = 1 lsl c.gshare_bits
  && len p.p_bp.p_btb_tag = c.btb_entries
  && len p.p_bp.p_btb_target = c.btb_entries
  && units c.n_simple p.p_simple_free
  && units c.n_complex p.p_complex_free
  && units c.n_vector p.p_vector_free
  && units c.mem_read_ports p.p_rport_free
  && units c.mem_write_ports p.p_wport_free
  && units c.iq_size (fst p.p_iq_ring)
  && units c.phys_regs (fst p.p_inflight_ring)

let restore p =
  check_geometry p.p_cfg;
  if not (sized p) then
    invalid_arg "Pipeline.restore: state does not match its configuration";
  let t = create p.p_cfg in
  Cache.apply t.l2 p.p_l2;
  Cache.apply t.il1 p.p_il1;
  Cache.apply t.dl1 p.p_dl1;
  Tlb.apply t.l2tlb p.p_l2tlb;
  Tlb.apply t.itlb p.p_itlb;
  Tlb.apply t.dtlb p.p_dtlb;
  Prefetch.apply t.pf p.p_pf;
  Predictor.apply t.bp p.p_bp;
  blit_same "int_ready" p.p_int_ready t.int_ready;
  blit_same "fp_ready" p.p_fp_ready t.fp_ready;
  blit_same "simple_free" p.p_simple_free t.simple_free;
  blit_same "complex_free" p.p_complex_free t.complex_free;
  blit_same "vector_free" p.p_vector_free t.vector_free;
  blit_same "rport_free" p.p_rport_free t.rport_free;
  blit_same "wport_free" p.p_wport_free t.wport_free;
  let ring_apply name r (buf, n) =
    blit_same name buf r.buf;
    if n < 0 then invalid_arg ("Pipeline.restore: " ^ name ^ " count is negative");
    r.n <- n;
    r.pos <- n mod Array.length r.buf
  in
  ring_apply "iq_ring" t.iq_ring p.p_iq_ring;
  ring_apply "inflight_ring" t.inflight_ring p.p_inflight_ring;
  t.fetch_cycle <- p.p_fetch_cycle;
  t.fetch_count <- p.p_fetch_count;
  t.last_fetch_line <- p.p_last_fetch_line;
  t.redirect_at <- p.p_redirect_at;
  t.last_issue <- p.p_last_issue;
  t.issued_in_cycle <- p.p_issued_in_cycle;
  t.horizon <- p.p_horizon;
  t.insns <- p.p_insns;
  t.op_count.(c_int) <- p.p_int_ops;
  t.op_count.(c_mul) <- p.p_mul_ops;
  t.op_count.(c_fp) <- p.p_fp_ops;
  t.mem_reads <- p.p_mem_reads;
  t.mem_writes <- p.p_mem_writes;
  t.branches <- p.p_branches;
  t.rf_reads <- p.p_rf_reads;
  t.rf_writes <- p.p_rf_writes;
  t
