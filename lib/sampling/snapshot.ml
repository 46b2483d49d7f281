open Darco_guest
open Darco_host
module B = Buf
module Stats = Darco_obs.Stats
module Jsonx = Darco_obs.Jsonx
module Config = Darco.Config
module Tconfig = Darco_timing.Tconfig

type kind = Functional | Full

(* A snapshot holds already-encoded section payloads, so capturing is a deep
   copy: the live simulation can keep running without disturbing it. *)
type t = { snap_kind : kind; sections : (string * string) list }

let version = 1
let magic = "DSNP"
let guest_tag = "GUST"
let code_tag = "CODE"
let timing_tag = "TIMG"

let kind t = t.snap_kind
let section t tag = List.assoc tag t.sections

(* Hashtables travel as key-sorted lists, so equal states encode equal. *)
let table c =
  B.conv
    (fun tbl -> List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))
    (fun xs ->
      let tbl = Hashtbl.create (max 16 (List.length xs)) in
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) xs;
      tbl)
    B.(list (pair int c))

(* --- guest component ----------------------------------------------------- *)

let cpu : Cpu.t B.t =
  B.(
    record (fun regs fregs flags eip halted : Cpu.t ->
        { regs; fregs; flags; eip; halted })
    |+ (array_n 8 int, fun (c : Cpu.t) -> c.regs)
    |+ (array_n 8 f64, fun c -> c.fregs)
    |+ (int, fun c -> c.flags)
    |+ (int, fun c -> c.eip)
    |+ (bool, fun c -> c.halted)
    |> seal)

let memory policy =
  B.conv
    (fun mem ->
      List.map (fun idx -> (idx, Memory.get_page mem idx)) (Memory.touched_pages mem))
    (fun pages ->
      let mem = Memory.create policy in
      List.iter
        (fun (idx, data) ->
          if Bytes.length data <> Memory.page_size then
            B.corrupt "memory page has wrong size";
          Memory.install_page mem idx data)
        pages;
      mem)
    B.(list (pair int bytes))

let sys : Syscall.t B.t =
  B.(
    record
      (fun p_brk p_time p_input_pos p_input p_rng_state p_output : Syscall.persisted ->
        { p_brk; p_time; p_input_pos; p_input; p_rng_state; p_output })
    |+ (int, fun (s : Syscall.persisted) -> s.p_brk)
    |+ (int, fun s -> s.p_time)
    |+ (int, fun s -> s.p_input_pos)
    |+ (str, fun s -> s.p_input)
    |+ (i64, fun s -> s.p_rng_state)
    |+ (str, fun s -> s.p_output)
    |> seal
    |> conv Syscall.persist Syscall.unpersist)

(* GUST opens with the retired count, the exit code and the CPU, so
   [retired] and [guest_eip] decode that prefix and never build memory. *)
let guest_head = B.(triple int (option int) cpu)

let reference ((retired, exit_code, cpu), (sys, mem)) : Interp_ref.t =
  { cpu; mem; sys; icache = Step.icache_create (); retired; exit_code; last_effects = [] }

let guest : Interp_ref.t B.t =
  B.conv
    (fun (ir : Interp_ref.t) -> ((ir.retired, ir.exit_code, ir.cpu), (ir.sys, ir.mem)))
    reference
    B.(pair guest_head (pair sys (memory `Auto_zero)))

(* --- configuration ------------------------------------------------------- *)

let costs : Config.costs B.t =
  B.(
    record
      (fun interp_per_insn interp_profile_bb bb_translate_base bb_translate_per_insn
           sb_translate_base sb_translate_per_insn prologue cc_lookup chain_attempt
           ibtc_fill dispatch_other init_once : Config.costs ->
        {
          interp_per_insn;
          interp_profile_bb;
          bb_translate_base;
          bb_translate_per_insn;
          sb_translate_base;
          sb_translate_per_insn;
          prologue;
          cc_lookup;
          chain_attempt;
          ibtc_fill;
          dispatch_other;
          init_once;
        })
    |+ (int, fun (c : Config.costs) -> c.interp_per_insn)
    |+ (int, fun c -> c.interp_profile_bb)
    |+ (int, fun c -> c.bb_translate_base)
    |+ (int, fun c -> c.bb_translate_per_insn)
    |+ (int, fun c -> c.sb_translate_base)
    |+ (int, fun c -> c.sb_translate_per_insn)
    |+ (int, fun c -> c.prologue)
    |+ (int, fun c -> c.cc_lookup)
    |+ (int, fun c -> c.chain_attempt)
    |+ (int, fun c -> c.ibtc_fill)
    |+ (int, fun c -> c.dispatch_other)
    |+ (int, fun c -> c.init_once)
    |> seal)

let fault =
  B.enum "fault" [| Config.No_fault; Opt_drop_store; Sched_break_dep |] (function
    | Config.No_fault -> 0
    | Opt_drop_store -> 1
    | Sched_break_dep -> 2)

let config : Config.t B.t =
  B.(
    record
      (fun bb_threshold sb_threshold sb_max_insns sb_max_bbs branch_bias min_reach_prob
           unroll_factor assert_fail_limit use_asserts use_mem_speculation opt_const_fold
           opt_copy_prop opt_cse opt_dce opt_rle opt_schedule use_chaining use_ibtc
           ibtc_bits inject_fault slice_fuel code_cache_capacity costs : Config.t ->
        {
          bb_threshold;
          sb_threshold;
          sb_max_insns;
          sb_max_bbs;
          branch_bias;
          min_reach_prob;
          unroll_factor;
          assert_fail_limit;
          use_asserts;
          use_mem_speculation;
          opt_const_fold;
          opt_copy_prop;
          opt_cse;
          opt_dce;
          opt_rle;
          opt_schedule;
          use_chaining;
          use_ibtc;
          ibtc_bits;
          inject_fault;
          slice_fuel;
          code_cache_capacity;
          costs;
        })
    |+ (int, fun (c : Config.t) -> c.bb_threshold)
    |+ (int, fun c -> c.sb_threshold)
    |+ (int, fun c -> c.sb_max_insns)
    |+ (int, fun c -> c.sb_max_bbs)
    |+ (f64, fun c -> c.branch_bias)
    |+ (f64, fun c -> c.min_reach_prob)
    |+ (int, fun c -> c.unroll_factor)
    |+ (int, fun c -> c.assert_fail_limit)
    |+ (bool, fun c -> c.use_asserts)
    |+ (bool, fun c -> c.use_mem_speculation)
    |+ (bool, fun c -> c.opt_const_fold)
    |+ (bool, fun c -> c.opt_copy_prop)
    |+ (bool, fun c -> c.opt_cse)
    |+ (bool, fun c -> c.opt_dce)
    |+ (bool, fun c -> c.opt_rle)
    |+ (bool, fun c -> c.opt_schedule)
    |+ (bool, fun c -> c.use_chaining)
    |+ (bool, fun c -> c.use_ibtc)
    |+ (int, fun c -> c.ibtc_bits)
    |+ (fault, fun c -> c.inject_fault)
    |+ (int, fun c -> c.slice_fuel)
    |+ (int, fun c -> c.code_cache_capacity)
    |+ (costs, fun c -> c.costs)
    |> seal)

(* --- statistics ---------------------------------------------------------- *)

let stats : Stats.t B.t =
  B.(
    record
      (fun guest_im guest_bbm guest_sbm host_app_bbm host_app_sbm overhead bb_translations
           sb_translations sb_rebuilds_noassert sb_rebuilds_nomem assert_rollbacks
           alias_rollbacks page_requests syscalls chains_made chains_followed ibtc_fills
           ibtc_misses code_cache_flushes wasted_host validations startup_insns
           unrolled_superblocks : Stats.t ->
        {
          guest_im;
          guest_bbm;
          guest_sbm;
          host_app_bbm;
          host_app_sbm;
          overhead;
          bb_translations;
          sb_translations;
          sb_rebuilds_noassert;
          sb_rebuilds_nomem;
          assert_rollbacks;
          alias_rollbacks;
          page_requests;
          syscalls;
          chains_made;
          chains_followed;
          ibtc_fills;
          ibtc_misses;
          code_cache_flushes;
          wasted_host;
          validations;
          startup_insns;
          unrolled_superblocks;
        })
    |+ (int, fun (s : Stats.t) -> s.guest_im)
    |+ (int, fun s -> s.guest_bbm)
    |+ (int, fun s -> s.guest_sbm)
    |+ (int, fun s -> s.host_app_bbm)
    |+ (int, fun s -> s.host_app_sbm)
    |+ (array_n 7 int, fun s -> s.overhead)
    |+ (int, fun s -> s.bb_translations)
    |+ (int, fun s -> s.sb_translations)
    |+ (int, fun s -> s.sb_rebuilds_noassert)
    |+ (int, fun s -> s.sb_rebuilds_nomem)
    |+ (int, fun s -> s.assert_rollbacks)
    |+ (int, fun s -> s.alias_rollbacks)
    |+ (int, fun s -> s.page_requests)
    |+ (int, fun s -> s.syscalls)
    |+ (int, fun s -> s.chains_made)
    |+ (int, fun s -> s.chains_followed)
    |+ (int, fun s -> s.ibtc_fills)
    |+ (int, fun s -> s.ibtc_misses)
    |+ (int, fun s -> s.code_cache_flushes)
    |+ (int, fun s -> s.wasted_host)
    |+ (int, fun s -> s.validations)
    |+ (option int, fun s -> s.startup_insns)
    |+ (int, fun s -> s.unrolled_superblocks)
    |> seal)

(* --- host code ----------------------------------------------------------- *)

let width =
  B.enum "width" [| Isa.W8; W16; W32 |] (function Isa.W8 -> 0 | W16 -> 1 | W32 -> 2)

let binop =
  B.enum "binop"
    [| Code.Add; Sub; Mul; Mulhu; Mulhs; And; Or; Xor; Shl; Shr; Sar; Slt; Sltu; Seq;
       Sne |]
    (function
      | Code.Add -> 0 | Sub -> 1 | Mul -> 2 | Mulhu -> 3 | Mulhs -> 4
      | And -> 5 | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9 | Sar -> 10
      | Slt -> 11 | Sltu -> 12 | Seq -> 13 | Sne -> 14)

let cmp =
  B.enum "cmp" [| Code.Beq; Bne; Blt; Bge; Bltu; Bgeu |] (function
    | Code.Beq -> 0 | Bne -> 1 | Blt -> 2 | Bge -> 3 | Bltu -> 4 | Bgeu -> 5)

let fbinop =
  B.enum "fbinop" [| Code.Fadd; Fsub; Fmul; Fdiv |] (function
    | Code.Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3)

let funop =
  B.enum "funop" [| Code.Fsqrt; Fabs; Fneg |] (function
    | Code.Fsqrt -> 0 | Fabs -> 1 | Fneg -> 2)

let rt_fn =
  B.enum "rt_fn" [| Code.Rt_sin; Rt_cos; Rt_divu; Rt_divs |] (function
    | Code.Rt_sin -> 0 | Rt_cos -> 1 | Rt_divu -> 2 | Rt_divs -> 3)

let flkind =
  B.enum "flkind"
    [| Code.Fl_add; Fl_adc; Fl_sub; Fl_sbb; Fl_logic; Fl_shl; Fl_shr; Fl_sar; Fl_rol;
       Fl_ror; Fl_inc; Fl_dec; Fl_neg; Fl_mulu; Fl_muls |]
    (function
      | Code.Fl_add -> 0 | Fl_adc -> 1 | Fl_sub -> 2 | Fl_sbb -> 3
      | Fl_logic -> 4 | Fl_shl -> 5 | Fl_shr -> 6 | Fl_sar -> 7 | Fl_rol -> 8
      | Fl_ror -> 9 | Fl_inc -> 10 | Fl_dec -> 11 | Fl_neg -> 12
      | Fl_mulu -> 13 | Fl_muls -> 14)

let exit_kind : Code.exit_kind B.t =
  let open B in
  let direct = case 0 int (fun pc -> Code.Exit_direct pc)
  and indirect = case 1 int (fun reg -> Code.Exit_indirect reg)
  and syscall = case 2 int (fun pc -> Code.Exit_syscall pc)
  and interp = case 3 int (fun pc -> Code.Exit_interp pc)
  and promote = case 4 int (fun pc -> Code.Exit_promote pc)
  and halt = case 5 unit (fun () -> Code.Exit_halt) in
  variant u8
    [ Case direct; Case indirect; Case syscall; Case interp; Case promote; Case halt ]
    (function
      | Code.Exit_direct pc -> tag direct pc
      | Exit_indirect reg -> tag indirect reg
      | Exit_syscall pc -> tag syscall pc
      | Exit_interp pc -> tag interp pc
      | Exit_promote pc -> tag promote pc
      | Exit_halt -> tag halt ())

(* Chain links travel as target-region ids.  Decoding leaves a placeholder
   region carrying the id; [link] swaps in the decoded target and rebuilds
   the [incoming] lists once every region exists. *)
let placeholder id : Code.region =
  {
    id;
    entry_pc = 0;
    mode = `Bb;
    base = 0;
    code = [||];
    incoming = [];
    invalidated = true;
  }

let exit_info : Code.exit_info B.t =
  B.(
    record (fun exit_id kind guest_retired chain prefer_bb : Code.exit_info ->
        { exit_id; kind; guest_retired; chain; prefer_bb })
    |+ (int, fun (e : Code.exit_info) -> e.exit_id)
    |+ (exit_kind, fun e -> e.kind)
    |+ (int, fun e -> e.guest_retired)
    |+ (option (conv (fun (rg : Code.region) -> rg.id) placeholder int), fun e -> e.chain)
    |+ (bool, fun e -> e.prefer_bb)
    |> seal)

let insn : Code.insn B.t =
  let open B in
  let reg2 = pair int int and reg3 = triple int int int in
  let nop = case 0 unit (fun () -> Code.Nop)
  and li = case 1 reg2 (fun (rd, v) -> Code.Li (rd, v))
  and bin = case 2 (pair binop reg3) (fun (op, (rd, ra, rb)) -> Code.Bin (op, rd, ra, rb))
  and bini = case 3 (pair binop reg3) (fun (op, (rd, ra, v)) -> Code.Bini (op, rd, ra, v))
  and load =
    case 4 (triple width bool reg3) (fun (wd, s, (rd, ra, d)) ->
        Code.Load (wd, s, rd, ra, d))
  and sload =
    case 5 (triple width bool reg3) (fun (wd, s, (rd, ra, d)) ->
        Code.Sload (wd, s, rd, ra, d))
  and store =
    case 6 (pair width reg3) (fun (wd, (rv, ra, d)) -> Code.Store (wd, rv, ra, d))
  and fli = case 7 (pair int f64) (fun (fd, v) -> Code.Fli (fd, v))
  and fmov = case 8 reg2 (fun (fd, fs) -> Code.Fmov (fd, fs))
  and fbin =
    case 9 (pair fbinop reg3) (fun (op, (fd, fa, fb)) -> Code.Fbin (op, fd, fa, fb))
  and fun_ = case 10 (triple funop int int) (fun (op, fd, fa) -> Code.Fun (op, fd, fa))
  and fload = case 11 reg3 (fun (fd, ra, d) -> Code.Fload (fd, ra, d))
  and fstore = case 12 reg3 (fun (fv, ra, d) -> Code.Fstore (fv, ra, d))
  and fcmp = case 13 reg3 (fun (rd, fa, fb) -> Code.Fcmp (rd, fa, fb))
  and cvtif = case 14 reg2 (fun (fd, ra) -> Code.Cvtif (fd, ra))
  and cvtfi = case 15 reg2 (fun (rd, fa) -> Code.Cvtfi (rd, fa))
  and mkfl =
    case 16 (pair flkind (quad int int int int)) (fun (k, (rd, a, b, c)) ->
        Code.Mkfl (k, rd, a, b, c))
  and isel =
    case 17 (quad int int int int) (fun (rd, rc, ra, rb) -> Code.Isel (rd, rc, ra, rb))
  and callrt_f =
    case 18 (triple rt_fn int int) (fun (fn, fd, fs) -> Code.Callrt_f (fn, fd, fs))
  and callrt_div =
    case 19 (triple bool reg2 reg3) (fun (signed, (q, r), (hi, lo, d)) ->
        Code.Callrt_div { signed; q; r; hi; lo; d })
  and b = case 20 (pair cmp reg3) (fun (c, (ra, rb, t)) -> Code.B (c, ra, rb, t))
  and j = case 21 int (fun t -> Code.J t)
  and jr = case 22 reg2 (fun (ra, rg) -> Code.Jr (ra, rg))
  and assert_ = case 23 (triple cmp int int) (fun (c, ra, rb) -> Code.Assert (c, ra, rb))
  and chk = case 24 unit (fun () -> Code.Chk)
  and commit = case 25 int (fun n -> Code.Commit n)
  and exit_ = case 26 exit_info (fun e -> Code.Exit e) in
  variant u8
    [ Case nop; Case li; Case bin; Case bini; Case load; Case sload; Case store; Case fli;
      Case fmov; Case fbin; Case fun_; Case fload; Case fstore; Case fcmp; Case cvtif;
      Case cvtfi; Case mkfl; Case isel; Case callrt_f; Case callrt_div; Case b; Case j;
      Case jr; Case assert_; Case chk; Case commit; Case exit_ ]
    (function
      | Code.Nop -> tag nop ()
      | Li (rd, v) -> tag li (rd, v)
      | Bin (op, rd, ra, rb) -> tag bin (op, (rd, ra, rb))
      | Bini (op, rd, ra, v) -> tag bini (op, (rd, ra, v))
      | Load (wd, s, rd, ra, d) -> tag load (wd, s, (rd, ra, d))
      | Sload (wd, s, rd, ra, d) -> tag sload (wd, s, (rd, ra, d))
      | Store (wd, rv, ra, d) -> tag store (wd, (rv, ra, d))
      | Fli (fd, v) -> tag fli (fd, v)
      | Fmov (fd, fs) -> tag fmov (fd, fs)
      | Fbin (op, fd, fa, fb) -> tag fbin (op, (fd, fa, fb))
      | Fun (op, fd, fa) -> tag fun_ (op, fd, fa)
      | Fload (fd, ra, d) -> tag fload (fd, ra, d)
      | Fstore (fv, ra, d) -> tag fstore (fv, ra, d)
      | Fcmp (rd, fa, fb) -> tag fcmp (rd, fa, fb)
      | Cvtif (fd, ra) -> tag cvtif (fd, ra)
      | Cvtfi (rd, fa) -> tag cvtfi (rd, fa)
      | Mkfl (k, rd, a, b, c) -> tag mkfl (k, (rd, a, b, c))
      | Isel (rd, rc, ra, rb) -> tag isel (rd, rc, ra, rb)
      | Callrt_f (fn, fd, fs) -> tag callrt_f (fn, fd, fs)
      | Callrt_div { signed; q; r; hi; lo; d } ->
        tag callrt_div (signed, (q, r), (hi, lo, d))
      | B (c, ra, rb, t) -> tag b (c, (ra, rb, t))
      | J t -> tag j t
      | Jr (ra, rg) -> tag jr (ra, rg)
      | Assert (c, ra, rb) -> tag assert_ (c, ra, rb)
      | Chk -> tag chk ()
      | Commit n -> tag commit n
      | Exit e -> tag exit_ e)

let region : Code.region B.t =
  B.(
    record (fun id entry_pc mode base invalidated code : Code.region ->
        { id; entry_pc; mode; base; code; incoming = []; invalidated })
    |+ (int, fun (rg : Code.region) -> rg.id)
    |+ (int, fun rg -> rg.entry_pc)
    |+ ( enum "region mode" [| `Bb; `Super |] (function `Bb -> 0 | `Super -> 1),
         fun rg -> rg.mode )
    |+ (int, fun rg -> rg.base)
    |+ (bool, fun rg -> rg.invalidated)
    |+ (array insn, fun rg -> rg.code)
    |> seal)

(* Resolve chain placeholders to decoded regions, in decode order, and
   refuse links or index entries naming a region the snapshot lacks. *)
let link (p : Darco.Codecache.persisted) =
  let by_id = Hashtbl.create 64 in
  List.iter (fun (rg : Code.region) -> Hashtbl.replace by_id rg.id rg) p.p_regions;
  let find what id =
    match Hashtbl.find_opt by_id id with
    | Some rg -> rg
    | None -> B.corrupt (Printf.sprintf "%s unknown region %d" what id)
  in
  List.iter
    (fun (rg : Code.region) ->
      Array.iter
        (function
          | Code.Exit ({ chain = Some (pending : Code.region); _ } as e) ->
            let target = find "chain to" pending.id in
            e.chain <- Some target;
            target.incoming <- e :: target.incoming
          | _ -> ())
        rg.code)
    p.p_regions;
  List.iter
    (fun (_, ids) -> List.iter (fun id -> ignore (find "pc index references" id)) ids)
    p.p_by_pc;
  p

let codecache : Darco.Codecache.persisted B.t =
  B.(
    record
      (fun p_regions p_by_pc p_next_id p_next_base p_total_insns p_ibtc_base
           p_ibtc_entries : Darco.Codecache.persisted ->
        {
          p_regions;
          p_by_pc;
          p_next_id;
          p_next_base;
          p_total_insns;
          p_ibtc_base;
          p_ibtc_entries;
        })
    |+ (list region, fun (p : Darco.Codecache.persisted) -> p.p_regions)
    |+ (list (pair int (list int)), fun p -> p.p_by_pc)
    |+ (int, fun p -> p.p_next_id)
    |+ (int, fun p -> p.p_next_base)
    |+ (int, fun p -> p.p_total_insns)
    |+ (int, fun p -> p.p_ibtc_base)
    |+ (int, fun p -> p.p_ibtc_entries)
    |> seal
    |> conv Fun.id link)

let profile : Darco.Profile.persisted B.t =
  B.(
    record (fun p_interp p_exec p_edges : Darco.Profile.persisted ->
        { p_interp; p_exec; p_edges })
    |+ (list (pair int int), fun (p : Darco.Profile.persisted) -> p.p_interp)
    |+ (list (pair int int), fun p -> p.p_exec)
    |+ (list (pair int (pair int int)), fun p -> p.p_edges)
    |> seal)

let divergence : Darco.Controller.divergence B.t =
  B.(
    record (fun at_retired details : Darco.Controller.divergence ->
        { at_retired; details })
    |+ (int, fun (d : Darco.Controller.divergence) -> d.at_retired)
    |+ (list str, fun d -> d.details)
    |> seal)

(* The CODE section.  Decoding rebuilds the live component around the
   restoring process's [bus] and the already-restored [reference]; the
   encoder ignores both. *)
let code ~bus ~(reference : Interp_ref.t) : Darco.Controller.t B.t =
  B.(
    record
      (fun cfg validate_at_checkpoints validate_memory divergence co_cfg stats cpu mem r f
           pending aliases ckpt_r ckpt_f brk profile codecache fails deopt
         : Darco.Controller.t ->
        let machine = Machine.restore mem ~r ~f ~pending ~aliases ~ckpt_r ~ckpt_f in
        let tolmem = Darco.Tolmem.restore mem ~brk in
        let co : Darco.Tol.t =
          {
            cfg = co_cfg;
            stats;
            bus;
            cpu;
            mem;
            machine;
            icache = Step.icache_create ();
            profile = Darco.Profile.unpersist tolmem profile;
            tolmem;
            codecache = Darco.Codecache.unpersist ~bus tolmem stats codecache;
            fails;
            deopt;
          }
        in
        { cfg; reference; co; divergence; validate_at_checkpoints; validate_memory })
    |+ (config, fun (ctl : Darco.Controller.t) -> ctl.cfg)
    |+ (bool, fun ctl -> ctl.validate_at_checkpoints)
    |+ (bool, fun ctl -> ctl.validate_memory)
    |+ (option divergence, fun ctl -> ctl.divergence)
    |+ (config, fun ctl -> ctl.co.cfg)
    |+ (stats, fun ctl -> ctl.co.stats)
    |+ (cpu, fun ctl -> ctl.co.cpu)
    |+ (memory `Fault, fun ctl -> ctl.co.mem)
    (* host machine: at a synchronization boundary the store buffer and alias
       table are empty, but serialize them anyway so capture never lies; the
       buffer travels as address-sorted (byte address, byte) pairs *)
    |+ (array_n 64 int, fun ctl -> ctl.co.machine.r)
    |+ (array_n 32 f64, fun ctl -> ctl.co.machine.f)
    |+ (list (pair int int), fun ctl -> Machine.pending_bytes ctl.co.machine)
    |+ (list (pair int int), fun ctl -> Machine.alias_ranges ctl.co.machine)
    |+ (array int, fun ctl -> ctl.co.machine.ckpt_r)
    |+ (array f64, fun ctl -> ctl.co.machine.ckpt_f)
    |+ (int, fun ctl -> Darco.Tolmem.brk ctl.co.tolmem)
    |+ (profile, fun ctl -> Darco.Profile.persist ctl.co.profile)
    |+ (codecache, fun ctl -> Darco.Codecache.persist ctl.co.codecache)
    |+ (table int, fun ctl -> ctl.co.fails)
    |+ (table (pair bool bool), fun ctl -> ctl.co.deopt)
    |> seal)

(* --- timing section ------------------------------------------------------ *)

let geom : Tconfig.cache_geom B.t =
  B.(
    record (fun sets ways line latency : Tconfig.cache_geom ->
        { sets; ways; line; latency })
    |+ (int, fun (g : Tconfig.cache_geom) -> g.sets)
    |+ (int, fun g -> g.ways)
    |+ (int, fun g -> g.line)
    |+ (int, fun g -> g.latency)
    |> seal)

let tlb_geom : Tconfig.tlb_geom B.t =
  B.(
    record (fun entries latency : Tconfig.tlb_geom -> { entries; latency })
    |+ (int, fun (g : Tconfig.tlb_geom) -> g.entries)
    |+ (int, fun g -> g.latency)
    |> seal)

let tconfig : Tconfig.t B.t =
  B.(
    record
      (fun fetch_width decode_depth issue_width iq_size phys_regs n_simple n_complex
           n_vector mem_read_ports mem_write_ports complex_mul_latency fp_latency
           fp_div_latency gshare_bits btb_entries mispredict_penalty il1 dl1 l2 itlb dtlb
           l2tlb tlb_walk_latency mem_latency prefetch prefetch_table prefetch_degree
           vector_length : Tconfig.t ->
        {
          fetch_width;
          decode_depth;
          issue_width;
          iq_size;
          phys_regs;
          n_simple;
          n_complex;
          n_vector;
          mem_read_ports;
          mem_write_ports;
          complex_mul_latency;
          fp_latency;
          fp_div_latency;
          gshare_bits;
          btb_entries;
          mispredict_penalty;
          il1;
          dl1;
          l2;
          itlb;
          dtlb;
          l2tlb;
          tlb_walk_latency;
          mem_latency;
          prefetch;
          prefetch_table;
          prefetch_degree;
          vector_length;
        })
    |+ (int, fun (c : Tconfig.t) -> c.fetch_width)
    |+ (int, fun c -> c.decode_depth)
    |+ (int, fun c -> c.issue_width)
    |+ (int, fun c -> c.iq_size)
    |+ (int, fun c -> c.phys_regs)
    |+ (int, fun c -> c.n_simple)
    |+ (int, fun c -> c.n_complex)
    |+ (int, fun c -> c.n_vector)
    |+ (int, fun c -> c.mem_read_ports)
    |+ (int, fun c -> c.mem_write_ports)
    |+ (int, fun c -> c.complex_mul_latency)
    |+ (int, fun c -> c.fp_latency)
    |+ (int, fun c -> c.fp_div_latency)
    |+ (int, fun c -> c.gshare_bits)
    |+ (int, fun c -> c.btb_entries)
    |+ (int, fun c -> c.mispredict_penalty)
    |+ (geom, fun c -> c.il1)
    |+ (geom, fun c -> c.dl1)
    |+ (geom, fun c -> c.l2)
    |+ (tlb_geom, fun c -> c.itlb)
    |+ (tlb_geom, fun c -> c.dtlb)
    |+ (tlb_geom, fun c -> c.l2tlb)
    |+ (int, fun c -> c.tlb_walk_latency)
    |+ (int, fun c -> c.mem_latency)
    |+ (bool, fun c -> c.prefetch)
    |+ (int, fun c -> c.prefetch_table)
    |+ (int, fun c -> c.prefetch_degree)
    |+ (int, fun c -> c.vector_length)
    |> seal)

let cache : Darco_timing.Cache.persisted B.t =
  B.(
    record
      (fun p_lines p_tick p_accesses p_misses p_writebacks p_prefetch_fills
         : Darco_timing.Cache.persisted ->
        { p_lines; p_tick; p_accesses; p_misses; p_writebacks; p_prefetch_fills })
    |+ ( array (array (quad int bool bool int)),
         fun (p : Darco_timing.Cache.persisted) -> p.p_lines )
    |+ (int, fun p -> p.p_tick)
    |+ (int, fun p -> p.p_accesses)
    |+ (int, fun p -> p.p_misses)
    |+ (int, fun p -> p.p_writebacks)
    |+ (int, fun p -> p.p_prefetch_fills)
    |> seal)

let tlb : Darco_timing.Tlb.persisted B.t =
  B.(
    record (fun p_entries p_tick p_accesses p_misses : Darco_timing.Tlb.persisted ->
        { p_entries; p_tick; p_accesses; p_misses })
    |+ (array (triple int bool int), fun (p : Darco_timing.Tlb.persisted) -> p.p_entries)
    |+ (int, fun p -> p.p_tick)
    |+ (int, fun p -> p.p_accesses)
    |+ (int, fun p -> p.p_misses)
    |> seal)

let prefetch : Darco_timing.Prefetch.persisted B.t =
  B.(
    record (fun p_table p_issued p_triggered : Darco_timing.Prefetch.persisted ->
        { p_table; p_issued; p_triggered })
    |+ ( array (quad int int int int),
         fun (p : Darco_timing.Prefetch.persisted) -> p.p_table )
    |+ (int, fun p -> p.p_issued)
    |+ (int, fun p -> p.p_triggered)
    |> seal)

let predictor : Darco_timing.Predictor.persisted B.t =
  B.(
    record
      (fun p_pht p_ghr p_btb_tag p_btb_target p_branches p_mispredicts p_btb_misses
         : Darco_timing.Predictor.persisted ->
        {
          p_pht;
          p_ghr;
          p_btb_tag;
          p_btb_target;
          p_branches;
          p_mispredicts;
          p_btb_misses;
        })
    |+ (array int, fun (p : Darco_timing.Predictor.persisted) -> p.p_pht)
    |+ (int, fun p -> p.p_ghr)
    |+ (array int, fun p -> p.p_btb_tag)
    |+ (array int, fun p -> p.p_btb_target)
    |+ (int, fun p -> p.p_branches)
    |+ (int, fun p -> p.p_mispredicts)
    |+ (int, fun p -> p.p_btb_misses)
    |> seal)

let pipeline : Darco_timing.Pipeline.t B.t =
  let ring = B.(pair (array int) int) in
  B.(
    record
      (fun p_cfg p_l2 p_il1 p_dl1 p_l2tlb p_itlb p_dtlb p_pf p_bp p_int_ready p_fp_ready
           p_simple_free p_complex_free p_vector_free p_rport_free p_wport_free p_iq_ring
           p_inflight_ring p_fetch_cycle p_fetch_count p_last_fetch_line p_redirect_at
           p_last_issue p_issued_in_cycle p_horizon p_insns p_int_ops p_mul_ops p_fp_ops
           p_mem_reads p_mem_writes p_branches p_rf_reads p_rf_writes
         : Darco_timing.Pipeline.persisted ->
        {
          p_cfg;
          p_l2;
          p_il1;
          p_dl1;
          p_l2tlb;
          p_itlb;
          p_dtlb;
          p_pf;
          p_bp;
          p_int_ready;
          p_fp_ready;
          p_simple_free;
          p_complex_free;
          p_vector_free;
          p_rport_free;
          p_wport_free;
          p_iq_ring;
          p_inflight_ring;
          p_fetch_cycle;
          p_fetch_count;
          p_last_fetch_line;
          p_redirect_at;
          p_last_issue;
          p_issued_in_cycle;
          p_horizon;
          p_insns;
          p_int_ops;
          p_mul_ops;
          p_fp_ops;
          p_mem_reads;
          p_mem_writes;
          p_branches;
          p_rf_reads;
          p_rf_writes;
        })
    |+ (tconfig, fun (p : Darco_timing.Pipeline.persisted) -> p.p_cfg)
    |+ (cache, fun p -> p.p_l2)
    |+ (cache, fun p -> p.p_il1)
    |+ (cache, fun p -> p.p_dl1)
    |+ (tlb, fun p -> p.p_l2tlb)
    |+ (tlb, fun p -> p.p_itlb)
    |+ (tlb, fun p -> p.p_dtlb)
    |+ (prefetch, fun p -> p.p_pf)
    |+ (predictor, fun p -> p.p_bp)
    |+ (array int, fun p -> p.p_int_ready)
    |+ (array int, fun p -> p.p_fp_ready)
    |+ (array int, fun p -> p.p_simple_free)
    |+ (array int, fun p -> p.p_complex_free)
    |+ (array int, fun p -> p.p_vector_free)
    |+ (array int, fun p -> p.p_rport_free)
    |+ (array int, fun p -> p.p_wport_free)
    |+ (ring, fun p -> p.p_iq_ring)
    |+ (ring, fun p -> p.p_inflight_ring)
    |+ (int, fun p -> p.p_fetch_cycle)
    |+ (int, fun p -> p.p_fetch_count)
    |+ (int, fun p -> p.p_last_fetch_line)
    |+ (int, fun p -> p.p_redirect_at)
    |+ (int, fun p -> p.p_last_issue)
    |+ (int, fun p -> p.p_issued_in_cycle)
    |+ (int, fun p -> p.p_horizon)
    |+ (int, fun p -> p.p_insns)
    |+ (int, fun p -> p.p_int_ops)
    |+ (int, fun p -> p.p_mul_ops)
    |+ (int, fun p -> p.p_fp_ops)
    |+ (int, fun p -> p.p_mem_reads)
    |+ (int, fun p -> p.p_mem_writes)
    |+ (int, fun p -> p.p_branches)
    |+ (int, fun p -> p.p_rf_reads)
    |+ (int, fun p -> p.p_rf_writes)
    |> seal
    |> conv Darco_timing.Pipeline.persist (fun p ->
           try Darco_timing.Pipeline.restore p with Invalid_argument msg -> corrupt msg))

(* --- public API ---------------------------------------------------------- *)

let capture_reference ir =
  { snap_kind = Functional; sections = [ (guest_tag, B.encode guest ir) ] }

let capture ?pipeline:pipe (ctl : Darco.Controller.t) =
  (* The x86 component may lag the co-designed one between synchronization
     events; advance it to the shared clock first — the exact catch-up the
     controller would perform at the next event anyway.  This makes
     [retired] meaningful and keeps the two components' state aligned in
     the snapshot. *)
  Interp_ref.run_until ctl.reference (Darco.Tol.retired ctl.co);
  let code = code ~bus:ctl.co.bus ~reference:ctl.reference in
  let sections =
    [ (guest_tag, B.encode guest ctl.reference); (code_tag, B.encode code ctl) ]
  in
  let sections =
    match pipe with
    | None -> sections
    | Some p -> sections @ [ (timing_tag, B.encode pipeline p) ]
  in
  { snap_kind = Full; sections }

let retired t = B.decode_prefix B.int (section t guest_tag)

let guest_eip t =
  let _, _, (cpu : Cpu.t) = B.decode_prefix guest_head (section t guest_tag) in
  cpu.eip

let restore_reference t = B.decode guest (section t guest_tag)

let restore ?(bus = Darco_obs.Bus.create ()) t =
  let reference = restore_reference t in
  match t.snap_kind with
  | Functional -> Darco.Controller.of_reference ~bus reference
  | Full -> B.decode (code ~bus ~reference) (section t code_tag)

let restore_pipeline t =
  Option.map (B.decode pipeline) (List.assoc_opt timing_tag t.sections)

(* Magic and version: the first five bytes of every encoding. *)
let header body = B.(body |> const u8 version |> const tag4 magic)

(* The container: every section is one frame, and the kind names exactly
   which sections follow, in order — an unknown, missing or reordered
   section is refused, never skipped. *)
let container : t B.t =
  B.(
    record (fun snap_kind sections -> { snap_kind; sections })
    |+ ( enum "snapshot kind" [| Functional; Full |] (function
           | Functional -> 0
           | Full -> 1),
         fun t -> t.snap_kind )
    |+ (list ~len:u8 (pair tag4 (sealed raw)), fun t -> t.sections)
    |> seal
    |> conv Fun.id (fun t ->
           match (t.snap_kind, List.map fst t.sections) with
           | Functional, [ "GUST" ]
           | Full, ([ "GUST"; "CODE" ] | [ "GUST"; "CODE"; "TIMG" ]) -> t
           | _ -> corrupt "snapshot sections do not match its kind")
    |> header)

let to_string t = B.encode container t
let of_string s = B.decode container s
let check_header s = B.decode_prefix (header B.unit) s

let write_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> B.corrupt msg
  | exception End_of_file -> B.corrupt "unexpected end of file"

let manifest t =
  Jsonx.Obj
    [
      ("version", Jsonx.Int version);
      ( "kind",
        Jsonx.String (match t.snap_kind with Functional -> "functional" | Full -> "full")
      );
      ("retired", Jsonx.Int (retired t));
      ( "sections",
        Jsonx.List
          (List.map
             (fun (tag, payload) ->
               Jsonx.Obj
                 [
                   ("tag", Jsonx.String tag);
                   ("bytes", Jsonx.Int (String.length payload));
                   ("crc32", Jsonx.Int (B.crc32 payload));
                 ])
             t.sections) );
    ]

let memory_hash mem =
  let buf = Buffer.create 4096 in
  List.iter
    (fun idx ->
      Buffer.add_string buf (string_of_int idx);
      Buffer.add_bytes buf (Memory.get_page mem idx))
    (Memory.touched_pages mem);
  Digest.to_hex (Digest.string (Buffer.contents buf))
