open Darco_guest
open Darco_host
module Bus = Darco_obs.Bus
module Event = Darco_obs.Event

type event =
  | Ev_syscall of int
  | Ev_halt
  | Ev_page_fault of int
  | Ev_checkpoint

type t = {
  mutable cfg : Config.t;
  stats : Stats.t;
  bus : Bus.t;
  cpu : Cpu.t;
  mem : Memory.t;
  machine : Machine.t;
  icache : Step.icache;
  profile : Profile.t;
  tolmem : Tolmem.t;
  codecache : Codecache.t;
  (* speculation-failure bookkeeping *)
  fails : (int, int) Hashtbl.t;                    (* region id -> rollbacks *)
  deopt : (int, bool * bool) Hashtbl.t;            (* pc -> (no_asserts, no_memspec) *)
}

let create ?(bus = Bus.create ()) cfg initial =
  let mem = Memory.create `Fault in
  let tolmem = Tolmem.create mem in
  let stats = Stats.create () in
  Stats.charge stats Ov_other cfg.Config.costs.init_once;
  if Bus.active bus then
    Bus.emit bus ~at:0 (Event.Init { cost = cfg.Config.costs.init_once });
  {
    cfg;
    stats;
    bus;
    cpu = Cpu.copy initial;
    mem;
    machine = Machine.create mem;
    icache = Step.icache_create ();
    profile = Profile.create tolmem;
    tolmem;
    codecache = Codecache.create ~bus cfg tolmem stats;
    fails = Hashtbl.create 64;
    deopt = Hashtbl.create 64;
  }

let retired t = Stats.guest_total t.stats

let charge t cat n = Stats.charge t.stats cat n

let emit t ev = Bus.emit t.bus ~at:(retired t) ev
let tracing t = Bus.active t.bus

let install_page t idx data =
  t.stats.page_requests <- t.stats.page_requests + 1;
  if tracing t then emit t (Event.Page_install { index = idx });
  Memory.install_page t.mem idx data

let interpret_one t = Interp.step_one t.bus t.cfg t.stats t.icache t.cpu t.mem

let service_complete_syscall t effects ~len =
  let eip = t.cpu.eip in
  t.stats.syscalls <- t.stats.syscalls + 1;
  List.iter
    (fun (e : Syscall.effect) ->
      match e with
      | Syscall.Set_reg (r, v) -> Cpu.set t.cpu r v
      | Syscall.Mem_write (addr, data) ->
        (* Pages were synchronized by the controller before replay. *)
        Memory.blit_bytes t.mem addr data
      | Syscall.Exit _ -> t.cpu.halted <- true)
    effects;
  t.cpu.eip <- Semantics.mask32 (t.cpu.eip + len);
  t.stats.guest_im <- t.stats.guest_im + 1;
  charge t Ov_other t.cfg.costs.dispatch_other;
  if tracing t then
    emit t (Event.Syscall { eip; cost = t.cfg.costs.dispatch_other })

(* --- translation management -------------------------------------------- *)

let deopt_flags t pc =
  Option.value (Hashtbl.find_opt t.deopt pc) ~default:(false, false)

let translate_bb t pc =
  let rir = Regiongen.translate_bb t.cfg t.profile t.icache t.mem pc in
  let cost =
    t.cfg.costs.bb_translate_base + (t.cfg.costs.bb_translate_per_insn * rir.guest_len)
  in
  charge t Ov_bb_translate cost;
  t.stats.bb_translations <- t.stats.bb_translations + 1;
  let region = Codecache.insert t.codecache t.cfg rir in
  if tracing t then
    emit t
      (Event.Bb_translated
         {
           pc;
           guest_len = rir.guest_len;
           host_len = Array.length region.code;
           cost;
         });
  region

let build_superblock t pc =
  let no_asserts, no_mem = deopt_flags t pc in
  let result =
    Regiongen.build_superblock t.cfg t.profile t.icache t.mem ~head_pc:pc
      ~use_asserts:(t.cfg.use_asserts && not no_asserts)
      ~use_mem_speculation:(t.cfg.use_mem_speculation && not no_mem)
  in
  let cost =
    t.cfg.costs.sb_translate_base
    + (t.cfg.costs.sb_translate_per_insn * result.region.guest_len)
  in
  charge t Ov_sb_translate cost;
  t.stats.sb_translations <- t.stats.sb_translations + 1;
  if result.unrolled then
    t.stats.unrolled_superblocks <- t.stats.unrolled_superblocks + 1;
  (* The BB translation of the head is superseded (the paper invalidates
     and frees it). *)
  (match Codecache.find t.codecache ~prefer_bb:true pc with
  | Some old when old.mode = `Bb -> Codecache.invalidate t.codecache old
  | Some _ | None -> ());
  let region = Codecache.insert t.codecache t.cfg result.region in
  if tracing t then
    emit t
      (Event.Sb_translated
         {
           pc;
           guest_len = result.region.guest_len;
           host_len = Array.length region.code;
           cost;
           unrolled = result.unrolled;
         });
  region

(* A speculation failure beyond the limit: retranslate less aggressively. *)
let handle_speculation_failure t kind (region : Code.region) =
  (match kind with
  | `Assert -> t.stats.assert_rollbacks <- t.stats.assert_rollbacks + 1
  | `Alias -> t.stats.alias_rollbacks <- t.stats.alias_rollbacks + 1);
  if tracing t then
    emit t
      (Event.Rollback
         {
           kind = (match kind with `Assert -> Event.Rb_assert | `Alias -> Event.Rb_alias);
           pc = region.entry_pc;
         });
  let count = 1 + Option.value (Hashtbl.find_opt t.fails region.id) ~default:0 in
  Hashtbl.replace t.fails region.id count;
  if count > t.cfg.assert_fail_limit then begin
    let pc = region.entry_pc in
    let no_asserts, no_mem = deopt_flags t pc in
    (match kind with
    | `Assert ->
      Hashtbl.replace t.deopt pc (true, no_mem);
      t.stats.sb_rebuilds_noassert <- t.stats.sb_rebuilds_noassert + 1
    | `Alias ->
      Hashtbl.replace t.deopt pc (no_asserts, true);
      t.stats.sb_rebuilds_nomem <- t.stats.sb_rebuilds_nomem + 1);
    if tracing t then
      emit t
        (Event.Deopt_rebuild
           {
             kind =
               (match kind with
               | `Assert -> Event.De_noassert
               | `Alias -> Event.De_nomem);
             pc;
           });
    Codecache.invalidate t.codecache region;
    ignore (build_superblock t pc)
  end

(* --- the dispatch loop -------------------------------------------------- *)

let account t ~pc (res : Threaded.result) =
  if t.stats.guest_sbm = 0 && res.guest_super > 0 then Stats.note_sbm_start t.stats;
  t.stats.guest_bbm <- t.stats.guest_bbm + res.guest_bb;
  t.stats.guest_sbm <- t.stats.guest_sbm + res.guest_super;
  t.stats.host_app_bbm <- t.stats.host_app_bbm + res.host_bb;
  t.stats.host_app_sbm <- t.stats.host_app_sbm + res.host_super;
  t.stats.chains_followed <- t.stats.chains_followed + res.chains_followed;
  t.stats.wasted_host <- t.stats.wasted_host + res.wasted_host;
  if tracing t then
    emit t
      (Event.Region_exec
         {
           pc;
           guest_bb = res.guest_bb;
           guest_sb = res.guest_super;
           host_bb = res.host_bb;
           host_sb = res.host_super;
           chains_followed = res.chains_followed;
           wasted_host = res.wasted_host;
         })

(* Per-iteration dispatch charges go to the stats immediately (unchanged
   behaviour) and accumulate per category so one batched [Slice_end] event
   carries them, keeping the dispatch loop off the bus. *)
let bump t acc cat n =
  Stats.charge t.stats cat n;
  acc.(Stats.overhead_index cat) <- acc.(Stats.overhead_index cat) + n

let try_chain t acc (e : Code.exit_info) target =
  if t.cfg.use_chaining then begin
    bump t acc Ov_chaining t.cfg.costs.chain_attempt;
    match Codecache.find t.codecache ~prefer_bb:e.prefer_bb target with
    | Some r -> Codecache.chain t.codecache e r
    | None -> ()
  end

let try_ibtc_fill t acc guest_pc =
  t.stats.ibtc_misses <- t.stats.ibtc_misses + 1;
  if tracing t then emit t (Event.Ibtc_miss { pc = guest_pc });
  if t.cfg.use_ibtc then
    match Codecache.find t.codecache guest_pc with
    | Some r ->
      bump t acc Ov_other t.cfg.costs.ibtc_fill;
      Codecache.ibtc_fill t.codecache ~guest_pc r
    | None -> ()

let stop_reason = function
  | Ev_syscall _ -> Event.St_syscall
  | Ev_halt -> Event.St_halt
  | Ev_page_fault _ -> Event.St_page_fault
  | Ev_checkpoint -> Event.St_checkpoint

let run_slice t =
  if tracing t then emit t Event.Slice_start;
  let acc = Array.make 7 0 in
  let slice_end = retired t + t.cfg.slice_fuel in
  let resolve base = Codecache.resolve_base t.codecache base in
  let get region = Codecache.compiled t.codecache region in
  let rec loop () =
    if t.cpu.halted then Ev_halt
    else if retired t >= slice_end then Ev_checkpoint
    else begin
      let pc = t.cpu.eip in
      bump t acc Ov_other t.cfg.costs.dispatch_other;
      bump t acc Ov_cc_lookup t.cfg.costs.cc_lookup;
      match Codecache.find t.codecache pc with
      | Some region -> run_region region
      | None ->
        if
          Profile.interp_count t.profile pc >= t.cfg.bb_threshold
          && (Gbb.decode t.icache t.mem pc).insn_count > 0
        then begin
          ignore (translate_bb t pc);
          loop ()
        end
        else begin
          match Interp.step_bb t.bus t.cfg t.stats t.profile t.icache t.cpu t.mem with
          | `Next -> loop ()
          | `Syscall -> Ev_syscall t.cpu.eip
          | `Halt -> Ev_halt
        end
    end
  and run_region region =
    bump t acc Ov_prologue t.cfg.costs.prologue;
    Machine.copy_guest_in t.machine t.cpu;
    let fuel = (8 * (slice_end - retired t)) + 2_000 in
    (* the retire subscriber, when there is one (the timing pipeline),
       takes the batched stream as it stands: nothing is built per call *)
    let res =
      Threaded.run t.machine ~resolve ~get ~fuel ?retire:(Bus.retire_hook t.bus) region
    in
    account t ~pc:region.entry_pc res;
    Machine.copy_guest_out t.machine t.cpu;
    match res.stop with
    | Stop_exit e -> begin
      match e.kind with
      | Exit_direct target ->
        t.cpu.eip <- target;
        try_chain t acc e target;
        loop ()
      | Exit_indirect reg ->
        let target = Machine.get t.machine reg in
        t.cpu.eip <- target;
        try_ibtc_fill t acc target;
        loop ()
      | Exit_syscall pc ->
        t.cpu.eip <- pc;
        Ev_syscall pc
      | Exit_interp pc ->
        t.cpu.eip <- pc;
        interpret_one t;
        loop ()
      | Exit_promote pc ->
        t.cpu.eip <- pc;
        ignore (build_superblock t pc);
        loop ()
      | Exit_halt ->
        t.cpu.halted <- true;
        Ev_halt
    end
    | Stop_indirect_miss gpc ->
      t.cpu.eip <- gpc;
      try_ibtc_fill t acc gpc;
      loop ()
    | Stop_rollback (kind, failed_region) -> begin
      t.cpu.eip <- failed_region.entry_pc;
      handle_speculation_failure t kind failed_region;
      (* Forward progress through the interpreter, as the paper requires
         after a speculation failure. *)
      match Interp.step_bb t.bus t.cfg t.stats t.profile t.icache t.cpu t.mem with
      | `Next -> loop ()
      | `Syscall -> Ev_syscall t.cpu.eip
      | `Halt -> Ev_halt
    end
    | Stop_fault (page, faulted_region) ->
      t.cpu.eip <- faulted_region.entry_pc;
      Ev_page_fault page
    | Stop_fuel gpc ->
      t.cpu.eip <- gpc;
      loop ()
  in
  let ev = try loop () with Memory.Page_fault p -> Ev_page_fault p in
  if tracing t then begin
    let overheads = ref [] in
    List.iter
      (fun cat ->
        let n = acc.(Stats.overhead_index cat) in
        if n > 0 then overheads := (cat, n) :: !overheads)
      Stats.all_overheads;
    emit t (Event.Slice_end { stop = stop_reason ev; overheads = !overheads })
  end;
  ev
