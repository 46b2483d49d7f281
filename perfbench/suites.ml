(* The suite workloads: every registered program run on a cold TOL, either
   to completion (functional) or to a guest-instruction budget with the
   timing pipeline attached (timed). *)

module R = Darco_workloads.Registry
module Bus = Darco_obs.Bus
module Pipeline = Darco_timing.Pipeline

type prog = { entry : R.entry; program : Darco_guest.Program.t }

(* Set-up: assemble every program image (scale 1). *)
let build ?(only = fun (_ : R.entry) -> true) () =
  List.filter_map
    (fun (e : R.entry) ->
      if only e then Some { entry = e; program = e.build ~scale:1 () } else None)
    R.all

let is_physics p = p.entry.suite = R.Physicsbench

(* What listens to the retire stream: nothing (functional), a no-op
   subscriber (forces the per-instruction retire records and the [Eval]
   walker), or the timing pipeline. *)
type retire = Functional | Noop | Timed

type run = {
  prog : prog;
  insns : int;  (* guest instructions retired *)
  wall_ns : int;  (* cold TOL start to the last validation *)
  host_insns : int;  (* host application instructions *)
  stats : string;  (* every simulated statistic, as canonical text *)
  ok : bool;
}

let stats_text (s : Darco.Stats.t) =
  let ints =
    [ s.guest_im; s.guest_bbm; s.guest_sbm; s.host_app_bbm; s.host_app_sbm;
      s.bb_translations; s.sb_translations; s.sb_rebuilds_noassert;
      s.sb_rebuilds_nomem; s.assert_rollbacks; s.alias_rollbacks;
      s.page_requests; s.syscalls; s.chains_made; s.chains_followed;
      s.ibtc_fills; s.ibtc_misses; s.code_cache_flushes; s.wasted_host;
      s.validations; s.unrolled_superblocks;
      Option.value s.startup_insns ~default:(-1) ]
    @ Array.to_list s.overhead
  in
  String.concat "," (List.map string_of_int ints)

let timing_text pipe =
  let sm = Pipeline.summary pipe in
  let energy = Darco_power.Model.evaluate (Pipeline.events pipe) in
  Printf.sprintf "cycles=%d,insns=%d,ipc=%.17g,energy_j=%.17g" sm.cycles
    sm.instructions sm.ipc energy.total_joules

(* One program on a fresh controller.  [bus] carries the benchmark's own
   sinks (the traced run's fold); [budget] bounds guest instructions;
   [after] sees the finished controller, which is not kept. *)
let run_one ?(bus = Bus.create ()) ?budget ?(on_start = ignore) ?(on_stop = ignore)
    ?(after = ignore) ~seed ~retire p =
  let t0 = Util.now_ns () in
  on_start t0;
  let ctl = Darco.Controller.create ~bus ~seed p.program in
  let pipe =
    match retire with
    | Functional -> None
    | Noop ->
      Bus.on_retire bus ignore;
      None
    | Timed ->
      let pipe = Pipeline.create Darco_timing.Tconfig.default in
      Pipeline.attach pipe bus;
      Some pipe
  in
  let ok =
    match Darco.Controller.run ?max_insns:budget ctl with
    | `Done | `Limit -> true
    | `Diverged _ -> false
  in
  let t1 = Util.now_ns () in
  on_stop t1;
  let wall_ns = t1 - t0 in
  let stats = Darco.Controller.stats ctl in
  let text = p.entry.name ^ ":" ^ stats_text stats in
  let text =
    match pipe with Some pp -> text ^ ";" ^ timing_text pp | None -> text
  in
  after ctl;
  { prog = p; insns = Darco.Stats.guest_total stats;
    host_insns = Darco.Stats.host_app_total stats; wall_ns; stats = text; ok }

(* Throughput in guest instructions per host microsecond. *)
let mips runs =
  let insns = List.fold_left (fun a r -> a + r.insns) 0 runs in
  let ns = List.fold_left (fun a r -> a + r.wall_ns) 0 runs in
  float_of_int insns /. (float_of_int ns /. 1e3)

(* Each program's median run over the passes: the machine's speed wanders
   by seconds, so a slow stretch moves single samples of a few programs
   rather than a whole pass. *)
let median_runs passes =
  match passes with
  | [] -> []
  | first :: _ ->
    List.mapi
      (fun i r ->
        let ns = List.map (fun runs -> float_of_int (List.nth runs i).wall_ns) passes in
        { r with wall_ns = int_of_float (Util.median ns) })
      first

let digest runs = Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun r -> r.stats) runs)))

(* --- the timed-run split ---------------------------------------------- *)

type split = { func_s : float; noop_s : float; timed_s : float; host_insns : int }

(* The same bounded programs three ways, interleaved per program so drift
   hits all three legs alike: functional, a no-op retire subscriber, and
   the pipeline.  No-op minus functional is the cost of the retire stream
   (records plus the [Eval] fallback); timed minus no-op is
   [Pipeline.step]. *)
let split ~seed ~budget progs =
  List.fold_left
    (fun acc p ->
      let leg retire = run_one ~seed ~budget ~retire p in
      let f = leg Functional and n = leg Noop and t = leg Timed in
      {
        func_s = acc.func_s +. Util.secs f.wall_ns;
        noop_s = acc.noop_s +. Util.secs n.wall_ns;
        timed_s = acc.timed_s +. Util.secs t.wall_ns;
        host_insns = acc.host_insns + t.host_insns;
      })
    { func_s = 0.; noop_s = 0.; timed_s = 0.; host_insns = 0 }
    progs

(* --- superblock translator replay ------------------------------------- *)

(* Pass names in pipeline order, with the unit their cost is given per. *)
let replay_passes =
  [ "core.opt.forward"; "core.opt.dce"; "core.sched"; "core.regalloc";
    "core.codegen"; "core.threaded" ]

type replay = { pass_ns : int array; pass_units : int array; heads : int; skipped : int }

let replay_create () =
  let n = List.length replay_passes in
  { pass_ns = Array.make n 0; pass_units = Array.make n 0; heads = 0; skipped = 0 }

(* Rebuild every superblock head the traced run translated, unoptimized
   and unscheduled, from the controller's end-of-run profile (which can
   differ from the profile at translation time), then time each pass of
   the translator on it, [reps] times over. *)
let replay ?(reps = 5) acc (ctl : Darco.Controller.t) heads =
  let co = ctl.Darco.Controller.co in
  let cfg = Darco.Config.default in
  let raw_cfg =
    { cfg with opt_const_fold = false; opt_copy_prop = false; opt_cse = false;
      opt_dce = false; opt_rle = false; opt_schedule = false }
  in
  let built =
    List.filter_map
      (fun pc ->
        match
          Darco.Regiongen.build_superblock raw_cfg co.Darco.Tol.profile
            co.Darco.Tol.icache co.Darco.Tol.mem ~head_pc:pc
            ~use_asserts:cfg.use_asserts
            ~use_mem_speculation:cfg.use_mem_speculation
        with
        | r -> Some r.region
        | exception _ -> None)
      heads
  in
  let timed i units f x =
    let t0 = Util.now_ns () in
    let y = f x in
    acc.pass_ns.(i) <- acc.pass_ns.(i) + (Util.now_ns () - t0);
    acc.pass_units.(i) <- acc.pass_units.(i) + units;
    y
  in
  let ir (r : Darco.Regionir.t) = Array.length r.body in
  for _ = 1 to reps do
    List.iter
      (fun (r0 : Darco.Regionir.t) ->
        let r1 = timed 0 (ir r0) (Darco.Opt.forward cfg) r0 in
        let r2 = timed 1 (ir r1) Darco.Opt.dce r1 in
        let r3 = timed 2 (ir r2) (Darco.Sched.run cfg) r2 in
        let alloc = timed 3 (ir r3) Darco.Regalloc.allocate r3 in
        let code, _ =
          timed 4 (ir r3)
            (fun r ->
              Darco.Codegen.lower cfg r ~alloc ~spill_base:0x1000_0000
                ~ibtc_base:0x2000_0000)
            r3
        in
        let region =
          { Darco_host.Code.id = 0; entry_pc = r3.entry_pc; mode = `Super;
            base = 0xC000_0000; code; incoming = []; invalidated = false }
        in
        ignore (timed 5 (Array.length code) Darco.Threaded.compile region))
      built
  done;
  { acc with
    heads = acc.heads + List.length built;
    skipped = acc.skipped + List.length heads - List.length built }
