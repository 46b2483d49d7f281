open Darco_guest
open Darco
module Rng = Darco_util.Rng
module Bus = Darco_obs.Bus
module Stats = Darco_obs.Stats
module Snapshot = Darco_sampling.Snapshot

(* Executor equivalence: [Tol] runs a translated region on its closure
   chain ([Threaded.run]) unless the bus has a retire subscriber, and then
   on the reference walker ([Emulator.run]).  The two must be observably
   identical — same stop, same counters, same architectural state, same
   event stream — on generated host code and on every workload, and a
   snapshot taken on one must restore and resume on the other (the
   executor follows the restoring process's bus, not machine state). *)

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let copy_memory src =
  let dst = Memory.create `Auto_zero in
  List.iter
    (fun idx -> Memory.install_page dst idx (Memory.get_page src idx))
    (Memory.touched_pages src);
  dst

let random_state seed =
  let rng = Rng.create (seed + 31) in
  let cpu = Cpu.create () in
  Array.iter
    (fun r -> Cpu.set cpu r (Rng.int rng 0x10000))
    [| Isa.EAX; ECX; EDX; ESI; EDI |];
  Cpu.set cpu EBX Tgen.data_base;
  Cpu.set cpu EBP (Tgen.data_base + 512);
  Cpu.set cpu ESP Loader.stack_top;
  cpu.flags <- Rng.int rng 16;
  Array.iter (fun f -> Cpu.setf cpu f (Rng.float rng *. 16.0)) Isa.all_fregs;
  let mem = Memory.create `Auto_zero in
  for i = 0 to (Tgen.data_size / 4) - 1 do
    Memory.write32 mem (Tgen.data_base + (4 * i)) (Rng.int rng 0x1000000)
  done;
  (cpu, mem)

let mem_equal a b =
  List.for_all
    (fun idx -> Memory.equal_page a b idx)
    (List.sort_uniq compare (Memory.touched_pages a @ Memory.touched_pages b))

(* ------------------------------------------------------------------ *)
(* Host level: Threaded.run vs Emulator.run on generated host code    *)
(* ------------------------------------------------------------------ *)

let translate_straightline ?(exit_pc = 0xEE00) insns =
  let ctx = Translate.create ~entry_pc:0x1000 in
  List.iter (fun i -> Translate.translate_insn ctx i ~pc:0x1000 ~len:1) insns;
  Translate.emit_exit ctx (Ir.Xdirect exit_pc);
  Translate.finalize ctx ~mode:`Super ~prof:None

let lower_region cfg region : Darco_host.Code.region =
  let alloc = Regalloc.allocate region in
  let code, _ =
    Codegen.lower cfg region ~alloc ~spill_base:(Loader.tol_base + 0x1000)
      ~ibtc_base:Loader.tol_base
  in
  {
    id = 0;
    entry_pc = region.Regionir.entry_pc;
    mode = region.Regionir.mode;
    base = 0xC0000000;
    code;
    incoming = [];
    invalidated = false;
  }

let run_host engine_run hw (cpu0, mem0) =
  let cpu = Cpu.copy cpu0 in
  let mem = copy_memory mem0 in
  let m = Darco_host.Machine.create mem in
  Darco_host.Machine.copy_guest_in m cpu;
  let res = engine_run m hw in
  Darco_host.Machine.copy_guest_out m cpu;
  (res, cpu, mem)

let same_stop (a : Darco_host.Emulator.stop) (b : Darco_host.Emulator.stop) =
  match (a, b) with
  | Stop_exit x, Stop_exit y ->
    x == y
    || (x.exit_id = y.exit_id && x.kind = y.kind
       && x.guest_retired = y.guest_retired)
  | Stop_indirect_miss x, Stop_indirect_miss y -> x = y
  | Stop_rollback (k1, r1), Stop_rollback (k2, r2) -> k1 = k2 && r1.id = r2.id
  | Stop_fault (p1, r1), Stop_fault (p2, r2) -> p1 = p2 && r1.id = r2.id
  | Stop_fuel x, Stop_fuel y -> x = y
  | _ -> false

let same_result (a : Darco_host.Emulator.result) (b : Darco_host.Emulator.result)
    =
  same_stop a.stop b.stop
  && a.host_retired = b.host_retired
  && a.host_bb = b.host_bb
  && a.host_super = b.host_super
  && a.guest_bb = b.guest_bb
  && a.guest_super = b.guest_super
  && a.chains_followed = b.chains_followed
  && a.wasted_host = b.wasted_host

let stop_str (s : Darco_host.Emulator.stop) =
  match s with
  | Stop_exit x -> Printf.sprintf "exit#%d retiring %d" x.exit_id x.guest_retired
  | Stop_indirect_miss pc -> Printf.sprintf "indirect miss 0x%x" pc
  | Stop_rollback (`Assert, r) -> Printf.sprintf "assert rollback in r%d" r.id
  | Stop_rollback (`Alias, r) -> Printf.sprintf "alias rollback in r%d" r.id
  | Stop_fault (p, r) -> Printf.sprintf "fault page %d in r%d" p r.id
  | Stop_fuel pc -> Printf.sprintf "fuel at 0x%x" pc

let prop_host_engines_agree =
  QCheck.Test.make
    ~name:"Threaded.run matches Emulator.run on generated host code"
    ~count:150 QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 131) + 5) in
      let insns = Tgen.insn_block rng (1 + Rng.int rng 25) in
      let state = random_state seed in
      let cfg = Config.default in
      let region = Sched.run cfg (Opt.run cfg (translate_straightline insns)) in
      let hw = lower_region cfg region in
      let resolve _ = None in
      let ra, ca, ma =
        run_host (fun m r -> Darco_host.Emulator.run m ~resolve r) hw state
      in
      let get =
        let tbl = Hashtbl.create 4 in
        fun (r : Darco_host.Code.region) ->
          match Hashtbl.find_opt tbl r.id with
          | Some c -> c
          | None ->
            let c = Threaded.compile r in
            Hashtbl.add tbl r.id c;
            c
      in
      let rb, cb, mb =
        run_host (fun m r -> Threaded.run m ~resolve ~get r) hw state
      in
      if not (same_result ra rb) then
        QCheck.Test.fail_reportf
          "results differ: walker stopped with %s, threaded with %s"
          (stop_str ra.stop) (stop_str rb.stop)
      else if not (Cpu.equal ca cb) then
        QCheck.Test.fail_reportf "cpu state differs:\n%s"
          (String.concat "\n" (Cpu.diff ca cb))
      else if not (mem_equal ma mb) then
        QCheck.Test.fail_report "memory differs between engines"
      else true)

(* Fusion edge cases the random generator cannot be trusted to hit: a
   Commit/Exit pair that fuses, and the same pair with the Exit as a branch
   target (fusion must be suppressed so the branch lands on a real step). *)
let test_host_fusion_cases () =
  let exit_info chain_id : Darco_host.Code.exit_info =
    {
      exit_id = chain_id;
      kind = Darco_host.Code.Exit_direct 0xEE00;
      guest_retired = 3;
      chain = None;
      prefer_bb = false;
    }
  in
  let cases =
    [
      (* straight fused pair *)
      ( "fused commit/exit",
        [|
          Darco_host.Code.Li (0, 7);
          Darco_host.Code.Commit 3;
          Darco_host.Code.Exit (exit_info 0);
        |] );
      (* branch targets the Exit: the pair must not fuse away the target *)
      ( "exit as branch target",
        [|
          Darco_host.Code.Li (0, 1);
          Darco_host.Code.Li (1, 1);
          Darco_host.Code.B (Darco_host.Code.Beq, 0, 1, 4);
          Darco_host.Code.Commit 3;
          Darco_host.Code.Exit (exit_info 1);
        |] );
      (* unconditional jump over a commit into the exit *)
      ( "jump to exit",
        [|
          Darco_host.Code.Li (0, 7);
          Darco_host.Code.J 3;
          Darco_host.Code.Commit 9;
          Darco_host.Code.Exit (exit_info 2);
        |] );
    ]
  in
  List.iter
    (fun (what, code) ->
      let hw : Darco_host.Code.region =
        {
          id = 0;
          entry_pc = 0x1000;
          mode = `Super;
          base = 0xC0000000;
          code;
          incoming = [];
          invalidated = false;
        }
      in
      let state = random_state 7 in
      let resolve _ = None in
      let ra, ca, _ =
        run_host (fun m r -> Darco_host.Emulator.run m ~resolve r) hw state
      in
      let rb, cb, _ =
        run_host
          (fun m r -> Threaded.run m ~resolve ~get:Threaded.compile r)
          hw state
      in
      Alcotest.(check bool)
        (what ^ ": results identical")
        true (same_result ra rb);
      Tgen.check_cpu_equal what ca cb)
    cases

(* ------------------------------------------------------------------ *)
(* Whole runs: walker = chains                                        *)
(* ------------------------------------------------------------------ *)

(* A retire subscriber that ignores every record is enough to move [Tol]
   off the closure chains and onto the walker. *)
let make_bus ~walker =
  let bus = Bus.create () in
  if walker then Bus.on_retire bus ignore;
  bus

let executor ~walker = if walker then "walker" else "chains"

let expect_done what = function
  | `Done -> ()
  | `Limit -> Alcotest.failf "%s: hit instruction limit" what
  | `Diverged (d : Controller.divergence) ->
    Alcotest.failf "%s: diverged at %d:\n%s" what d.at_retired
      (String.concat "\n" d.details)

type final = {
  f_stats : Stats.t;
  f_ref_hash : string;
  f_co_hash : string;
  f_output : string;
  f_exit : int option;
}

let final_of (ctl : Controller.t) =
  {
    f_stats = Controller.stats ctl;
    f_ref_hash = Snapshot.memory_hash ctl.reference.mem;
    f_co_hash = Snapshot.memory_hash ctl.co.mem;
    f_output = Controller.output ctl;
    f_exit = Controller.exit_code ctl;
  }

let check_final what want got =
  Alcotest.(check bool) (what ^ ": final stats identical") true
    (Stats.equal want.f_stats got.f_stats);
  Alcotest.(check string) (what ^ ": guest memory hash") want.f_ref_hash
    got.f_ref_hash;
  Alcotest.(check string) (what ^ ": co-designed memory hash") want.f_co_hash
    got.f_co_hash;
  Alcotest.(check string) (what ^ ": program output") want.f_output got.f_output;
  Alcotest.(check (option int)) (what ^ ": exit code") want.f_exit got.f_exit

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One whole program at scale 1, seed 1, with its JSONL event trace. *)
let traced_run ~walker (entry : Darco_workloads.Registry.entry) =
  let path = Filename.temp_file "darco_exec" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let bus = make_bus ~walker in
  let oc = Darco_obs.Trace.attach_file bus path in
  let ctl = Controller.create ~bus ~seed:1 (entry.build ~scale:1 ()) in
  let result =
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Controller.run ctl)
  in
  expect_done (entry.name ^ " on the " ^ executor ~walker) result;
  (final_of ctl, read_file path)

let test_walker_equals_chains () =
  List.iter
    (fun (entry : Darco_workloads.Registry.entry) ->
      let chains, chains_trace = traced_run ~walker:false entry in
      let walker, walker_trace = traced_run ~walker:true entry in
      check_final entry.name chains walker;
      Alcotest.(check bool) (entry.name ^ ": trace bytes identical") true
        (String.equal chains_trace walker_trace))
    Darco_workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Cross-engine snapshot golden test                                  *)
(* ------------------------------------------------------------------ *)

(* A full run is executor-invariant, a snapshot written on the walker is
   byte-identical to one written on the chains at the same offset (the
   executor is not part of the wire format), and a snapshot captured on
   the walker restores onto a fresh bus and resumes on the chains with the
   same final state. *)
let test_cross_engine_snapshot () =
  let program = (Darco_workloads.Registry.find "continuous").build ~scale:1 () in
  let seed = 11 in
  let offset = 50_000 in
  let cfg = { Config.quick with slice_fuel = 2_000 } in
  let create ~walker =
    Controller.create ~cfg ~bus:(make_bus ~walker) ~seed program
  in
  let on_chains ctl = Option.is_none (Bus.retire_hook (Controller.bus ctl)) in
  Alcotest.(check bool) "chains are the default" true
    (on_chains (Controller.create ~seed program));
  let full ~walker =
    let ctl = create ~walker in
    expect_done (executor ~walker ^ " uninterrupted") (Controller.run ctl);
    final_of ctl
  in
  let want_chains = full ~walker:false in
  let want_walker = full ~walker:true in
  check_final "uninterrupted walker vs chains" want_chains want_walker;
  let capture_at ~walker =
    let part = create ~walker in
    (match Controller.run ~max_insns:offset part with
    | `Limit -> ()
    | `Done -> Alcotest.fail "offset beyond program end"
    | `Diverged _ -> Alcotest.fail "diverged before offset");
    Snapshot.to_string (Snapshot.capture part)
  in
  let bytes_walker = capture_at ~walker:true in
  let bytes_chains = capture_at ~walker:false in
  Alcotest.(check bool) "snapshot bytes engine-invariant" true
    (String.equal bytes_walker bytes_chains);
  (* restore attaches a fresh bus with no retire subscriber, so the
     walker-captured snapshot resumes on the chains: the cross-engine
     handoff *)
  let resumed = Snapshot.restore (Snapshot.of_string bytes_walker) in
  Alcotest.(check bool) "resumes on the chains" true (on_chains resumed);
  expect_done "captured on the walker, resumed on the chains"
    (Controller.run resumed);
  check_final "cross-engine resume" want_chains (final_of resumed)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "exec"
    [
      ( "engines",
        [
          QCheck_alcotest.to_alcotest prop_host_engines_agree;
          Alcotest.test_case "host fusion edge cases" `Quick
            test_host_fusion_cases;
          Alcotest.test_case "walker = chains on 31 workloads" `Slow
            test_walker_equals_chains;
          Alcotest.test_case "cross-engine snapshot" `Slow
            test_cross_engine_snapshot;
        ] );
    ]
