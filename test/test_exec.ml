open Darco_guest
open Darco
module Rng = Darco_util.Rng
module Bus = Darco_obs.Bus
module Stats = Darco_obs.Stats
module Snapshot = Darco_sampling.Snapshot
module Code = Darco_host.Code
module Retire = Darco_host.Retire

(* One executor ([Threaded.run]) runs every translated region, with or
   without a retire sink.  Against the walker it replaced (the oracle in
   ref_emulator.ml) it must be observably identical — same stop, same
   counters, same architectural state and, with a sink, the same retire
   stream entry by entry — on generated host code.  And the sink must be
   invisible to everything else: a whole run with a retire subscriber
   writes the same statistics, memory, output and trace bytes as one
   without, and a snapshot taken with one restores and resumes without
   it. *)

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
(* Host level: Threaded.run vs the oracle on generated host code      *)
(* ------------------------------------------------------------------ *)

let translate_straightline ?(exit_pc = 0xEE00) insns =
  let ctx = Translate.create ~entry_pc:0x1000 in
  List.iter (fun i -> Translate.translate_insn ctx i ~pc:0x1000 ~len:1) insns;
  Translate.emit_exit ctx (Ir.Xdirect exit_pc);
  Translate.finalize ctx ~mode:`Super ~prof:None

let lower_region cfg region : Code.region =
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

let same_stop (a : Threaded.stop) (b : Threaded.stop) =
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

let same_result (a : Threaded.result) (b : Threaded.result) =
  same_stop a.stop b.stop
  && a.host_retired = b.host_retired
  && a.host_bb = b.host_bb
  && a.host_super = b.host_super
  && a.guest_bb = b.guest_bb
  && a.guest_super = b.guest_super
  && a.chains_followed = b.chains_followed
  && a.wasted_host = b.wasted_host

let stop_str (s : Threaded.stop) =
  match s with
  | Stop_exit x -> Printf.sprintf "exit#%d retiring %d" x.exit_id x.guest_retired
  | Stop_indirect_miss pc -> Printf.sprintf "indirect miss 0x%x" pc
  | Stop_rollback (`Assert, r) -> Printf.sprintf "assert rollback in r%d" r.id
  | Stop_rollback (`Alias, r) -> Printf.sprintf "alias rollback in r%d" r.id
  | Stop_fault (p, r) -> Printf.sprintf "fault page %d in r%d" p r.id
  | Stop_fuel pc -> Printf.sprintf "fuel at 0x%x" pc

(* A sink of 3 entries, so flushes land mid-region, that keeps every
   entry it is handed: (pc, descriptor, address, branch word). *)
let recording_sink () =
  let got = ref [] in
  let consume (b : Retire.t) =
    for i = 0 to b.length - 1 do
      got := (b.pc.(i), b.desc.(i), b.addr.(i), b.branch.(i)) :: !got
    done
  in
  let sink : Retire.sink =
    { batch = Retire.create 3; consume; describe = Darco_timing.Pipeline.describe }
  in
  (sink, fun () -> List.rev !got)

(* The first entry at which two retire streams differ, if any. *)
let stream_diff a b =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | (pa, da, aa, ba) :: a', (pb, db, ab, bb) :: b' ->
      if pa = pb && da = db && aa = ab && ba = bb then go (i + 1) a' b'
      else
        Some
          (Printf.sprintf
             "entry %d: oracle (pc 0x%x, desc %d, addr 0x%x, branch 0x%x), executor (pc \
              0x%x, desc %d, addr 0x%x, branch 0x%x)"
             i pa da aa ba pb db ab bb)
    | _ :: _, [] | [], _ :: _ ->
      Some
        (Printf.sprintf "lengths: oracle %d entries, executor %d" (i + List.length a)
           (i + List.length b))
  in
  go 0 a b

(* Run [hw] on the oracle and on the executor, without a sink and then
   with one, and compare everything either can observe.  The executor's
   packed forms are memoized across both runs, as the code cache does. *)
let agree ?fuel ~resolve hw state =
  let memo = Hashtbl.create 4 in
  let get (r : Code.region) =
    match Hashtbl.find_opt memo r.id with
    | Some c -> c
    | None ->
      let c = Threaded.compile r in
      Hashtbl.add memo r.id c;
      c
  in
  let oracle ?retire () =
    run_host (fun m r -> Ref_emulator.run m ~resolve ?fuel ?retire r) hw state
  in
  let executor ?retire () =
    run_host (fun m r -> Threaded.run m ~resolve ~get ?fuel ?retire r) hw state
  in
  let check what (ra, ca, ma) (rb, cb, mb) =
    if not (same_result ra rb) then
      Error
        (Printf.sprintf "%s: results differ: oracle stopped with %s, executor with %s"
           what (stop_str ra.Threaded.stop) (stop_str rb.Threaded.stop))
    else if not (Cpu.equal ca cb) then
      Error
        (Printf.sprintf "%s: cpu state differs:\n%s" what
           (String.concat "\n" (Cpu.diff ca cb)))
    else if not (mem_equal ma mb) then Error (what ^ ": memory differs")
    else Ok ()
  in
  let plain_oracle = oracle () in
  match check "functional" plain_oracle (executor ()) with
  | Error _ as e -> e
  | Ok () -> (
    let sa, got_a = recording_sink () and sb, got_b = recording_sink () in
    let timed_oracle = oracle ~retire:sa () in
    match check "with a sink" timed_oracle (executor ~retire:sb ()) with
    | Error _ as e -> e
    | Ok () -> (
      match stream_diff (got_a ()) (got_b ()) with
      | Some d -> Error ("retire streams differ at " ^ d)
      | None -> Ok ()))

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
      (* odd seeds chain the region to itself and run it until fuel stops
         it, so transfers, descriptor lookups and the fuel test are
         exercised too *)
      let fuel =
        if seed mod 2 = 0 then None
        else begin
          Array.iter (function Code.Exit e -> e.chain <- Some hw | _ -> ()) hw.code;
          Some (1 + Rng.int rng 400)
        end
      in
      match agree ?fuel ~resolve:(fun _ -> None) hw state with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Edge cases the random generator cannot be trusted to hit: a Commit/Exit
   pair, the same pair with the Exit as a branch target, and an
   unconditional jump over a commit into the exit.  (The closure compiler
   that preceded the packed loop fused the pair, and these pinned where it
   must not.) *)
let test_host_fusion_cases () =
  let exit_info chain_id : Code.exit_info =
    {
      exit_id = chain_id;
      kind = Code.Exit_direct 0xEE00;
      guest_retired = 3;
      chain = None;
      prefer_bb = false;
    }
  in
  let cases =
    [
      ("commit/exit pair", [| Code.Li (0, 7); Code.Commit 3; Code.Exit (exit_info 0) |]);
      ( "exit as branch target",
        [|
          Code.Li (0, 1);
          Code.Li (1, 1);
          Code.B (Code.Beq, 0, 1, 4);
          Code.Commit 3;
          Code.Exit (exit_info 1);
        |] );
      ( "jump to exit",
        [| Code.Li (0, 7); Code.J 3; Code.Commit 9; Code.Exit (exit_info 2) |] );
    ]
  in
  List.iter
    (fun (what, code) ->
      let hw : Code.region =
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
      match agree ~resolve:(fun _ -> None) hw (random_state 7) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" what msg)
    cases

(* ------------------------------------------------------------------ *)
(* Whole runs: a retire sink changes nothing but the stream           *)
(* ------------------------------------------------------------------ *)

(* A retire subscriber that ignores every batch: the executor appends
   every retired instruction, and nothing reads the entries. *)
let make_bus ~sink =
  let bus = Bus.create () in
  if sink then Bus.on_retire bus ignore;
  bus

let executor ~sink = if sink then "with a retire sink" else "without a retire sink"

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
let traced_run ~sink (entry : Darco_workloads.Registry.entry) =
  let path = Filename.temp_file "darco_exec" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let bus = make_bus ~sink in
  let oc = Darco_obs.Trace.attach_file bus path in
  let ctl = Controller.create ~bus ~seed:1 (entry.build ~scale:1 ()) in
  let result =
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Controller.run ctl)
  in
  expect_done (entry.name ^ " " ^ executor ~sink) result;
  (final_of ctl, read_file path)

let test_sink_changes_nothing () =
  List.iter
    (fun (entry : Darco_workloads.Registry.entry) ->
      let plain, plain_trace = traced_run ~sink:false entry in
      let appended, appended_trace = traced_run ~sink:true entry in
      check_final entry.name plain appended;
      Alcotest.(check bool) (entry.name ^ ": trace bytes identical") true
        (String.equal plain_trace appended_trace))
    Darco_workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Snapshots across the two kinds of run                              *)
(* ------------------------------------------------------------------ *)

(* A full run is the same with and without a retire sink, a snapshot
   written with one is byte-identical to one written without at the same
   offset (the sink is not part of the wire format), and a snapshot
   captured with a sink restores onto a fresh bus, which has none, and
   resumes to the same final state. *)
let test_cross_engine_snapshot () =
  let program = (Darco_workloads.Registry.find "continuous").build ~scale:1 () in
  let seed = 11 in
  let offset = 50_000 in
  let cfg = { Config.quick with slice_fuel = 2_000 } in
  let create ~sink = Controller.create ~cfg ~bus:(make_bus ~sink) ~seed program in
  let unsunk ctl = Option.is_none (Bus.retire_hook (Controller.bus ctl)) in
  Alcotest.(check bool) "no sink by default" true
    (unsunk (Controller.create ~seed program));
  let full ~sink =
    let ctl = create ~sink in
    expect_done (executor ~sink ^ ", uninterrupted") (Controller.run ctl);
    final_of ctl
  in
  let want_plain = full ~sink:false in
  let want_sunk = full ~sink:true in
  check_final "uninterrupted, with and without a sink" want_plain want_sunk;
  let capture_at ~sink =
    let part = create ~sink in
    (match Controller.run ~max_insns:offset part with
    | `Limit -> ()
    | `Done -> Alcotest.fail "offset beyond program end"
    | `Diverged _ -> Alcotest.fail "diverged before offset");
    Snapshot.to_string (Snapshot.capture part)
  in
  let bytes_sunk = capture_at ~sink:true in
  let bytes_plain = capture_at ~sink:false in
  Alcotest.(check bool) "snapshot bytes sink-invariant" true
    (String.equal bytes_sunk bytes_plain);
  (* restore attaches a fresh bus with no retire subscriber *)
  let resumed = Snapshot.restore (Snapshot.of_string bytes_sunk) in
  Alcotest.(check bool) "resumes without a sink" true (unsunk resumed);
  expect_done "captured with a sink, resumed without" (Controller.run resumed);
  check_final "resume across the two kinds of run" want_plain (final_of resumed)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "exec"
    [
      ( "engines",
        [
          QCheck_alcotest.to_alcotest prop_host_engines_agree;
          Alcotest.test_case "host fusion edge cases" `Quick
            test_host_fusion_cases;
          Alcotest.test_case "retire sink changes no result" `Slow
            test_sink_changes_nothing;
          Alcotest.test_case "cross-engine snapshot" `Slow
            test_cross_engine_snapshot;
        ] );
    ]
