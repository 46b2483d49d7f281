open Darco_guest
open Darco
module Rng = Darco_util.Rng

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let copy_memory src =
  let dst = Memory.create `Auto_zero in
  List.iter
    (fun idx -> Memory.install_page dst idx (Memory.get_page src idx))
    (Memory.touched_pages src);
  dst

let random_guest_state seed =
  let rng = Rng.create (seed + 13) in
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

(* Every value must be defined exactly once and before its first use —
   the invariant the whole pipeline relies on (checked after each pass). *)
let check_ssa_discipline what (r : Regionir.t) =
  let defined = Hashtbl.create 64 and fdefined = Hashtbl.create 64 in
  Array.iteri
    (fun i insn ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem defined v) then
            Alcotest.failf "%s: @%d uses v%d before its definition" what i v)
        (Ir.uses insn);
      List.iter
        (fun v ->
          if not (Hashtbl.mem fdefined v) then
            Alcotest.failf "%s: @%d uses vf%d before its definition" what i v)
        (Ir.fuses insn);
      List.iter
        (fun v ->
          if Hashtbl.mem defined v then
            Alcotest.failf "%s: v%d defined twice (at @%d)" what v i;
          Hashtbl.replace defined v ())
        (Ir.defs insn);
      List.iter (fun v -> Hashtbl.replace fdefined v ()) (Ir.fdefs insn))
    r.body

let translate_straightline ?(exit_pc = 0xEE00) insns =
  let ctx = Translate.create ~entry_pc:0x1000 in
  List.iter (fun i -> Translate.translate_insn ctx i ~pc:0x1000 ~len:1) insns;
  Translate.emit_exit ctx (Ir.Xdirect exit_pc);
  Translate.finalize ctx ~mode:`Super ~prof:None

(* Run region IR against a copy of the given state. *)
let eval_ir region (cpu0, mem0) =
  let cpu = Cpu.copy cpu0 in
  let mem = copy_memory mem0 in
  match Ir_eval.run region cpu mem with
  | Ir_eval.Exited (_, _) -> `State (cpu, mem)
  | Ir_eval.Assert_failed -> Alcotest.fail "unexpected assert failure in straight-line IR"
  | Ir_eval.Alias_failed ->
    (* hardware alias protection fired; the system rolls back and
       retranslates, so the stage comparison is vacuous *)
    `Rolled_back

(* Run the region through regalloc + codegen + the host emulator. *)
let eval_host cfg region (cpu0, mem0) =
  let cpu = Cpu.copy cpu0 in
  let mem = copy_memory mem0 in
  let alloc = Regalloc.allocate region in
  let code, _ =
    Codegen.lower cfg region ~alloc ~spill_base:(Loader.tol_base + 0x1000)
      ~ibtc_base:Loader.tol_base
  in
  let hw : Darco_host.Code.region =
    {
      id = 0;
      entry_pc = region.entry_pc;
      mode = region.mode;
      base = 0xC0000000;
      code;
      incoming = [];
      invalidated = false;
    }
  in
  let m = Darco_host.Machine.create mem in
  Darco_host.Machine.copy_guest_in m cpu;
  match (Darco.Threaded.run m ~resolve:(fun _ -> None) ~get:Darco.Threaded.compile hw).stop with
  | Darco.Threaded.Stop_exit _ ->
    Darco_host.Machine.copy_guest_out m cpu;
    `State (cpu, mem)
  | Darco.Threaded.Stop_rollback (`Alias, _) -> `Rolled_back
  | _ -> Alcotest.fail "host run did not exit normally"

(* Reference: interpret the same instructions with the shared stepper. *)
let eval_interp insns (cpu0, mem0) =
  let cpu = Cpu.copy cpu0 in
  let mem = copy_memory mem0 in
  let a = Asm.create ~base:0x1000 () in
  List.iter (Asm.insn a) insns;
  Asm.insn a Halt;
  let p = Asm.assemble a in
  (* place code far from the data region *)
  List.iter (fun (addr, b) -> Memory.blit_bytes mem addr b) p.Program.chunks;
  cpu.eip <- 0x1000;
  let ic = Step.icache_create () in
  while not cpu.Cpu.halted do
    ignore (Step.step ic cpu mem)
  done;
  cpu.halted <- false;
  (cpu, mem)

let compare_states what outcome_a (cpu_b, mem_b) =
  match outcome_a with
  | `Rolled_back -> ()
  | `State (cpu_a, mem_a) ->
    let a = Cpu.copy cpu_a and b = Cpu.copy cpu_b in
    a.eip <- 0;
    b.eip <- 0;
    Tgen.check_cpu_equal what a b;
    (* ignore the code page the interpreter wrote and TOL-internal pages *)
    let interesting idx =
      let base = Memory.page_base idx in
      base >= Tgen.data_base && base < Loader.tol_base
    in
    List.iter
      (fun idx ->
        if interesting idx && not (Memory.equal_page mem_a mem_b idx) then
          Alcotest.failf "%s: memory page 0x%x differs" what (Memory.page_base idx))
      (List.sort_uniq compare (Memory.touched_pages mem_a @ Memory.touched_pages mem_b))

(* The central property: interpreter semantics = translated IR = optimized
   IR = scheduled IR = generated host code, for random instruction blocks. *)
let differential_case seed =
  let rng = Rng.create (seed * 97) in
  let insns = Tgen.insn_block rng (1 + Rng.int rng 25) in
  let state = random_guest_state seed in
  let cfg = Config.default in
  let reference = eval_interp insns state in
  let raw = translate_straightline insns in
  check_ssa_discipline "raw translation" raw;
  compare_states "translated IR vs interpreter" (eval_ir raw state) reference;
  let optimized = Opt.run cfg raw in
  check_ssa_discipline "optimized" optimized;
  compare_states "optimized IR vs interpreter" (eval_ir optimized state) reference;
  let scheduled = Sched.run cfg optimized in
  check_ssa_discipline "scheduled" scheduled;
  compare_states "scheduled IR vs interpreter" (eval_ir scheduled state) reference;
  compare_states "host code vs interpreter" (eval_host cfg scheduled state) reference;
  (* and with every optimization disabled, the dumb path must also agree *)
  let dumb =
    {
      cfg with
      opt_const_fold = false;
      opt_copy_prop = false;
      opt_cse = false;
      opt_dce = false;
      opt_rle = false;
      opt_schedule = false;
    }
  in
  compare_states "unoptimized host code vs interpreter" (eval_host dumb raw state) reference;
  true

let prop_differential =
  QCheck.Test.make ~name:"interpreter = IR = optimized = scheduled = host code"
    ~count:300 QCheck.small_int differential_case

(* ------------------------------------------------------------------ *)
(* Optimizer unit tests                                               *)
(* ------------------------------------------------------------------ *)

let plain_exit : Ir.exit_spec =
  { target = Ir.Xdirect 0x2000; retired = 1; prefer_bb = false; edge = None }

let region_of body : Regionir.t =
  { entry_pc = 0x1000; mode = `Super; body; prof = None; guest_len = 1 }

let test_const_folding () =
  let r =
    region_of
      [|
        Ir.Ili (0, 2);
        Ir.Ili (1, 3);
        Ir.Ibin (Add, 2, 0, 1);
        Ir.Iput (EAX, 2);
        Ir.Iexit plain_exit;
      |]
  in
  let r' = Opt.run Config.default r in
  let folded =
    Array.exists (function Ir.Ili (2, 5) -> true | _ -> false) r'.body
  in
  Alcotest.(check bool) "2+3 folded to 5" true folded

let test_dce_removes_dead () =
  let r =
    region_of
      [| Ir.Ili (0, 99); Ir.Ili (1, 7); Ir.Iput (EAX, 1); Ir.Iexit plain_exit |]
  in
  let r' = Opt.run Config.default r in
  Alcotest.(check bool) "dead Ili removed" false
    (Array.exists (function Ir.Ili (_, 99) -> true | _ -> false) r'.body)

let test_dce_keeps_stores () =
  let r =
    region_of
      [| Ir.Ili (0, Tgen.data_base); Ir.Ili (1, 7); Ir.Istore (W32, 1, 0, 0); Ir.Iexit plain_exit |]
  in
  let r' = Opt.run Config.default r in
  Alcotest.(check bool) "store survives" true
    (Array.exists (function Ir.Istore _ -> true | _ -> false) r'.body)

let test_cse_dedups () =
  let r =
    region_of
      [|
        Ir.Iget (0, EAX);
        Ir.Iget (1, ECX);
        Ir.Ibin (Add, 2, 0, 1);
        Ir.Ibin (Add, 3, 0, 1);
        Ir.Iput (EDX, 2);
        Ir.Iput (ESI, 3);
        Ir.Iexit plain_exit;
      |]
  in
  let r' = Opt.run Config.default r in
  let adds =
    Array.fold_left
      (fun acc i -> match i with Ir.Ibin (Add, _, _, _) -> acc + 1 | _ -> acc)
      0 r'.body
  in
  Alcotest.(check int) "one add remains" 1 adds

let test_rle_forwards_store () =
  let r =
    region_of
      [|
        Ir.Ili (0, Tgen.data_base);
        Ir.Iget (1, EAX);
        Ir.Istore (W32, 1, 0, 8);
        Ir.Iload (W32, false, 2, 0, 8);
        Ir.Iput (ECX, 2);
        Ir.Iexit plain_exit;
      |]
  in
  let r' = Opt.run Config.default r in
  Alcotest.(check bool) "load eliminated" false
    (Array.exists (function Ir.Iload _ -> true | _ -> false) r'.body)

let test_rle_respects_aliasing () =
  (* an intervening store through an unknown base must kill the entry *)
  let r =
    region_of
      [|
        Ir.Ili (0, Tgen.data_base);
        Ir.Iget (1, EAX);
        Ir.Iget (5, ECX);
        Ir.Istore (W32, 1, 0, 8);
        Ir.Istore (W32, 1, 5, 0);
        Ir.Iload (W32, false, 2, 0, 8);
        Ir.Iput (ECX, 2);
        Ir.Iexit plain_exit;
      |]
  in
  let r' = Opt.run Config.default r in
  Alcotest.(check bool) "load survives may-alias store" true
    (Array.exists (function Ir.Iload _ -> true | _ -> false) r'.body)

(* ------------------------------------------------------------------ *)
(* Register allocator under pressure                                  *)
(* ------------------------------------------------------------------ *)

let test_regalloc_spills_correctly () =
  let n = 70 in
  let body = ref [] in
  for i = 0 to n - 1 do
    body := Ir.Ili (i, (i * 7) + 1) :: !body
  done;
  (* consume them all so every value stays live to the end *)
  let acc = ref n in
  for i = 1 to n - 1 do
    let d = n + i in
    body := Ir.Ibin (Add, d, (if i = 1 then 0 else !acc), i) :: !body;
    acc := d
  done;
  body := Ir.Iput (EAX, !acc) :: !body;
  body := Ir.Iexit plain_exit :: !body;
  let region = region_of (Array.of_list (List.rev !body)) in
  let alloc = Regalloc.allocate region in
  let spills =
    let count = ref 0 in
    Array.iter (function Regalloc.Slot _ -> incr count | Regalloc.Phys _ -> ()) alloc.int_loc;
    !count
  in
  Alcotest.(check bool) "pressure forced spills" true (spills > 0);
  let state = random_guest_state 3 in
  let expected = List.fold_left (fun acc i -> acc + (i * 7) + 1) 0 (List.init n (fun i -> i)) in
  match eval_host Config.default region state with
  | `State (cpu, _) ->
    Alcotest.(check int) "spilled computation correct" (Semantics.mask32 expected)
      (Cpu.get cpu EAX)
  | `Rolled_back -> Alcotest.fail "unexpected rollback" 

(* The array-based allocator against the list-based one it replaced
   (test/ref_regalloc.ml): the same locations for every register, and the
   same slot count. *)
let allocates_like_reference region =
  Regalloc.allocate region = Ref_regalloc.allocate region

(* Live at once, at the busiest index: a register is live from its first
   mention to its last. *)
let max_live body ~defs ~uses =
  let first = Hashtbl.create 64 and last = Hashtbl.create 64 in
  Array.iteri
    (fun i insn ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem first v) then Hashtbl.replace first v i;
          Hashtbl.replace last v i)
        (defs insn @ uses insn))
    body;
  let live = Array.make (Array.length body) 0 in
  Hashtbl.iter
    (fun v s ->
      for i = s to Hashtbl.find last v do
        live.(i) <- live.(i) + 1
      done)
    first;
  Array.fold_left Int.max 0 live

(* A region of random instructions over more int and FP registers than the
   pools hold (40 and 20).  Most operands come from a window that slides
   along the body, so intervals start and end throughout it (expiry, FIFO
   reuse); the rest come from anywhere, so many stay live at once (spills
   and victim steals).  A register may be used before any def, or twice in
   one instruction. *)
let pressure_region st =
  let len = 160 + Random.State.int st 160 in
  let nv = 50 + Random.State.int st 100 and nf = 25 + Random.State.int st 30 in
  let width = 4 + Random.State.int st 40 in
  let pick n i =
    if Random.State.bool st then Random.State.int st n
    else Int.min (n - 1) ((i * n / len) + Random.State.int st width)
  in
  let insn i =
    let v () = pick nv i and f () = pick nf i in
    match Random.State.int st 9 with
    | 0 -> Ir.Ili (v (), i)
    | 1 -> Ir.Ibin (Add, v (), v (), v ())
    | 2 -> Ir.Iisel (v (), v (), v (), v ())
    | 3 -> Ir.Istore (W32, v (), v (), 0)
    | 4 -> Ir.Irt_div { signed = false; q = v (); r = v (); hi = v (); lo = v (); d = v () }
    | 5 -> Ir.Ifbin (Fadd, f (), f (), f ())
    | 6 -> Ir.Ifcmp (v (), f (), f ())
    | 7 -> Ir.Icvtif (f (), v ())
    | _ -> Ir.Ifstore (f (), v (), 0)
  in
  region_of (Array.append (Array.init len insn) [| Ir.Iexit plain_exit |])

let prop_regalloc_matches_reference =
  QCheck.Test.make ~count:300 ~name:"allocator equals the reference under pressure"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let r = pressure_region (Random.State.make [| seed |]) in
      (* a few short or narrow draws stay inside a pool; they prove nothing *)
      QCheck.assume
        (max_live r.body ~defs:Ir.defs ~uses:Ir.uses > 40
        && max_live r.body ~defs:Ir.fdefs ~uses:Ir.fuses > 20);
      allocates_like_reference r)

(* Every BB and superblock head the 31 workloads translate in a
   200k-instruction run, rebuilt from the end-of-run profile as perfbench's
   translator replay does, allocates as the reference does. *)
let test_regalloc_matches_reference_on_workloads () =
  let compared = ref 0 and skipped = ref 0 in
  List.iter
    (fun (w : Darco_workloads.Registry.entry) ->
      let bus = Darco_obs.Bus.create () in
      let heads = ref [] in
      Darco_obs.Bus.attach bus ~name:"heads" (fun ~at:_ -> function
        | Darco_obs.Event.Bb_translated { pc; _ } -> heads := (`Bb, pc) :: !heads
        | Darco_obs.Event.Sb_translated { pc; _ } -> heads := (`Sb, pc) :: !heads
        | _ -> ());
      let ctl = Controller.create ~bus ~seed:3 (w.build ()) in
      ignore (Controller.run ~max_insns:200_000 ctl);
      let co = ctl.co in
      let build (kind, pc) =
        match kind with
        | `Bb -> Regiongen.translate_bb co.cfg co.profile co.icache co.mem pc
        | `Sb ->
          (Regiongen.build_superblock co.cfg co.profile co.icache co.mem ~head_pc:pc
             ~use_asserts:co.cfg.use_asserts ~use_mem_speculation:co.cfg.use_mem_speculation)
            .region
      in
      List.iter
        (fun ((kind, pc) as head) ->
          match build head with
          | exception _ -> incr skipped
          | r ->
            if not (allocates_like_reference r) then
              Alcotest.failf "%s: %s head %#x allocated unlike the reference" w.name
                (match kind with `Bb -> "BB" | `Sb -> "superblock")
                pc;
            incr compared)
        !heads)
    Darco_workloads.Registry.all;
  Alcotest.(check bool)
    (Printf.sprintf "regions compared (%d, %d not rebuilt)" !compared !skipped)
    true
    (!compared > 1000 && !skipped * 20 < !compared)

(* ------------------------------------------------------------------ *)
(* Branch fusion / condition lowering                                 *)
(* ------------------------------------------------------------------ *)

let test_branch_fusion_avoids_mkfl () =
  let ctx = Translate.create ~entry_pc:0x1000 in
  Translate.translate_insn ctx (Cmp (Reg EAX, Reg ECX)) ~pc:0 ~len:1;
  (match Translate.lower_cond ctx Isa.L with
  | Translate.Cfused (Blt, _, _) -> ()
  | _ -> Alcotest.fail "cmp+jl should fuse to blt");
  Translate.emit_exit ctx (Ir.Xdirect 0);
  let r = Translate.finalize ctx ~mode:`Super ~prof:None in
  (* the flags ARE live out, so exactly one Mkfl materializes them at exit *)
  let mkfls =
    Array.fold_left
      (fun acc i -> match i with Ir.Imkfl _ -> acc + 1 | _ -> acc)
      0 r.body
  in
  Alcotest.(check int) "one materialization at exit" 1 mkfls

let test_dead_flags_not_materialized () =
  (* two back-to-back flag producers: only the last is architecturally
     visible, so only one Mkfl should remain after DCE *)
  let r =
    translate_straightline
      [ Alu (Add, Reg EAX, Reg ECX); Alu (Sub, Reg EDX, Reg ESI) ]
  in
  let r' = Opt.run Config.default r in
  let mkfls =
    Array.fold_left
      (fun acc i -> match i with Ir.Imkfl _ -> acc + 1 | _ -> acc)
      0 r'.body
  in
  Alcotest.(check int) "dead flag computation dropped" 1 mkfls

(* ------------------------------------------------------------------ *)
(* Gbb decoding                                                       *)
(* ------------------------------------------------------------------ *)

let decode_first insns =
  let a = Asm.create ~base:0x1000 () in
  List.iter (Asm.insn a) insns;
  let p = Asm.assemble a in
  let _, mem = Loader.boot p in
  Gbb.decode (Step.icache_create ()) mem 0x1000

let test_gbb_terminators () =
  let bb = decode_first [ Nop; Jmp 0x2000 ] in
  (match bb.term with Gbb.Tjmp 0x2000 -> () | _ -> Alcotest.fail "tjmp");
  Alcotest.(check int) "counts terminator" 2 bb.insn_count;
  let bb = decode_first [ Jcc (NE, 0x3000) ] in
  (match bb.term with
  | Gbb.Tjcc (NE, 0x3000, fall) -> Alcotest.(check bool) "fallthrough" true (fall > 0x1000)
  | _ -> Alcotest.fail "tjcc");
  let bb = decode_first [ Ret ] in
  (match bb.term with Gbb.Tret -> () | _ -> Alcotest.fail "tret");
  let bb = decode_first [ Mov (Reg EAX, Imm 1); Str (Movs, W8, Rep) ] in
  (match bb.term with
  | Gbb.Tinterp pc -> Alcotest.(check bool) "rep is interp-only" true (pc > 0x1000)
  | _ -> Alcotest.fail "tinterp");
  Alcotest.(check int) "rep not counted in block" 1 bb.insn_count;
  let bb = decode_first [ Syscall ] in
  match bb.term with Gbb.Tsyscall 0x1000 -> () | _ -> Alcotest.fail "tsyscall"

(* ------------------------------------------------------------------ *)
(* Superblocks: unrolled counted loop vs interpreter                   *)
(* ------------------------------------------------------------------ *)

let test_unrolled_loop_correct () =
  List.iter
    (fun count ->
      let a = Asm.create ~base:0x1000 () in
      Asm.insn a (Mov (Reg EAX, Imm 0));
      Asm.insn a (Mov (Reg ECX, Imm count));
      Asm.label a "head";
      Asm.insn a (Alu (Add, Reg EAX, Reg ECX));
      Asm.insn a (Dec (Reg ECX));
      Asm.jcc a NE "head";
      Asm.insn a Halt;
      let p = Asm.assemble a in
      (* reference *)
      let r = Interp_ref.boot ~seed:0 p in
      ignore (Interp_ref.run_to_halt r);
      (* superblock path: evaluate the region, chasing self re-entries *)
      let cpu, mem = Loader.boot p in
      Cpu.set cpu EAX 0;
      Cpu.set cpu ECX count;
      let head = Program.symbol p "head" in
      cpu.eip <- head;
      let tolmem = Tolmem.create (copy_memory mem) in
      let profile = Profile.create tolmem in
      let sb =
        Regiongen.build_superblock Config.default profile (Step.icache_create ()) mem
          ~head_pc:head ~use_asserts:true ~use_mem_speculation:true
      in
      Alcotest.(check bool) "loop was unrolled" true sb.unrolled;
      let guard = ref 0 in
      let rec chase () =
        incr guard;
        if !guard > 10000 then Alcotest.fail "runaway loop";
        match Ir_eval.run sb.region cpu mem with
        | Ir_eval.Exited (_, pc) when pc = head -> chase ()
        | Ir_eval.Exited (_, _) -> ()
        | Ir_eval.Assert_failed -> Alcotest.fail "assert failed in unrolled loop"
        | Ir_eval.Alias_failed -> Alcotest.fail "alias failure in unrolled loop"
      in
      chase ();
      Alcotest.(check int)
        (Printf.sprintf "sum for count=%d" count)
        (Cpu.get r.cpu EAX) (Cpu.get cpu EAX))
    [ 1; 2; 3; 4; 5; 7; 8; 64; 100; 101 ]

(* ------------------------------------------------------------------ *)
(* Code cache                                                          *)
(* ------------------------------------------------------------------ *)

let fresh_cache () =
  let mem = Memory.create `Fault in
  let tolmem = Tolmem.create mem in
  let stats = Stats.create () in
  (Codecache.create Config.default tolmem stats, stats)

let simple_region_ir pc : Regionir.t =
  {
    entry_pc = pc;
    mode = `Super;
    body =
      [|
        Ir.Iget (0, EAX);
        Ir.Ibini (Add, 1, 0, 1);
        Ir.Iput (EAX, 1);
        Ir.Iexit { target = Ir.Xdirect (pc + 5); retired = 1; prefer_bb = false; edge = None };
      |];
    prof = None;
    guest_len = 1;
  }

let test_codecache_insert_find () =
  let cc, _ = fresh_cache () in
  let r = Codecache.insert cc Config.default (simple_region_ir 0x1000) in
  Alcotest.(check bool) "found" true
    (match Codecache.find cc 0x1000 with Some x -> x == r | None -> false);
  Alcotest.(check bool) "resolve by base" true
    (match Codecache.resolve_base cc r.base with Some x -> x == r | None -> false);
  Alcotest.(check bool) "absent pc" true (Codecache.find cc 0x9999 = None);
  Alcotest.(check int) "region count" 1 (Codecache.region_count cc)

let test_codecache_invalidate_unchains () =
  let cc, _ = fresh_cache () in
  let a = Codecache.insert cc Config.default (simple_region_ir 0x1000) in
  let b = Codecache.insert cc Config.default (simple_region_ir 0x2000) in
  let exit_a =
    match Darco_host.Code.exit_of a.code.(Array.length a.code - 1) with
    | Some e -> e
    | None -> Alcotest.fail "no exit"
  in
  Codecache.chain cc exit_a b;
  Alcotest.(check bool) "chained" true
    (match exit_a.chain with Some x -> x == b | None -> false);
  Codecache.invalidate cc b;
  Alcotest.(check bool) "unchained" true (exit_a.chain = None);
  Alcotest.(check bool) "gone" true (Codecache.find cc 0x2000 = None);
  Alcotest.(check bool) "invalidated" true b.invalidated

let test_codecache_flush () =
  let cc, stats = fresh_cache () in
  ignore (Codecache.insert cc Config.default (simple_region_ir 0x1000));
  ignore (Codecache.insert cc Config.default (simple_region_ir 0x2000));
  Codecache.flush cc;
  Alcotest.(check int) "empty" 0 (Codecache.region_count cc);
  Alcotest.(check int) "flush counted" 1 stats.code_cache_flushes;
  Alcotest.(check bool) "find misses" true (Codecache.find cc 0x1000 = None)

let test_codecache_capacity_flush () =
  let mem = Memory.create `Fault in
  let tolmem = Tolmem.create mem in
  let stats = Stats.create () in
  let tiny = { Config.default with code_cache_capacity = 12 } in
  let cc = Codecache.create tiny tolmem stats in
  ignore (Codecache.insert cc tiny (simple_region_ir 0x1000));
  ignore (Codecache.insert cc tiny (simple_region_ir 0x2000));
  ignore (Codecache.insert cc tiny (simple_region_ir 0x3000));
  Alcotest.(check bool) "flushes happened" true (stats.code_cache_flushes > 0)

let test_ibtc_fill_and_purge () =
  let cc, _ = fresh_cache () in
  let r = Codecache.insert cc Config.default (simple_region_ir 0x1234) in
  Codecache.ibtc_fill cc ~guest_pc:0x1234 r;
  (* entry is observable to inline host code through co-designed memory *)
  Codecache.invalidate cc r;
  (* after invalidation the entry must not resolve the dead base *)
  Alcotest.(check bool) "base unresolvable" true (Codecache.resolve_base cc r.base = None)

let test_superblock_shadows_bb () =
  let cc, _ = fresh_cache () in
  let bb = Codecache.insert cc Config.default { (simple_region_ir 0x1000) with mode = `Bb } in
  let sb = Codecache.insert cc Config.default (simple_region_ir 0x1000) in
  Alcotest.(check bool) "super preferred" true
    (match Codecache.find cc 0x1000 with Some x -> x == sb | None -> false);
  Alcotest.(check bool) "bb on request" true
    (match Codecache.find cc ~prefer_bb:true 0x1000 with Some x -> x == bb | None -> false)

(* Timing descriptors are built once per region, on its first run with a
   retire sink, kept in the packed form the code cache memoizes, and
   dropped with the region; a restored cache starts with none. *)
let test_codecache_descriptors () =
  let cc, stats = fresh_cache () in
  let calls = ref 0 in
  let describe _ =
    incr calls;
    !calls
  in
  let seen = ref [] in
  let consume (b : Darco_host.Retire.t) =
    for i = 0 to b.length - 1 do
      seen := b.desc.(i) :: !seen
    done
  in
  let sink : Darco_host.Retire.sink =
    { batch = Darco_host.Retire.create 64; consume; describe }
  in
  (* the descriptors of the entries one timed run of [r] retires *)
  let run cc (r : Darco_host.Code.region) =
    seen := [];
    let m = Darco_host.Machine.create (Memory.create `Auto_zero) in
    ignore
      (Threaded.run m ~resolve:(fun _ -> None) ~get:(Codecache.compiled cc) ~retire:sink r);
    List.rev !seen
  in
  let a = Codecache.insert cc Config.default (simple_region_ir 0x1000) in
  let n = Array.length a.code in
  let first = List.init n (fun i -> i + 1) in
  Alcotest.(check (list int)) "one per instruction, in order" first (run cc a);
  Alcotest.(check (list int)) "memoized" first (run cc a);
  Alcotest.(check int) "described once" n !calls;
  Codecache.invalidate cc a;
  ignore (run cc a);
  Alcotest.(check int) "dropped by invalidate" (2 * n) !calls;
  let b = Codecache.insert cc Config.default (simple_region_ir 0x2000) in
  ignore (run cc b);
  let restored = Codecache.unpersist (Tolmem.create (Memory.create `Fault)) stats (Codecache.persist cc) in
  calls := 0;
  (match Codecache.find restored 0x2000 with
  | Some r -> ignore (run restored r)
  | None -> Alcotest.fail "restored region missing");
  Alcotest.(check int) "empty after unpersist" n !calls;
  Codecache.flush cc;
  calls := 0;
  ignore (run cc b);
  Alcotest.(check int) "dropped by flush" n !calls

let () =
  Alcotest.run "tol"
    [
      ("differential", [ QCheck_alcotest.to_alcotest prop_differential ]);
      ( "optimizer",
        [
          Alcotest.test_case "constant folding" `Quick test_const_folding;
          Alcotest.test_case "dce removes dead" `Quick test_dce_removes_dead;
          Alcotest.test_case "dce keeps stores" `Quick test_dce_keeps_stores;
          Alcotest.test_case "cse" `Quick test_cse_dedups;
          Alcotest.test_case "store forwarding" `Quick test_rle_forwards_store;
          Alcotest.test_case "rle aliasing" `Quick test_rle_respects_aliasing;
        ] );
      ( "translate",
        [
          Alcotest.test_case "branch fusion" `Quick test_branch_fusion_avoids_mkfl;
          Alcotest.test_case "dead flags dropped" `Quick test_dead_flags_not_materialized;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "spill correctness" `Quick test_regalloc_spills_correctly;
          QCheck_alcotest.to_alcotest prop_regalloc_matches_reference;
          Alcotest.test_case "workload regions allocate as the reference" `Quick
            test_regalloc_matches_reference_on_workloads;
        ] );
      ("gbb", [ Alcotest.test_case "terminators" `Quick test_gbb_terminators ]);
      ("superblock", [ Alcotest.test_case "unrolled loop" `Quick test_unrolled_loop_correct ]);
      ( "codecache",
        [
          Alcotest.test_case "insert/find" `Quick test_codecache_insert_find;
          Alcotest.test_case "invalidate unchains" `Quick test_codecache_invalidate_unchains;
          Alcotest.test_case "flush" `Quick test_codecache_flush;
          Alcotest.test_case "capacity flush" `Quick test_codecache_capacity_flush;
          Alcotest.test_case "ibtc purge" `Quick test_ibtc_fill_and_purge;
          Alcotest.test_case "superblock shadows bb" `Quick test_superblock_shadows_bb;
          Alcotest.test_case "timing descriptors memoized per region" `Quick
            test_codecache_descriptors;
        ] );
    ]
