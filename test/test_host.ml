open Darco_guest
open Darco_host

(* --- machine: store buffer, checkpoints, speculation -------------------- *)

let fresh_machine () =
  let mem = Memory.create `Auto_zero in
  (Machine.create mem, mem)

let test_gated_stores () =
  let m, mem = fresh_machine () in
  Machine.checkpoint m;
  Machine.store m W32 0x1000 0xAABBCCDD;
  Alcotest.(check int) "memory untouched before commit" 0 (Memory.read32 mem 0x1000);
  Alcotest.(check int) "buffer forwards" 0xAABBCCDD
    (Machine.load m W32 ~signed:false 0x1000);
  Machine.commit m;
  Alcotest.(check int) "committed" 0xAABBCCDD (Memory.read32 mem 0x1000)

let test_byte_merge_forwarding () =
  let m, _ = fresh_machine () in
  Machine.checkpoint m;
  Machine.store m W32 0x1000 0x11223344;
  Machine.store m W8 0x1001 0xFF;
  Alcotest.(check int) "partial overwrite visible" 0x1122FF44
    (Machine.load m W32 ~signed:false 0x1000)

let test_rollback_discards () =
  let m, mem = fresh_machine () in
  Machine.set m 20 123;
  Machine.checkpoint m;
  Machine.set m 20 456;
  Machine.store m W32 0x2000 99;
  Machine.rollback m;
  Alcotest.(check int) "register restored" 123 (Machine.get m 20);
  Alcotest.(check int) "store discarded" 0 (Memory.read32 mem 0x2000);
  Machine.commit m;
  Alcotest.(check int) "buffer empty after rollback" 0 (Memory.read32 mem 0x2000)

let test_alias_violation () =
  let m, _ = fresh_machine () in
  Machine.checkpoint m;
  ignore (Machine.load_spec m W32 ~signed:false 0x3000);
  Machine.store m W32 0x3004 1;
  Alcotest.check_raises "overlap" Machine.Alias_violation (fun () ->
      Machine.store m W8 0x3002 7)

let test_alias_cleared_on_commit () =
  let m, _ = fresh_machine () in
  Machine.checkpoint m;
  ignore (Machine.load_spec m W32 ~signed:false 0x3000);
  Machine.commit m;
  Machine.store m W32 0x3000 1;
  Alcotest.(check int) "in flight" 4 (Machine.in_flight_stores m)

let test_commit_page_fault_keeps_buffer () =
  let mem = Memory.create `Fault in
  let m = Machine.create mem in
  Machine.checkpoint m;
  Machine.store m W32 0x5000 42;
  Alcotest.check_raises "probe faults" (Memory.Page_fault 5) (fun () ->
      Machine.commit m);
  Memory.install_page mem 5 (Bytes.make Memory.page_size '\000');
  Machine.commit m;
  Alcotest.(check int) "committed after fault" 42 (Memory.read32 mem 0x5000)

let test_zero_register () =
  let m, _ = fresh_machine () in
  Machine.set m 0 999;
  Alcotest.(check int) "r0 ignores writes" 0 (Machine.get m 0)

let test_guest_mapping_roundtrip () =
  let m, _ = fresh_machine () in
  let cpu = Cpu.create () in
  Cpu.set cpu EAX 0x11;
  Cpu.set cpu EDI 0x77;
  cpu.flags <- Flags.make ~cf:true ~zf:false ~sf:true ~of_:false;
  Cpu.setf cpu F3 2.5;
  Machine.copy_guest_in m cpu;
  Alcotest.(check int) "eax in r1" 0x11 (Machine.get m (Regs.guest EAX));
  let cpu' = Cpu.create () in
  Machine.copy_guest_out m cpu';
  cpu'.eip <- cpu.eip;
  Alcotest.(check bool) "roundtrip" true (Cpu.equal cpu cpu')

(* --- the store buffer against the byte-level model ------------------------- *)

(* Both engines share [Machine], so its buffer's differential is against
   [Ref_machine], the byte-[Hashtbl] buffer and alias list it replaced.
   Both run the same random sequence over their own copy of one [Fault]
   memory with missing pages: loaded values, faults, [Alias_violation]s,
   the buffer's byte view and alias table, the registers after a rollback
   and the memory after each commit must agree.  A commit that faults must
   name an absent page the buffer touches and leave memory untouched; the
   two buffers may probe their pages in different orders, so the page
   named may differ. *)

type sb_op =
  | S_store of Isa.width * int * int
  | S_load of Isa.width * bool * int
  | S_load_spec of Isa.width * bool * int
  | S_store_f64 of int * float
  | S_load_f64 of int
  | S_set of int * int
  | S_checkpoint
  | S_commit
  | S_rollback
  | S_install of int

let width_name : Isa.width -> string = function W8 -> "W8" | W16 -> "W16" | W32 -> "W32"

let show_sb_op = function
  | S_store (w, a, v) -> Printf.sprintf "store %s 0x%x 0x%x" (width_name w) a v
  | S_load (w, sg, a) -> Printf.sprintf "load %s %b 0x%x" (width_name w) sg a
  | S_load_spec (w, sg, a) -> Printf.sprintf "load_spec %s %b 0x%x" (width_name w) sg a
  | S_store_f64 (a, x) -> Printf.sprintf "store_f64 0x%x %h" a x
  | S_load_f64 a -> Printf.sprintf "load_f64 0x%x" a
  | S_set (r, v) -> Printf.sprintf "set r%d 0x%x" r v
  | S_checkpoint -> "checkpoint"
  | S_commit -> "commit"
  | S_rollback -> "rollback"
  | S_install i -> Printf.sprintf "install 0x%x" i

(* The pages the buffer differential's memory may hold; which of them are
   present at the start is part of the case. *)
let sb_pages = [| 1; 2; 3; 4; 0xFFFFF; 0x100000 |]

(* Tgen's memory operands stay inside a 2 KiB data region, so this draws
   its own: a handful of hot words (so stores overlap, forward and alias),
   page boundaries, the 4 GiB edge and anywhere on the four low pages. *)
let gen_sb_addr =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k o -> 0x1000 + (4 * k) + o) (int_bound 11) (int_bound 3));
        (3, map2 (fun p k -> (p lsl 12) - 6 + k) (int_range 2 4) (int_bound 11));
        (1, map (fun k -> 0xFFFFFFF4 + k) (int_bound 11));
        (2, int_range 0x1000 0x4FFF);
      ])

let gen_sb_op =
  QCheck.Gen.(
    let width = oneofl [ Isa.W8; Isa.W16; Isa.W32 ] in
    frequency
      [
        (8, map3 (fun w a v -> S_store (w, a, v)) width gen_sb_addr (int_bound 0xFFFFFFFF));
        (6, map3 (fun w sg a -> S_load (w, sg, a)) width bool gen_sb_addr);
        (3, map3 (fun w sg a -> S_load_spec (w, sg, a)) width bool gen_sb_addr);
        (1, map2 (fun a x -> S_store_f64 (a, x)) gen_sb_addr float);
        (1, map (fun a -> S_load_f64 a) gen_sb_addr);
        (1, map2 (fun r v -> S_set (r, v)) (int_range 1 63) (int_bound 0xFFFFFFFF));
        (1, return S_checkpoint);
        (2, return S_commit);
        (1, return S_rollback);
        (1, map (fun i -> S_install sb_pages.(i)) (int_bound (Array.length sb_pages - 1)));
      ])

let sb_memory present =
  let mem = Memory.create `Fault in
  Array.iteri
    (fun k idx ->
      if present land (1 lsl k) <> 0 then
        Memory.install_page mem idx
          (Bytes.init Memory.page_size (fun i -> Char.chr (((i * 7) + k) land 0xFF))))
    sb_pages;
  mem

let sb_memory_equal a b =
  Array.for_all
    (fun i ->
      Memory.has_page a i = Memory.has_page b i
      && ((not (Memory.has_page a i)) || Bytes.equal (Memory.get_page a i) (Memory.get_page b i)))
    sb_pages

let run_sb_case (present, ops) =
  let m = Machine.create (sb_memory present) and r = Ref_machine.create (sb_memory present) in
  let fail op fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) (show_sb_op op) in
  let outcome f =
    match f () with
    | v -> Ok v
    | exception Memory.Page_fault i -> Error (Printf.sprintf "fault 0x%x" i)
    | exception (Machine.Alias_violation | Ref_machine.Alias_violation) -> Error "alias"
  in
  let same op a b =
    if a <> b then
      let show = function Ok v -> v | Error e -> e in
      fail op "%s vs model %s" (show a) (show b)
  in
  let int_result f = outcome (fun () -> string_of_int (f ())) in
  let unit_result f = outcome (fun () -> f (); "()") in
  let bits x = Int64.to_string (Int64.bits_of_float x) in
  List.iter
    (fun op ->
      (match op with
      | S_store (w, a, v) ->
        same op
          (unit_result (fun () -> Machine.store m w a v))
          (unit_result (fun () -> Ref_machine.store r w a v))
      | S_load (w, signed, a) ->
        same op
          (int_result (fun () -> Machine.load m w ~signed a))
          (int_result (fun () -> Ref_machine.load r w ~signed a))
      | S_load_spec (w, signed, a) ->
        same op
          (int_result (fun () -> Machine.load_spec m w ~signed a))
          (int_result (fun () -> Ref_machine.load_spec r w ~signed a))
      | S_store_f64 (a, x) ->
        m.f.(5) <- x;
        same op
          (unit_result (fun () -> Machine.store_f64 m a 5))
          (unit_result (fun () -> Ref_machine.store_f64 r a x))
      | S_load_f64 a ->
        same op
          (outcome (fun () -> Machine.load_f64 m 6 a; bits m.f.(6)))
          (outcome (fun () -> bits (Ref_machine.load_f64 r a)))
      | S_set (reg, v) ->
        Machine.set m reg v;
        Ref_machine.set r reg v
      | S_checkpoint ->
        Machine.checkpoint m;
        Ref_machine.checkpoint r
      | S_rollback ->
        Machine.rollback m;
        Ref_machine.rollback r;
        if m.r <> r.r then fail op "registers differ after rollback"
      | S_install idx ->
        if not (Memory.has_page m.mem idx) then begin
          let page = Bytes.make Memory.page_size '\x5a' in
          Memory.install_page m.mem idx page;
          Memory.install_page r.mem idx page
        end
      | S_commit -> (
        let touched =
          List.sort_uniq compare
            (List.map (fun (a, _) -> Memory.page_index a) (Machine.pending_bytes m))
        in
        match (outcome (fun () -> Machine.commit m), outcome (fun () -> Ref_machine.commit r)) with
        | Ok (), Ok () ->
          if not (sb_memory_equal m.mem r.mem) then fail op "memory differs after commit"
        | Error _, Error _ -> (
          match Machine.commit m with
          | () -> fail op "commit faulted, then succeeded unchanged"
          | exception Memory.Page_fault p ->
            if Memory.has_page m.mem p || not (List.mem p touched) then
              fail op "commit faulted on page 0x%x, not an absent page it touches" p;
            if not (sb_memory_equal m.mem r.mem) then fail op "a faulting commit wrote memory")
        | a, b ->
          let show = function Ok () -> "ok" | Error e -> e in
          fail op "%s vs model %s" (show a) (show b)));
      (* the byte view the snapshot encodes, and the alias table *)
      let model_bytes =
        List.sort compare (Hashtbl.fold (fun a v acc -> (a, v) :: acc) r.sbuf [])
      in
      if Machine.pending_bytes m <> model_bytes then fail op "pending bytes differ";
      if Machine.alias_ranges m <> r.aliases then fail op "alias tables differ";
      if Machine.in_flight_stores m <> Ref_machine.in_flight_stores r then
        fail op "in-flight counts differ")
    ops;
  true

let prop_store_buffer_matches_model =
  QCheck.Test.make ~count:500 ~name:"store buffer = byte-level model"
    (QCheck.make
       ~print:(fun (present, ops) ->
         Printf.sprintf "pages present 0x%x\n%s" present
           (String.concat "\n" (List.map show_sb_op ops)))
       ~shrink:QCheck.Shrink.(pair nil list)
       QCheck.Gen.(pair (int_bound 63) (list_size (int_range 1 80) gen_sb_op)))
    run_sb_case

(* Once the buffer and the alias table have grown, no operation on the
   speculation path allocates. *)
let test_machine_allocates_nothing () =
  let mem = Memory.create `Auto_zero in
  let m = Machine.create mem in
  let region () =
    Machine.checkpoint m;
    for k = 0 to 199 do
      let a = 0x4000 + (4 * ((k * 37) land 511)) in
      Machine.store m W32 a k;
      Machine.store m W8 (a + 4097) k;
      ignore (Machine.load m W32 ~signed:false a);
      ignore (Machine.load m W16 ~signed:true (a + 4097));
      ignore (Machine.load_spec m W32 ~signed:false (0x20000 + (4 * k)))
    done;
    Machine.store_f64 m 0x9000 3;
    Machine.load_f64 m 4 0x9000;
    Machine.commit m;
    Machine.checkpoint m;
    Machine.store m W32 0x5000 1;
    Machine.rollback m
  in
  region ();
  let before = Gc.minor_words () in
  for _ = 1 to 50 do
    region ()
  done;
  Alcotest.(check (float 0.)) "minor words over 50 regions" 0. (Gc.minor_words () -. before)

(* --- flagcalc vs shared semantics ---------------------------------------- *)

let prop_flagcalc_add_sub =
  QCheck.Test.make ~name:"Mkfl add/sub matches Semantics.alu" ~count:1000
    QCheck.(triple bool (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (is_add, a0, b0) ->
      let a = Semantics.mask32 (a0 * 2654435761) in
      let b = Semantics.mask32 (b0 * 40503) in
      let kind : Code.flkind = if is_add then Fl_add else Fl_sub in
      let op : Isa.alu_op = if is_add then Add else Sub in
      Flagcalc.compute kind ~a ~b ~c:0 = Semantics.flags_of (Semantics.alu op ~cf_in:false a b))

let prop_flagcalc_shift =
  QCheck.Test.make ~name:"Mkfl shifts match Semantics.shift" ~count:1000
    QCheck.(triple (int_bound 4) (int_bound 0xFFFFFF) (int_bound 40))
    (fun (k, v0, count) ->
      let v = Semantics.mask32 (v0 * 2654435761) in
      let kind : Code.flkind =
        match k with 0 -> Fl_shl | 1 -> Fl_shr | 2 -> Fl_sar | 3 -> Fl_rol | _ -> Fl_ror
      in
      let op : Isa.shift_op =
        match k with 0 -> Shl | 1 -> Shr | 2 -> Sar | 3 -> Rol | _ -> Ror
      in
      let incoming = 0b1010 in
      Flagcalc.compute kind ~a:v ~b:count ~c:incoming
      = Semantics.flags_of (Semantics.shift op v ~count ~flags:incoming))

(* --- emulator: hand-built regions ---------------------------------------- *)

let mk_region ?(mode = `Super) ?(id = 0) ?(entry_pc = 0x1000) code : Code.region =
  {
    id;
    entry_pc;
    mode;
    base = 0xC0000000 + (id * 0x1000);
    code;
    incoming = [];
    invalidated = false;
  }

let exit_info ?(kind = Code.Exit_halt) ?(retired = 0) () : Code.exit_info =
  { exit_id = 0; kind; guest_retired = retired; chain = None; prefer_bb = false }

let run_region ?(fuel = 100000) m region =
  Emulator.run m ~resolve:(fun _ -> None) ~fuel region

let test_emulator_basic_alu () =
  let m, _ = fresh_machine () in
  let region =
    mk_region
      [|
        Code.Chk;
        Code.Li (20, 21);
        Code.Bini (Add, 21, 20, 21);
        Code.Bin (Mul, 22, 21, 20);
        Code.Commit 3;
        Code.Exit (exit_info ());
      |]
  in
  let res = run_region m region in
  Alcotest.(check int) "li+addi" 42 (Machine.get m 21);
  Alcotest.(check int) "mul" (42 * 21) (Machine.get m 22);
  Alcotest.(check int) "host retired" 6 res.host_retired;
  Alcotest.(check int) "guest credited to super" 3 res.guest_super;
  match res.stop with
  | Emulator.Stop_exit e -> Alcotest.(check bool) "halt exit" true (e.kind = Code.Exit_halt)
  | _ -> Alcotest.fail "expected exit"

let test_emulator_assert_rollback () =
  let m, mem = fresh_machine () in
  Machine.set m 20 5;
  let region =
    mk_region
      [|
        Code.Chk;
        Code.Li (21, 1);
        Code.Bin (Add, 20, 20, 21);
        Code.Store (W32, 20, 0, 0x4000);
        Code.Assert (Beq, 21, 0);
        Code.Commit 2;
        Code.Exit (exit_info ());
      |]
  in
  let res = run_region m region in
  (match res.stop with
  | Emulator.Stop_rollback (`Assert, r) -> Alcotest.(check int) "region id" 0 r.id
  | _ -> Alcotest.fail "expected rollback");
  Alcotest.(check int) "register rolled back" 5 (Machine.get m 20);
  Alcotest.(check int) "store never committed" 0 (Memory.read32 mem 0x4000);
  Alcotest.(check int) "no guest retired" 0 res.guest_super;
  Alcotest.(check bool) "wasted work counted" true (res.wasted_host > 0)

let test_emulator_chaining_and_fuel () =
  let m, _ = fresh_machine () in
  let b =
    mk_region ~id:2
      [|
        Code.Chk;
        Code.Bini (Add, 20, 20, 1);
        Code.Commit 1;
        Code.Exit (exit_info ~kind:(Code.Exit_direct 0x2000) ());
      |]
  in
  let exit_a = exit_info ~kind:(Code.Exit_direct 0x1000) () in
  let a = mk_region ~id:1 [| Code.Chk; Code.Commit 1; Code.Exit exit_a |] in
  exit_a.chain <- Some b;
  b.incoming <- [ exit_a ];
  let res = run_region m a in
  Alcotest.(check int) "chain followed" 1 res.chains_followed;
  Alcotest.(check int) "both retired" 2 (res.guest_super + res.guest_bb);
  (match res.stop with
  | Emulator.Stop_exit e ->
    Alcotest.(check bool) "stopped at B's exit" true (e.kind = Code.Exit_direct 0x2000)
  | _ -> Alcotest.fail "expected exit");
  let exit_loop = exit_info ~kind:(Code.Exit_direct 0x3000) () in
  let looper =
    mk_region ~id:3 ~entry_pc:0x3000 [| Code.Chk; Code.Commit 1; Code.Exit exit_loop |]
  in
  exit_loop.chain <- Some looper;
  let res = Emulator.run m ~resolve:(fun _ -> None) ~fuel:50 looper in
  match res.stop with
  | Emulator.Stop_fuel pc -> Alcotest.(check int) "fuel resumes at entry" 0x3000 pc
  | _ -> Alcotest.fail "expected fuel stop"

let test_emulator_invalidated_chain_not_followed () =
  let m, _ = fresh_machine () in
  let dead = mk_region ~id:9 [| Code.Chk; Code.Commit 0; Code.Exit (exit_info ()) |] in
  dead.invalidated <- true;
  let e = exit_info ~kind:(Code.Exit_direct 0x5000) () in
  e.chain <- Some dead;
  let a = mk_region ~id:8 [| Code.Chk; Code.Commit 1; Code.Exit e |] in
  let res = run_region m a in
  match res.stop with
  | Emulator.Stop_exit e' ->
    Alcotest.(check bool) "fell back to TOL" true (e'.kind = Code.Exit_direct 0x5000)
  | _ -> Alcotest.fail "expected exit"

let test_emulator_branches () =
  let m, _ = fresh_machine () in
  Machine.set m 20 7;
  let region =
    mk_region
      [|
        Code.Chk;
        Code.Li (21, 7);
        Code.B (Beq, 20, 21, 5);
        Code.Li (22, 666);
        Code.J 6;
        Code.Li (22, 42);
        Code.Commit 1;
        Code.Exit (exit_info ());
      |]
  in
  ignore (run_region m region);
  Alcotest.(check int) "took branch" 42 (Machine.get m 22)

let test_emulator_jr_resolution () =
  let m, _ = fresh_machine () in
  let target =
    mk_region ~id:5 ~entry_pc:0x7777
      [| Code.Chk; Code.Bini (Add, 22, 0, 55); Code.Commit 1; Code.Exit (exit_info ()) |]
  in
  let resolve addr = if addr = target.base then Some target else None in
  Machine.set m 20 target.base;
  Machine.set m 21 0x7777;
  let region = mk_region ~id:6 [| Code.Chk; Code.Commit 1; Code.Jr (20, 21) |] in
  let res = Emulator.run m ~resolve ~fuel:1000 region in
  Alcotest.(check int) "entered target" 55 (Machine.get m 22);
  Machine.set m 20 0xDEAD0000;
  let res2 = Emulator.run m ~resolve ~fuel:1000 region in
  (match res2.stop with
  | Emulator.Stop_indirect_miss pc -> Alcotest.(check int) "guest pc fallback" 0x7777 pc
  | _ -> Alcotest.fail "expected indirect miss");
  ignore res

let test_emulator_callrt_weight () =
  let m, _ = fresh_machine () in
  m.f.(8) <- 0.5;
  let region =
    mk_region
      [| Code.Chk; Code.Callrt_f (Rt_sin, 9, 8); Code.Commit 1; Code.Exit (exit_info ()) |]
  in
  let res = run_region m region in
  Alcotest.(check (float 1e-12)) "sin computed" (sin 0.5) m.f.(9);
  Alcotest.(check int) "stream weight includes rt cost"
    (3 + Code.rt_cost Rt_sin)
    res.host_retired

let test_emulator_isel_mkfl () =
  let m, _ = fresh_machine () in
  let region =
    mk_region
      [|
        Code.Chk;
        Code.Li (20, 3);
        Code.Li (21, 5);
        Code.Mkfl (Fl_sub, 22, 20, 21, 0);
        Code.Bini (And, 23, 22, 1);
        Code.Isel (24, 23, 20, 21);
        Code.Commit 1;
        Code.Exit (exit_info ());
      |]
  in
  ignore (run_region m region);
  Alcotest.(check int) "flags via mkfl"
    (Semantics.flags_of (Semantics.alu Sub ~cf_in:false 3 5))
    (Machine.get m 22);
  Alcotest.(check int) "isel picked true side" 3 (Machine.get m 24)

let prop_emulator_binop_vs_semantics =
  QCheck.Test.make ~name:"host ALU = shared semantics" ~count:1000
    QCheck.(triple (int_bound 13) (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (opi, a0, b0) ->
      let ops : Code.binop array =
        [| Add; Sub; Mul; Mulhu; Mulhs; And; Or; Xor; Shl; Shr; Sar; Slt; Sltu; Seq |]
      in
      let op = ops.(opi) in
      let a = Semantics.mask32 (a0 * 48271) in
      let b = Semantics.mask32 (b0 * 69621) in
      let v = Emulator.eval_binop op a b in
      let expected =
        match op with
        | Add -> Semantics.mask32 (a + b)
        | Sub -> Semantics.mask32 (a - b)
        | Mul -> Semantics.mask32 (a * b)
        | Mulhu -> Int64.(to_int (shift_right_logical (mul (of_int a) (of_int b)) 32))
        | Mulhs ->
          let p = Int64.(mul (of_int (Semantics.signed a)) (of_int (Semantics.signed b))) in
          Int64.(to_int (shift_right_logical p 32)) land 0xFFFFFFFF
        | And -> a land b
        | Or -> a lor b
        | Xor -> a lxor b
        | Shl -> Semantics.mask32 (a lsl (b land 31))
        | Shr -> a lsr (b land 31)
        | Sar -> Semantics.mask32 (Semantics.signed a asr (b land 31))
        | Slt -> if Semantics.signed a < Semantics.signed b then 1 else 0
        | Sltu -> if a < b then 1 else 0
        | Seq -> if a = b then 1 else 0
        | Sne -> if a <> b then 1 else 0
      in
      v = expected)

(* --- emulator: the batched retire stream ------------------------------------ *)

(* A sink of [capacity] entries that keeps every entry it is flushed, in
   order.  Each instruction's descriptor is [1000 * region id + index], so
   an entry names the instruction it came from. *)
let recording_sink ?(capacity = 64) () =
  let got = ref [] and flushes = ref 0 in
  let consume (b : Retire.t) =
    Alcotest.(check bool) "a flush carries entries" true (b.length > 0);
    incr flushes;
    for i = 0 to b.length - 1 do
      got := (b.pc.(i), b.desc.(i), b.addr.(i), b.branch.(i)) :: !got
    done
  in
  let sink : Retire.sink =
    {
      batch = Retire.create capacity;
      consume;
      descriptors = (fun r -> Array.init (Array.length r.code) (fun i -> (1000 * r.id) + i));
    }
  in
  (sink, (fun () -> List.rev !got), flushes)

(* The entry instruction [i] of [r] must produce. *)
let entry ?(addr = 0) ?branch (r : Code.region) i =
  let branch =
    match branch with
    | Some (taken, target) -> Retire.branch_word ~taken ~target
    | None -> 0
  in
  (Code.host_pc r i, (1000 * r.id) + i, addr, branch)

let entry_t = Alcotest.(list (pair (pair int int) (pair int int)))
let as_pairs = List.map (fun (pc, d, a, b) -> ((pc, d), (a, b)))

let check_entries what (sink : Retire.sink) got want =
  Alcotest.(check int) (what ^ ": batch empty on return") 0 sink.batch.length;
  Alcotest.check entry_t (what ^ ": entries") (as_pairs want) (as_pairs (got ()))

let test_retire_chained_exit () =
  let m, _ = fresh_machine () in
  let exit_b = exit_info ~kind:(Code.Exit_direct 0x2000) () in
  let b =
    mk_region ~id:2 [| Code.Chk; Code.Bini (Add, 20, 20, 1); Code.Commit 1; Code.Exit exit_b |]
  in
  let exit_a = exit_info ~kind:(Code.Exit_direct 0x1000) () in
  let a = mk_region ~id:1 [| Code.Chk; Code.Commit 1; Code.Exit exit_a |] in
  exit_a.chain <- Some b;
  let sink, got, _ = recording_sink () in
  let res = Emulator.run m ~resolve:(fun _ -> None) ~retire:sink a in
  (match res.stop with Emulator.Stop_exit _ -> () | _ -> Alcotest.fail "expected exit");
  check_entries "chained exit" sink got
    [
      entry a 0; entry a 1; entry a 2 ~branch:(true, b.base);
      entry b 0; entry b 1; entry b 2; entry b 3 ~branch:(true, 0xE000_0000);
    ]

let test_retire_indirect_miss () =
  let m, _ = fresh_machine () in
  Machine.set m 20 0xDEAD0000;
  Machine.set m 21 0x7777;
  let r = mk_region ~id:3 [| Code.Chk; Code.Commit 1; Code.Jr (20, 21) |] in
  let sink, got, _ = recording_sink () in
  let res = Emulator.run m ~resolve:(fun _ -> None) ~retire:sink r in
  (match res.stop with
  | Emulator.Stop_indirect_miss _ -> ()
  | _ -> Alcotest.fail "expected indirect miss");
  check_entries "indirect miss" sink got
    [ entry r 0; entry r 1; entry r 2 ~branch:(true, 0xDEAD0000) ]

let test_retire_assert_rollback () =
  let m, _ = fresh_machine () in
  let r =
    mk_region ~id:4
      [|
        Code.Chk; Code.Li (21, 1); Code.Assert (Beq, 21, 0); Code.Commit 1;
        Code.Exit (exit_info ());
      |]
  in
  let sink, got, _ = recording_sink () in
  let res = Emulator.run m ~resolve:(fun _ -> None) ~retire:sink r in
  (match res.stop with
  | Emulator.Stop_rollback (`Assert, _) -> ()
  | _ -> Alcotest.fail "expected assert rollback");
  (* the failed Assert retired before its comparison *)
  check_entries "assert rollback" sink got [ entry r 0; entry r 1; entry r 2 ]

let test_retire_alias_rollback () =
  let m, _ = fresh_machine () in
  Machine.set m 20 0x3000;
  let r =
    mk_region ~id:5
      [|
        Code.Chk; Code.Sload (W32, false, 21, 20, 0); Code.Store (W8, 22, 20, 2);
        Code.Commit 1; Code.Exit (exit_info ());
      |]
  in
  let sink, got, _ = recording_sink () in
  let res = Emulator.run m ~resolve:(fun _ -> None) ~retire:sink r in
  (match res.stop with
  | Emulator.Stop_rollback (`Alias, _) -> ()
  | _ -> Alcotest.fail "expected alias rollback");
  (* the store that hit the speculated load has no entry *)
  check_entries "alias rollback" sink got [ entry r 0; entry r 1 ~addr:0x3000 ]

let test_retire_page_fault () =
  let m = Machine.create (Memory.create `Fault) in
  Machine.set m 20 0x5000;
  let r =
    mk_region ~id:6
      [|
        Code.Chk; Code.Bini (Add, 22, 20, 4); Code.Load (W32, false, 21, 20, 8);
        Code.Commit 1; Code.Exit (exit_info ());
      |]
  in
  let sink, got, _ = recording_sink () in
  let res = Emulator.run m ~resolve:(fun _ -> None) ~retire:sink r in
  (match res.stop with
  | Emulator.Stop_fault (5, _) -> ()
  | _ -> Alcotest.fail "expected a fault on page 5");
  check_entries "page fault" sink got [ entry r 0; entry r 1 ]

(* Fuel stops a self-chained region after 17 passes (51 entries); an
   8-entry batch is flushed 7 times without losing one. *)
let test_retire_fuel_flushes_without_loss () =
  let m, _ = fresh_machine () in
  let e = exit_info ~kind:(Code.Exit_direct 0x3000) () in
  let r = mk_region ~id:7 ~entry_pc:0x3000 [| Code.Chk; Code.Commit 1; Code.Exit e |] in
  e.chain <- Some r;
  let sink, got, flushes = recording_sink ~capacity:8 () in
  let res = Emulator.run m ~resolve:(fun _ -> None) ~fuel:50 ~retire:sink r in
  (match res.stop with
  | Emulator.Stop_fuel 0x3000 -> ()
  | _ -> Alcotest.fail "expected a fuel stop");
  Alcotest.(check int) "host retired" 51 res.host_retired;
  check_entries "fuel" sink got
    (List.concat
       (List.init 17 (fun _ -> [ entry r 0; entry r 1; entry r 2 ~branch:(true, r.base) ])));
  Alcotest.(check int) "flushes" 7 !flushes

(* A malformed region that loops on itself trips the walker's runaway
   bound; every entry retired before it is still delivered, in order. *)
let test_retire_cyclic_region_loses_nothing () =
  let m, _ = fresh_machine () in
  let r = mk_region ~id:8 [| Code.Chk; Code.J 0 |] in
  let sink, got, _ = recording_sink ~capacity:64 () in
  (match Emulator.run m ~resolve:(fun _ -> None) ~retire:sink r with
  | _ -> Alcotest.fail "a cyclic region ran to a stop"
  | exception Assert_failure _ -> ());
  let steps = (100 * Array.length r.code) + 10_000 in
  check_entries "cyclic region" sink got
    (List.init steps (fun k ->
         if k mod 2 = 0 then entry r 0 else entry r 1 ~branch:(true, r.base)))

(* An operand set as a list, through the scratch-array form. *)
let operands f insn =
  let dst = Array.make Code.max_operands (-1) in
  let n = f insn dst in
  Array.to_list (Array.sub dst 0 n)

let test_defs_uses_consistency () =
  let i = Code.Bin (Add, 20, 21, 22) in
  Alcotest.(check (list int)) "defs" [ 20 ] (operands Code.defs i);
  Alcotest.(check (list int)) "uses" [ 21; 22 ] (operands Code.uses i);
  let s = Code.Store (W32, 20, 21, 0) in
  Alcotest.(check (list int)) "store defs nothing" [] (operands Code.defs s);
  Alcotest.(check (list int)) "store uses" [ 20; 21 ] (operands Code.uses s);
  let z = Code.Bin (Add, 0, 0, 21) in
  Alcotest.(check (list int)) "r0 filtered from defs" [] (operands Code.defs z);
  Alcotest.(check (list int)) "r0 filtered from uses" [ 21 ] (operands Code.uses z);
  let f = Code.Fbin (Fadd, 8, 9, 10) in
  Alcotest.(check (list int)) "fdefs" [ 8 ] (operands Code.fdefs f);
  Alcotest.(check (list int)) "fuses" [ 9; 10 ] (operands Code.fuses f);
  let d = Code.Callrt_div { signed = true; q = 1; r = 0; hi = 3; lo = 0; d = 5 } in
  Alcotest.(check (list int)) "r0 filtered mid-set" [ 1 ] (operands Code.defs d);
  Alcotest.(check (list int)) "three uses, order kept" [ 3; 5 ] (operands Code.uses d);
  let m = Code.Mkfl (Fl_adc, 4, 7, 6, 5) in
  Alcotest.(check (list int)) "max_operands uses" [ 7; 6; 5 ] (operands Code.uses m);
  let fs = Code.Fstore (3, 9, 8) in
  Alcotest.(check (list int)) "fstore fuses" [ 3 ] (operands Code.fuses fs);
  Alcotest.(check (list int)) "fstore uses" [ 9 ] (operands Code.uses fs)

let () =
  Alcotest.run "host"
    [
      ( "machine",
        [
          Alcotest.test_case "gated stores" `Quick test_gated_stores;
          Alcotest.test_case "byte merge forwarding" `Quick test_byte_merge_forwarding;
          Alcotest.test_case "rollback" `Quick test_rollback_discards;
          Alcotest.test_case "alias violation" `Quick test_alias_violation;
          Alcotest.test_case "alias cleared on commit" `Quick test_alias_cleared_on_commit;
          Alcotest.test_case "commit fault keeps buffer" `Quick
            test_commit_page_fault_keeps_buffer;
          Alcotest.test_case "zero register" `Quick test_zero_register;
          Alcotest.test_case "guest mapping" `Quick test_guest_mapping_roundtrip;
          QCheck_alcotest.to_alcotest prop_store_buffer_matches_model;
          Alcotest.test_case "speculation path allocates nothing" `Quick
            test_machine_allocates_nothing;
        ] );
      ( "flagcalc",
        [
          QCheck_alcotest.to_alcotest prop_flagcalc_add_sub;
          QCheck_alcotest.to_alcotest prop_flagcalc_shift;
        ] );
      ( "emulator",
        [
          Alcotest.test_case "basic alu" `Quick test_emulator_basic_alu;
          Alcotest.test_case "assert rollback" `Quick test_emulator_assert_rollback;
          Alcotest.test_case "chaining + fuel" `Quick test_emulator_chaining_and_fuel;
          Alcotest.test_case "invalidated chain" `Quick
            test_emulator_invalidated_chain_not_followed;
          Alcotest.test_case "branches" `Quick test_emulator_branches;
          Alcotest.test_case "jr resolution" `Quick test_emulator_jr_resolution;
          Alcotest.test_case "runtime call weight" `Quick test_emulator_callrt_weight;
          Alcotest.test_case "isel + mkfl" `Quick test_emulator_isel_mkfl;
          QCheck_alcotest.to_alcotest prop_emulator_binop_vs_semantics;
          Alcotest.test_case "def/use sets" `Quick test_defs_uses_consistency;
        ] );
      ( "retire",
        [
          Alcotest.test_case "chained exit" `Quick test_retire_chained_exit;
          Alcotest.test_case "indirect miss" `Quick test_retire_indirect_miss;
          Alcotest.test_case "assert rollback" `Quick test_retire_assert_rollback;
          Alcotest.test_case "alias rollback" `Quick test_retire_alias_rollback;
          Alcotest.test_case "page fault" `Quick test_retire_page_fault;
          Alcotest.test_case "fuel, flushed without loss" `Quick
            test_retire_fuel_flushes_without_loss;
          Alcotest.test_case "cyclic region loses nothing" `Quick
            test_retire_cyclic_region_loses_nothing;
        ] );
    ]
