open Darco_guest
module Rng = Darco_util.Rng

(* --- semantics ---------------------------------------------------------- *)

let flags_t = Alcotest.testable (Fmt.of_to_string Flags.to_string) ( = )

(* The flag-producing operations return one packed int; these split it
   back into (result, flags) so each check reads the halves separately. *)
let split p = (Semantics.result_of p, Semantics.flags_of p)
let alu op ~cf_in a b = split (Semantics.alu op ~cf_in a b)
let inc v ~flags = split (Semantics.inc v ~flags)
let dec v ~flags = split (Semantics.dec v ~flags)
let shift op v ~count ~flags = split (Semantics.shift op v ~count ~flags)

let mul_u a b =
  let p = Semantics.mul_u a b in
  (Semantics.result_of p, Semantics.mulhi_u a b, Semantics.flags_of p)

let mul_s a b =
  let p = Semantics.mul_s a b in
  (Semantics.result_of p, Semantics.mulhi_s a b, Semantics.flags_of p)

let test_add_flags () =
  let res, f = alu Add ~cf_in:false 0xFFFFFFFF 1 in
  Alcotest.(check int) "wraps" 0 res;
  Alcotest.(check bool) "CF" true (Flags.cf f);
  Alcotest.(check bool) "ZF" true (Flags.zf f);
  Alcotest.(check bool) "OF clear (unsigned carry only)" false (Flags.of_ f);
  let _, f = alu Add ~cf_in:false 0x7FFFFFFF 1 in
  Alcotest.(check bool) "signed overflow sets OF" true (Flags.of_ f);
  Alcotest.(check bool) "no carry" false (Flags.cf f);
  Alcotest.(check bool) "SF set" true (Flags.sf f)

let test_sub_flags () =
  let res, f = alu Sub ~cf_in:false 3 5 in
  Alcotest.(check int) "wraps" (Semantics.mask32 (-2)) res;
  Alcotest.(check bool) "borrow sets CF" true (Flags.cf f);
  Alcotest.(check bool) "SF" true (Flags.sf f);
  let _, f = alu Sub ~cf_in:false 0x80000000 1 in
  Alcotest.(check bool) "INT_MIN - 1 overflows" true (Flags.of_ f)

let test_adc_sbb_chain () =
  (* 64-bit add via adc: 0xFFFFFFFF_FFFFFFFF + 1 = 0 carry-out *)
  let lo, f1 = alu Add ~cf_in:false 0xFFFFFFFF 1 in
  let hi, f2 = alu Adc ~cf_in:(Flags.cf f1) 0xFFFFFFFF 0 in
  Alcotest.(check int) "lo" 0 lo;
  Alcotest.(check int) "hi" 0 hi;
  Alcotest.(check bool) "carry out" true (Flags.cf f2);
  let lo, f1 = alu Sub ~cf_in:false 0 1 in
  let hi, _ = alu Sbb ~cf_in:(Flags.cf f1) 5 0 in
  Alcotest.(check int) "borrow lo" 0xFFFFFFFF lo;
  Alcotest.(check int) "borrow hi" 4 hi

let test_logic_flags () =
  let res, f = alu And ~cf_in:true 0xF0F0 0x0F0F in
  Alcotest.(check int) "and" 0 res;
  Alcotest.(check bool) "ZF" true (Flags.zf f);
  Alcotest.(check bool) "CF cleared" false (Flags.cf f);
  Alcotest.(check bool) "OF cleared" false (Flags.of_ f)

let test_inc_dec_preserve_cf () =
  let flags = Flags.make ~cf:true ~zf:false ~sf:false ~of_:false in
  let res, f = inc 0xFFFFFFFF ~flags in
  Alcotest.(check int) "inc wraps" 0 res;
  Alcotest.(check bool) "CF preserved" true (Flags.cf f);
  Alcotest.(check bool) "ZF set" true (Flags.zf f);
  let res, f = dec 0 ~flags:0 in
  Alcotest.(check int) "dec wraps" 0xFFFFFFFF res;
  Alcotest.(check bool) "CF still clear" false (Flags.cf f)

let test_shift_semantics () =
  let v, f = shift Shl 0x80000001 ~count:1 ~flags:0 in
  Alcotest.(check int) "shl" 2 v;
  Alcotest.(check bool) "CF from msb" true (Flags.cf f);
  let v, f0 = shift Shr 0x3 ~count:1 ~flags:0 in
  Alcotest.(check int) "shr" 1 v;
  Alcotest.(check bool) "CF from lsb" true (Flags.cf f0);
  let v, _ = shift Sar 0x80000000 ~count:4 ~flags:0 in
  Alcotest.(check int) "sar sign-fills" 0xF8000000 v;
  let v, _ = shift Rol 0x80000001 ~count:1 ~flags:0 in
  Alcotest.(check int) "rol" 3 v;
  let v, _ = shift Ror 0x1 ~count:1 ~flags:0 in
  Alcotest.(check int) "ror" 0x80000000 v;
  (* zero count leaves flags untouched *)
  let sentinel = Flags.make ~cf:true ~zf:true ~sf:true ~of_:true in
  let v, f = shift Shl 123 ~count:0 ~flags:sentinel in
  Alcotest.(check int) "value unchanged" 123 v;
  Alcotest.check flags_t "flags unchanged" sentinel f;
  (* counts are masked to 5 bits *)
  let v, _ = shift Shl 1 ~count:33 ~flags:0 in
  Alcotest.(check int) "count masked" 2 v

let test_mul () =
  let lo, hi, f = mul_u 0xFFFFFFFF 0xFFFFFFFF in
  Alcotest.(check int) "lo" 1 lo;
  Alcotest.(check int) "hi" 0xFFFFFFFE hi;
  Alcotest.(check bool) "wide" true (Flags.cf f);
  let lo, hi, f = mul_s 0xFFFFFFFF 3 in
  (* -1 * 3 = -3 *)
  Alcotest.(check int) "slo" 0xFFFFFFFD lo;
  Alcotest.(check int) "shi" 0xFFFFFFFF hi;
  Alcotest.(check bool) "fits" false (Flags.cf f);
  let lo, _, _ = mul_u 123456 789 in
  Alcotest.(check int) "plain" (123456 * 789) lo

let test_div () =
  let q, r = Semantics.div_u ~hi:0 ~lo:100 7 in
  Alcotest.(check int) "q" 14 q;
  Alcotest.(check int) "r" 2 r;
  (* wide dividend *)
  let q, r = Semantics.div_u ~hi:1 ~lo:0 2 in
  Alcotest.(check int) "2^32/2" 0x80000000 q;
  Alcotest.(check int) "rem" 0 r;
  (* division by zero is defined, not trapping *)
  let q, r = Semantics.div_u ~hi:5 ~lo:77 0 in
  Alcotest.(check int) "q = all-ones" 0xFFFFFFFF q;
  Alcotest.(check int) "r = lo" 77 r;
  (* signed: -7 / 2 = -3 rem -1 *)
  let q, r = Semantics.div_s ~hi:0xFFFFFFFF ~lo:(Semantics.mask32 (-7)) 2 in
  Alcotest.(check int) "signed q" (Semantics.mask32 (-3)) q;
  Alcotest.(check int) "signed r" (Semantics.mask32 (-1)) r

let prop_div_identity =
  QCheck.Test.make ~name:"div: n = q*d + r, 0 <= r < d (unsigned, narrow)"
    ~count:500
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_range 1 0xFFFF))
    (fun (n, d) ->
      let q, r = Semantics.div_u ~hi:0 ~lo:n d in
      (q * d) + r = n && r < d)

let prop_alu_matches_int64 =
  QCheck.Test.make ~name:"add/sub value matches an Int64 model" ~count:1000
    QCheck.(triple bool (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (is_add, a0, b0) ->
      let a = Semantics.mask32 (a0 * 17) and b = Semantics.mask32 (b0 * 29) in
      let res, _ =
        alu (if is_add then Add else Sub) ~cf_in:false a b
      in
      let model =
        Int64.to_int
          (Int64.logand
             (if is_add then Int64.add (Int64.of_int a) (Int64.of_int b)
              else Int64.sub (Int64.of_int a) (Int64.of_int b))
             0xFFFFFFFFL)
      in
      res = model)

let test_sign_extend () =
  Alcotest.(check int) "byte" 0xFFFFFF80 (Semantics.sign_extend W8 0x80);
  Alcotest.(check int) "byte pos" 0x7F (Semantics.sign_extend W8 0x7F);
  Alcotest.(check int) "word" 0xFFFF8000 (Semantics.sign_extend W16 0x8000);
  Alcotest.(check int) "dword id" 0x12345678 (Semantics.sign_extend W32 0x12345678)

let test_f2i () =
  Alcotest.(check int) "trunc pos" 3 (Semantics.f2i 3.99);
  Alcotest.(check int) "trunc neg" (Semantics.mask32 (-3)) (Semantics.f2i (-3.99));
  Alcotest.(check int) "nan" 0x80000000 (Semantics.f2i Float.nan);
  Alcotest.(check int) "overflow" 0x80000000 (Semantics.f2i 1e30);
  Alcotest.(check int) "neg overflow" 0x80000000 (Semantics.f2i (-1e30))

let test_fcmp () =
  let f = Semantics.fcmp_flags 1.0 2.0 in
  Alcotest.(check bool) "below" true (Flags.eval_cond B f);
  let f = Semantics.fcmp_flags 2.0 2.0 in
  Alcotest.(check bool) "equal" true (Flags.eval_cond E f);
  let f = Semantics.fcmp_flags Float.nan 2.0 in
  Alcotest.(check bool) "unordered: CF and ZF" true (Flags.cf f && Flags.zf f)

(* --- flags / conditions -------------------------------------------------- *)

let test_eval_cond () =
  let f_eq = snd (alu Sub ~cf_in:false 5 5) in
  let f_lt = snd (alu Sub ~cf_in:false 3 5) in
  let f_gt = snd (alu Sub ~cf_in:false 7 5) in
  let checks =
    [
      (Isa.E, f_eq, true); (Isa.E, f_lt, false);
      (Isa.NE, f_gt, true); (Isa.L, f_lt, true); (Isa.L, f_eq, false);
      (Isa.LE, f_eq, true); (Isa.G, f_gt, true); (Isa.GE, f_eq, true);
      (Isa.B, f_lt, true); (Isa.A, f_gt, true); (Isa.AE, f_eq, true);
      (Isa.BE, f_eq, true); (Isa.S, f_lt, true); (Isa.NS, f_gt, true);
    ]
  in
  List.iter
    (fun (c, f, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "cond %s" (Isa.to_string (Jcc (c, 0))))
        expect (Flags.eval_cond c f))
    checks

let prop_negate_cond =
  QCheck.Test.make ~name:"negate_cond inverts every condition" ~count:500
    QCheck.(pair (int_bound 13) (int_bound 15))
    (fun (ci, f) ->
      let c = Isa.all_conds.(ci) in
      Flags.eval_cond c f = not (Flags.eval_cond (Isa.negate_cond c) f))

(* --- codec -------------------------------------------------------------- *)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip of random instructions"
    ~count:2000 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed * 31 + 5) in
      let insn = Tgen.insn rng in
      let pc = 0x1000 + (Rng.int rng 0x1000 * 4) in
      let encoded = Codec.encode ~pc insn in
      let fetched i = Char.code (Bytes.get encoded (i - pc)) in
      let decoded, len = Codec.decode ~fetch:fetched ~pc in
      len = Bytes.length encoded && decoded = Codec.canonical insn)

let test_codec_control () =
  (* control transfers encode PC-relative: same insn at different PCs *)
  List.iter
    (fun insn ->
      List.iter
        (fun pc ->
          let b = Codec.encode ~pc insn in
          let decoded, len = Codec.decode ~fetch:(fun i -> Char.code (Bytes.get b (i - pc))) ~pc in
          Alcotest.(check int) "length" (Bytes.length b) len;
          Alcotest.(check bool) (Isa.to_string insn) true (decoded = insn))
        [ 0x1000; 0x7FFF; 0x123456 ])
    [
      Isa.Jmp 0x2000;
      Isa.Jcc (NE, 0x400);
      Isa.Call 0x999999;
      Isa.Ret;
      Isa.JmpInd (Reg EAX);
      Isa.Syscall;
      Isa.Halt;
      Isa.Str (Movs, W32, Rep);
    ]

let test_codec_bad_encoding () =
  Alcotest.check_raises "invalid opcode" (Codec.Bad_encoding 0) (fun () ->
      ignore (Codec.decode ~fetch:(fun _ -> 0xFF) ~pc:0))

(* Decoding is total: any bytes, fetched with zero padding past their
   end, decode or raise [Bad_encoding] — never another exception.  The
   first byte is drawn from just past the opcode space so most cases reach
   an operand decoder. *)
let decode_bytes s =
  Codec.decode ~pc:0 ~fetch:(fun i ->
      if i < String.length s then Char.code s.[i] else 0)

let prop_decode_total =
  QCheck.Test.make ~name:"decode returns or raises Bad_encoding" ~count:4000
    QCheck.(pair (int_bound 0x29) (string_of_size (Gen.int_range 0 15)))
    (fun (op, rest) ->
      match decode_bytes (String.make 1 (Char.chr op) ^ rest) with
      | _ -> true
      | exception Codec.Bad_encoding _ -> true)

(* The shortest input that once escaped as [Assert_failure]: MOVX with
   width field 3 *)
let test_codec_width3_fixture () =
  let ic = open_in_bin (Filename.concat "fixtures" "gx86_movx_width3.bin") in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.check_raises "MOVX width 3" (Codec.Bad_encoding 0) (fun () ->
      ignore (decode_bytes s))

let test_codec_variable_length () =
  let short = Codec.length (Mov (Reg EAX, Reg ECX)) in
  let long = Codec.length (Mov (Mem { base = Some EAX; index = Some (ECX, S4); disp = 100000 }, Imm 7)) in
  Alcotest.(check bool) "variable length" true (short < long);
  Alcotest.(check int) "one-byte nop" 1 (Codec.length Nop)

(* --- memory ------------------------------------------------------------- *)

let test_memory_rw () =
  let m = Memory.create `Auto_zero in
  Memory.write32 m 0x1000 0xDEADBEEF;
  Alcotest.(check int) "read32" 0xDEADBEEF (Memory.read32 m 0x1000);
  Alcotest.(check int) "read8" 0xEF (Memory.read8 m 0x1000);
  Alcotest.(check int) "read8 hi" 0xDE (Memory.read8 m 0x1003);
  Memory.write m W16 0x1000 0x1234;
  Alcotest.(check int) "merged" 0xDEAD1234 (Memory.read32 m 0x1000)

let test_memory_page_boundary () =
  let m = Memory.create `Auto_zero in
  let addr = 0x1FFE in
  Memory.write32 m addr 0xCAFEBABE;
  Alcotest.(check int) "straddling read" 0xCAFEBABE (Memory.read32 m addr);
  Alcotest.(check bool) "both pages exist" true
    (Memory.has_page m 1 && Memory.has_page m 2)

let test_memory_fault_policy () =
  let m = Memory.create `Fault in
  Alcotest.check_raises "faults" (Memory.Page_fault 5) (fun () ->
      ignore (Memory.read8 m (5 * 4096)));
  Memory.install_page m 5 (Bytes.make 4096 'x');
  Alcotest.(check int) "after install" (Char.code 'x') (Memory.read8 m (5 * 4096))

let test_memory_f64 () =
  let m = Memory.create `Auto_zero in
  Memory.write_f64 m 0x2000 3.14159;
  Alcotest.(check (float 0.0)) "roundtrip" 3.14159 (Memory.read_f64 m 0x2000);
  Memory.write_f64 m 0x2008 (-0.0);
  Alcotest.(check bool) "negative zero preserved" true
    (Int64.bits_of_float (Memory.read_f64 m 0x2008) = Int64.bits_of_float (-0.0))

let test_memory_equal_page () =
  let a = Memory.create `Auto_zero and b = Memory.create `Auto_zero in
  Memory.write32 a 0x1000 0;
  (* zero page in a, absent in b: equal *)
  Alcotest.(check bool) "absent = zero" true (Memory.equal_page a b 1);
  Memory.write32 a 0x1000 5;
  Alcotest.(check bool) "differs" false (Memory.equal_page a b 1)

(* --- Memory against the byte-map model ------------------------------------ *)

(* [Memory] is shared by the oracle and the TOL, so its differential is
   against [Ref_memory], the [Hashtbl] implementation it replaced: random
   operation sequences under both policies, on two pairs of memories (so
   [equal_page] compares across them), with every result and the fault
   index of every [Page_fault] compared after each operation. *)

type mem_op =
  | M_read of Isa.width * int
  | M_write of Isa.width * int * int
  | M_read_f64 of int
  | M_write_f64 of int * float
  | M_install of int * int  (* page index, fill byte *)
  | M_has of int
  | M_get of int
  | M_equal of int
  | M_blit of int * string
  | M_touched
  | M_second of mem_op  (* the same operation on the second pair *)

let width_name : Isa.width -> string = function W8 -> "W8" | W16 -> "W16" | W32 -> "W32"

let rec show_mem_op = function
  | M_read (w, a) -> Printf.sprintf "read %s 0x%x" (width_name w) a
  | M_write (w, a, v) -> Printf.sprintf "write %s 0x%x 0x%x" (width_name w) a v
  | M_read_f64 a -> Printf.sprintf "read_f64 0x%x" a
  | M_write_f64 (a, x) -> Printf.sprintf "write_f64 0x%x %h" a x
  | M_install (i, b) -> Printf.sprintf "install 0x%x fill %d" i b
  | M_has i -> Printf.sprintf "has 0x%x" i
  | M_get i -> Printf.sprintf "get 0x%x" i
  | M_equal i -> Printf.sprintf "equal 0x%x" i
  | M_blit (a, b) -> Printf.sprintf "blit 0x%x %S" a b
  | M_touched -> "touched"
  | M_second op -> "second: " ^ show_mem_op op

(* Tgen's memory operands stay inside a 2 KiB data region, so the
   differentials draw their own addresses: ordinary pages, page
   boundaries, the 4 GiB edge (an access there straddles into page
   0x100000) and any 32-bit value. *)
let gen_addr =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun p o -> (p lsl 12) + o) (int_range 0 5) (int_bound 4095));
        (3, map2 (fun p k -> (p lsl 12) - 8 + k) (int_range 1 5) (int_bound 15));
        (2, map (fun k -> 0xFFFFFFF0 + k) (int_bound 15));
        (1, map (fun k -> 0x100000000 + k) (int_bound 7));
        (1, map (fun x -> x land 0xFFFFFFFF) int);
      ])

(* Page indices reach past both edges of the page table's directory:
   negative, huge, and either side of its last leaf. *)
let gen_page_index =
  QCheck.Gen.(
    frequency
      [
        (5, int_range 0 6);
        (2, oneofl [ 0xFFFFF; 0x100000; 0x1003FF; 0x100400 ]);
        (1, int_range (-3) (-1));
        (1, map (fun k -> (1 lsl 40) + k) (int_bound 3));
      ])

let gen_width = QCheck.Gen.oneofl [ Isa.W8; Isa.W16; Isa.W32 ]

let gen_mem_op =
  QCheck.Gen.(
    let base =
      frequency
        [
          (6, map2 (fun w a -> M_read (w, a)) gen_width gen_addr);
          (6, map3 (fun w a v -> M_write (w, a, v)) gen_width gen_addr (int_bound 0xFFFFFFFF));
          (2, map (fun a -> M_read_f64 a) gen_addr);
          (2, map2 (fun a x -> M_write_f64 (a, x)) gen_addr float);
          (2, map2 (fun i b -> M_install (i, b)) gen_page_index (int_bound 255));
          (2, map (fun i -> M_has i) gen_page_index);
          (1, map (fun i -> M_get i) gen_page_index);
          (2, map (fun i -> M_equal i) gen_page_index);
          (1, map2 (fun a s -> M_blit (a, s)) gen_addr (string_size (int_bound 9)));
          (1, return M_touched);
        ]
    in
    frequency [ (3, base); (1, map (fun op -> M_second op) base) ])

(* Run one operation on both implementations; the results, rendered as
   strings, must agree. *)
let rec apply_mem_op (n1, n2) (r1, r2) op =
  let run f g =
    let fault = Printf.sprintf "fault 0x%x" in
    let a = match f () with v -> v | exception Memory.Page_fault i -> fault i in
    let b = match g () with v -> v | exception Ref_memory.Page_fault i -> fault i in
    if a <> b then QCheck.Test.fail_reportf "%s: %s vs model %s" (show_mem_op op) a b
  in
  let page b = Bytes.make Memory.page_size (Char.chr b) in
  let bits x = Int64.to_string (Int64.bits_of_float x) in
  let unit () = "()" in
  match op with
  | M_second op -> apply_mem_op (n2, n1) (r2, r1) op
  | M_read (w, a) ->
    run
      (fun () -> string_of_int (Memory.read n1 w a))
      (fun () -> string_of_int (Ref_memory.read r1 w a))
  | M_write (w, a, v) ->
    run (fun () -> Memory.write n1 w a v; unit ()) (fun () -> Ref_memory.write r1 w a v; unit ())
  | M_read_f64 a ->
    run (fun () -> bits (Memory.read_f64 n1 a)) (fun () -> bits (Ref_memory.read_f64 r1 a))
  | M_write_f64 (a, x) ->
    run
      (fun () -> Memory.write_f64 n1 a x; unit ())
      (fun () -> Ref_memory.write_f64 r1 a x; unit ())
  | M_install (i, b) ->
    run (fun () -> Memory.install_page n1 i (page b); unit ()) (fun () ->
        Ref_memory.install_page r1 i (page b);
        unit ())
  | M_has i ->
    run
      (fun () -> string_of_bool (Memory.has_page n1 i))
      (fun () -> string_of_bool (Ref_memory.has_page r1 i))
  | M_get i ->
    run
      (fun () -> Bytes.to_string (Memory.get_page n1 i))
      (fun () -> Bytes.to_string (Ref_memory.get_page r1 i))
  | M_equal i ->
    run (fun () -> string_of_bool (Memory.equal_page n1 n2 i)) (fun () ->
        string_of_bool (Ref_memory.equal_page r1 r2 i))
  | M_blit (a, s) ->
    run (fun () -> Memory.blit_bytes n1 a (Bytes.of_string s); unit ()) (fun () ->
        Ref_memory.blit_bytes r1 a (Bytes.of_string s);
        unit ())
  | M_touched ->
    let show l = String.concat "," (List.map string_of_int l) in
    run (fun () -> show (Memory.touched_pages n1)) (fun () -> show (Ref_memory.touched_pages r1))

let prop_memory_matches_model policy =
  let name = match policy with `Auto_zero -> "auto-zero" | `Fault -> "fault" in
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "Memory = byte-map model (%s)" name)
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map show_mem_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 60) gen_mem_op))
    (fun ops ->
      let n = (Memory.create policy, Memory.create policy) in
      let r = (Ref_memory.create policy, Ref_memory.create policy) in
      List.iter (apply_mem_op n r) ops;
      (* and the final images: same pages, same bytes *)
      List.iter
        (fun (n, r) ->
          let pages = Memory.touched_pages n in
          if pages <> Ref_memory.touched_pages r then
            QCheck.Test.fail_report "touched pages differ";
          List.iter
            (fun i ->
              if not (Bytes.equal (Memory.get_page n i) (Ref_memory.get_page r i)) then
                QCheck.Test.fail_reportf "page 0x%x differs" i)
            pages)
        [ (fst n, fst r); (snd n, snd r) ];
      true)

(* --- cpu ---------------------------------------------------------------- *)

let test_cpu_ops () =
  let c = Cpu.create () in
  Cpu.set c EAX 0x1_2345_6789;
  Alcotest.(check int) "masked to 32 bits" 0x23456789 (Cpu.get c EAX);
  let d = Cpu.copy c in
  Alcotest.(check bool) "copy equal" true (Cpu.equal c d);
  Cpu.set d EBX 1;
  Alcotest.(check bool) "diverged" false (Cpu.equal c d);
  Alcotest.(check bool) "diff names ebx" true
    (List.exists (fun s -> String.length s >= 3 && String.sub s 0 3 = "ebx") (Cpu.diff c d))

(* --- step: targeted instruction semantics ------------------------------- *)

let exec_insns insns =
  let a = Asm.create ~base:0x1000 () in
  List.iter (Asm.insn a) insns;
  Asm.insn a Halt;
  let p = Asm.assemble a in
  let cpu, mem = Loader.boot p in
  let ic = Step.icache_create () in
  let rec go n =
    if n > 10000 then Alcotest.fail "did not halt";
    if not cpu.Cpu.halted then begin
      ignore (Step.step ic cpu mem);
      go (n + 1)
    end
  in
  go 0;
  (cpu, mem)

let test_step_push_pop () =
  let cpu, _ = exec_insns [ Mov (Reg EAX, Imm 77); Push (Reg EAX); Pop EDX ] in
  Alcotest.(check int) "popped" 77 (Cpu.get cpu EDX);
  Alcotest.(check int) "sp restored" Loader.stack_top (Cpu.get cpu ESP)

let test_step_pop_esp () =
  let cpu, _ = exec_insns [ Push (Imm 0x4242); Pop ESP ] in
  Alcotest.(check int) "pop esp = loaded value" 0x4242 (Cpu.get cpu ESP)

let test_step_call_ret () =
  let a = Asm.create ~base:0x1000 () in
  Asm.jmp a "main";
  Asm.label a "f";
  Asm.insn a (Mov (Reg EAX, Imm 9));
  Asm.insn a Ret;
  Asm.label a "main";
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.call a "f";
  Asm.insn a (Alu (Add, Reg EAX, Imm 100));
  Asm.insn a Halt;
  let p = Asm.assemble a in
  let r = Interp_ref.boot ~seed:0 p in
  ignore (Interp_ref.run_to_halt r);
  Alcotest.(check int) "call/ret flow" 109 (Cpu.get r.cpu EAX)

let test_step_string_rep_movs () =
  let cpu, mem =
    exec_insns
      [
        Mov (Mem { base = None; index = None; disp = 0x3000 }, Imm 0x11223344);
        Mov (Mem { base = None; index = None; disp = 0x3004 }, Imm 0x55667788);
        Mov (Reg ESI, Imm 0x3000);
        Mov (Reg EDI, Imm 0x3100);
        Mov (Reg ECX, Imm 8);
        Str (Movs, W8, Rep);
      ]
  in
  Alcotest.(check int) "copied lo" 0x11223344 (Memory.read32 mem 0x3100);
  Alcotest.(check int) "copied hi" 0x55667788 (Memory.read32 mem 0x3104);
  Alcotest.(check int) "ecx exhausted" 0 (Cpu.get cpu ECX);
  Alcotest.(check int) "esi advanced" 0x3008 (Cpu.get cpu ESI)

let test_step_repe_cmps () =
  let cpu, _ =
    exec_insns
      [
        Mov (Mem { base = None; index = None; disp = 0x3000 }, Imm 0xAAAA);
        Mov (Mem { base = None; index = None; disp = 0x3100 }, Imm 0xAAAB);
        Mov (Reg ESI, Imm 0x3000);
        Mov (Reg EDI, Imm 0x3100);
        Mov (Reg ECX, Imm 4);
        Str (Cmps, W8, Repe);
      ]
  in
  (* bytes 0: AA=AB? no: stops after first compare *)
  Alcotest.(check int) "stopped early" 3 (Cpu.get cpu ECX);
  Alcotest.(check bool) "ZF clear" false (Flags.zf cpu.flags)

let test_step_stos_scas () =
  let cpu, mem =
    exec_insns
      [
        Mov (Reg EAX, Imm 0x5A);
        Mov (Reg EDI, Imm 0x3000);
        Mov (Reg ECX, Imm 16);
        Str (Stos, W8, Rep);
        Mov (Reg EDI, Imm 0x3000);
        Mov (Reg ECX, Imm 32);
        Mov (Reg EAX, Imm 0x5A);
        Str (Scas, W8, Repe);
      ]
  in
  Alcotest.(check int) "filled" 0x5A5A5A5A (Memory.read32 mem 0x3000);
  (* scas runs until the zero byte after the 16 filled ones *)
  Alcotest.(check int) "stopped past fill" (0x3000 + 17) (Cpu.get cpu EDI)

let test_step_cmov_setcc () =
  let cpu, _ =
    exec_insns
      [
        Mov (Reg EAX, Imm 1);
        Mov (Reg EDX, Imm 99);
        Cmp (Reg EAX, Imm 5);
        Cmov (L, EAX, Reg EDX);
        Setcc (GE, ECX);
      ]
  in
  Alcotest.(check int) "cmov taken" 99 (Cpu.get cpu EAX);
  Alcotest.(check int) "setcc false" 0 (Cpu.get cpu ECX)

let test_step_fault_leaves_state () =
  (* a faulting instruction must not modify any state *)
  let m = Memory.create `Fault in
  Memory.install_page m 1 (Bytes.make 4096 '\000');
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EAX, Mem { base = None; index = None; disp = 0x800000 }));
  let p = Asm.assemble a in
  List.iter (fun (addr, b) -> Memory.blit_bytes m addr b) p.chunks;
  let cpu = Cpu.create () in
  cpu.eip <- 0x1000;
  Cpu.set cpu EAX 42;
  let snapshot = Cpu.copy cpu in
  let ic = Step.icache_create () in
  Alcotest.check_raises "fault" (Memory.Page_fault (0x800000 / 4096)) (fun () ->
      ignore (Step.step ic cpu m));
  Alcotest.(check bool) "state untouched" true (Cpu.equal snapshot cpu)

(* --- Step against the reference Step --------------------------------------- *)

(* The oracle and the TOL both execute through [Step], so its differential
   is against [Ref_step], the allocating implementation it replaced.  Two
   copies of one booted guest run in lock step, one per implementation:
   after every instruction the control kinds, the CPUs and the bytes the
   instruction may have written must agree, and every few thousand
   instructions (and at the end) the whole memory images. *)

let kind_of_control : Ref_step.control -> Step.kind = function
  | Next -> Next
  | Cond_branch _ | Uncond _ | Indirect _ -> Branch
  | Trap_syscall -> Syscall
  | Trap_halt -> Halt

let kind_name : Step.kind -> string = function
  | Next -> "next"
  | Branch -> "branch"
  | Syscall -> "syscall"
  | Halt -> "halt"

(* Equal [len] bytes at [addr] in both memories, without materializing a
   page on either side. *)
let same_bytes a b addr len =
  let ok = ref true in
  for x = addr to addr + len - 1 do
    let i = Memory.page_index x in
    match (Memory.has_page a i, Memory.has_page b i) with
    | false, false -> ()
    | true, true ->
      let off = x land (Memory.page_size - 1) in
      let byte m = Bytes.get (Memory.get_page m i) off in
      if byte a <> byte b then ok := false
    | _ -> ok := false
  done;
  !ok

let same_memory a b =
  let pages = Memory.touched_pages a in
  pages = Memory.touched_pages b
  && List.for_all (fun i -> Bytes.equal (Memory.get_page a i) (Memory.get_page b i)) pages

(* The byte ranges an instruction may write, from the state before it
   runs: its memory operands, the pushed stack word, the string
   destination. *)
let write_windows (cpu : Cpu.t) (insn : Isa.insn) =
  let ea (m : Isa.mem) = Ref_step.mem_addr cpu m in
  let stack = (Semantics.mask32 (Cpu.get cpu ESP - 4), 4) in
  match insn with
  | Mov (Mem m, _) | Alu (_, Mem m, _) | Inc (Mem m) | Dec (Mem m) | Neg (Mem m)
  | Not (Mem m) | Shift (_, Mem m, _) | Movw (_, m, _) | Fst (m, _) ->
    [ (ea m, 8) ]
  | Push _ | Call _ | CallInd _ -> [ stack ]
  | Str (_, w, rep) ->
    let n = match rep with NoRep -> 1 | _ -> Cpu.get cpu ECX in
    [ (Cpu.get cpu EDI, min 65536 (n * Isa.width_bytes w)) ]
  | _ -> []

let lockstep ~what ~steps (a : Interp_ref.t) (b : Interp_ref.t) =
  let ric = Ref_step.icache_create () in
  let k = ref 0 in
  while !k < steps && not a.cpu.halted do
    let insn, _ = Ref_step.fetch ric b.mem b.cpu.eip in
    let windows = write_windows b.cpu insn in
    let ka = match Step.step a.icache a.cpu a.mem with k -> Ok k | exception e -> Error e in
    let kb =
      match Ref_step.step ric b.cpu b.mem with
      | r -> Ok (kind_of_control r.control)
      | exception e -> Error e
    in
    (match (ka, kb) with
    | Ok x, Ok y when x = y -> ()
    | Error x, Error y when Printexc.to_string x = Printexc.to_string y -> raise x
    | _ ->
      let show = function Ok k -> kind_name k | Error e -> Printexc.to_string e in
      Alcotest.failf "%s: step %d at 0x%x (%s): %s vs reference %s" what !k b.cpu.eip
        (Isa.to_string insn) (show ka) (show kb));
    if ka = Ok Syscall then begin
      ignore (Interp_ref.service_syscall a);
      ignore (Interp_ref.service_syscall b)
    end;
    let here = Printf.sprintf "%s: step %d (%s)" what !k (Isa.to_string insn) in
    Tgen.check_cpu_equal here a.cpu b.cpu;
    List.iter
      (fun (addr, len) ->
        if not (same_bytes a.mem b.mem addr len) then
          Alcotest.failf "%s wrote differently at 0x%x" here addr)
      windows;
    if !k land 4095 = 0 && not (same_memory a.mem b.mem) then
      Alcotest.failf "%s: memory differs by step %d" what !k;
    incr k
  done;
  if not (same_memory a.mem b.mem) then Alcotest.failf "%s: final memory differs" what

let prop_step_matches_reference =
  QCheck.Test.make ~count:60 ~name:"Step = reference Step on random programs"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = Tgen.random_program ~seed () in
      lockstep ~what:(Printf.sprintf "program %d" seed) ~steps:200_000
        (Interp_ref.boot ~seed:1 p) (Interp_ref.boot ~seed:1 p);
      true)

let test_step_matches_reference_on_workloads () =
  List.iter
    (fun (e : Darco_workloads.Registry.entry) ->
      let p = e.build () in
      let boot () = Interp_ref.boot ~seed:42 p in
      lockstep ~what:e.name ~steps:50_000 (boot ()) (boot ()))
    Darco_workloads.Registry.all

(* The reference emulator's per-instruction path allocates nothing: over a
   warm 100k-instruction window, integer code stays under 0.1 minor words
   per instruction (syscall service and the rare decode-cache miss are
   the remainder), and FP-heavy code under 5 (FP arithmetic boxes its
   operands at the [Semantics] call). *)
let test_run_until_allocation () =
  List.iter
    (fun (name, bound) ->
      let r = Interp_ref.boot ~seed:42 ((Darco_workloads.Registry.find name).build ()) in
      Interp_ref.run_until r 100_000;
      let before = Gc.minor_words () in
      Interp_ref.run_until r 200_000;
      let per_insn = (Gc.minor_words () -. before) /. float_of_int (r.retired - 100_000) in
      if not (per_insn <= bound) then
        Alcotest.failf "%s: %.3f minor words per instruction (bound %.1f)" name per_insn bound)
    [ ("429.mcf", 0.1); ("401.bzip2", 0.1); ("470.lbm", 5.); ("explosions", 5.) ]

(* --- asm / loader / syscall --------------------------------------------- *)

let test_asm_duplicate_label () =
  let a = Asm.create () in
  Asm.label a "x";
  Alcotest.check_raises "dup" (Failure "Asm: duplicate label x") (fun () ->
      Asm.label a "x")

let test_asm_undefined_label () =
  let a = Asm.create () in
  Asm.jmp a "nowhere";
  Alcotest.check_raises "undef" (Failure "Asm: undefined label nowhere") (fun () ->
      ignore (Asm.assemble a))

let test_asm_layout () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a Nop;
  Asm.label a "after_nop";
  Asm.insn a Nop;
  let p = Asm.assemble a in
  Alcotest.(check int) "label address" 0x1001 (Program.symbol p "after_nop");
  Alcotest.(check int) "image size" 2 (Program.code_bytes p)

let test_syscall_write_and_exit () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Mem { base = None; index = None; disp = 0x3000 }, Imm 0x6F6C6568));
  (* "helo" *)
  Asm.insn a (Mov (Reg EBX, Imm 1));
  Asm.insn a (Mov (Reg ECX, Imm 0x3000));
  Asm.insn a (Mov (Reg EDX, Imm 4));
  Asm.insn a (Mov (Reg EAX, Imm 4));
  Asm.insn a Syscall;
  Asm.insn a (Mov (Reg EBX, Imm 33));
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let r = Interp_ref.boot ~seed:0 (Asm.assemble a) in
  ignore (Interp_ref.run_to_halt r);
  Alcotest.(check string) "output" "helo" (Interp_ref.output r);
  Alcotest.(check (option int)) "exit code" (Some 33) r.exit_code

let test_syscall_read () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg ECX, Imm 0x3000));
  Asm.insn a (Mov (Reg EDX, Imm 5));
  Asm.insn a (Mov (Reg EAX, Imm 3));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let r = Interp_ref.boot ~input:"abcdef" ~seed:0 (Asm.assemble a) in
  ignore (Interp_ref.run_to_halt r);
  Alcotest.(check int) "bytes read" 5 (Cpu.get r.cpu EAX);
  Alcotest.(check int) "buffer" (Char.code 'a') (Memory.read8 r.mem 0x3000);
  Alcotest.(check int) "buffer end" (Char.code 'e') (Memory.read8 r.mem 0x3004)

let test_run_until_counts () =
  let a = Asm.create ~base:0x1000 () in
  for _ = 1 to 10 do
    Asm.insn a Nop
  done;
  Asm.insn a Halt;
  let r = Interp_ref.boot ~seed:0 (Asm.assemble a) in
  Interp_ref.run_until r 4;
  Alcotest.(check int) "retired exactly" 4 r.retired;
  Alcotest.(check int) "eip advanced" 0x1004 r.cpu.eip

let () =
  Alcotest.run "guest"
    [
      ( "semantics",
        [
          Alcotest.test_case "add flags" `Quick test_add_flags;
          Alcotest.test_case "sub flags" `Quick test_sub_flags;
          Alcotest.test_case "adc/sbb chains" `Quick test_adc_sbb_chain;
          Alcotest.test_case "logic flags" `Quick test_logic_flags;
          Alcotest.test_case "inc/dec preserve CF" `Quick test_inc_dec_preserve_cf;
          Alcotest.test_case "shifts" `Quick test_shift_semantics;
          Alcotest.test_case "multiply" `Quick test_mul;
          Alcotest.test_case "divide" `Quick test_div;
          Alcotest.test_case "sign extension" `Quick test_sign_extend;
          Alcotest.test_case "float->int" `Quick test_f2i;
          Alcotest.test_case "fcmp" `Quick test_fcmp;
          QCheck_alcotest.to_alcotest prop_div_identity;
          QCheck_alcotest.to_alcotest prop_alu_matches_int64;
        ] );
      ( "conditions",
        [
          Alcotest.test_case "eval_cond table" `Quick test_eval_cond;
          QCheck_alcotest.to_alcotest prop_negate_cond;
        ] );
      ( "memory-model",
        [
          QCheck_alcotest.to_alcotest (prop_memory_matches_model `Auto_zero);
          QCheck_alcotest.to_alcotest (prop_memory_matches_model `Fault);
        ] );
      ( "step-model",
        [
          QCheck_alcotest.to_alcotest prop_step_matches_reference;
          Alcotest.test_case "Step = reference Step on 31 workloads" `Quick
            test_step_matches_reference_on_workloads;
          Alcotest.test_case "run_until allocation" `Quick test_run_until_allocation;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          Alcotest.test_case "control transfers" `Quick test_codec_control;
          Alcotest.test_case "bad encoding" `Quick test_codec_bad_encoding;
          Alcotest.test_case "width-3 fixture" `Quick test_codec_width3_fixture;
          QCheck_alcotest.to_alcotest prop_decode_total;
          Alcotest.test_case "variable length" `Quick test_codec_variable_length;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "page boundary" `Quick test_memory_page_boundary;
          Alcotest.test_case "fault policy" `Quick test_memory_fault_policy;
          Alcotest.test_case "f64" `Quick test_memory_f64;
          Alcotest.test_case "equal_page" `Quick test_memory_equal_page;
        ] );
      ("cpu", [ Alcotest.test_case "get/set/copy/diff" `Quick test_cpu_ops ]);
      ( "step",
        [
          Alcotest.test_case "push/pop" `Quick test_step_push_pop;
          Alcotest.test_case "pop esp" `Quick test_step_pop_esp;
          Alcotest.test_case "call/ret" `Quick test_step_call_ret;
          Alcotest.test_case "rep movs" `Quick test_step_string_rep_movs;
          Alcotest.test_case "repe cmps" `Quick test_step_repe_cmps;
          Alcotest.test_case "stos/scas" `Quick test_step_stos_scas;
          Alcotest.test_case "cmov/setcc" `Quick test_step_cmov_setcc;
          Alcotest.test_case "fault atomicity" `Quick test_step_fault_leaves_state;
        ] );
      ( "asm-loader-syscall",
        [
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "layout" `Quick test_asm_layout;
          Alcotest.test_case "write + exit" `Quick test_syscall_write_and_exit;
          Alcotest.test_case "read input" `Quick test_syscall_read;
          Alcotest.test_case "run_until" `Quick test_run_until_counts;
        ] );
    ]
