open Darco_guest
open Darco_host

type stop =
  | Stop_exit of Code.exit_info
  | Stop_indirect_miss of int
  | Stop_rollback of [ `Assert | `Alias ] * Code.region
  | Stop_fault of int * Code.region
  | Stop_fuel of int

type result = {
  stop : stop;
  host_retired : int;
  host_bb : int;
  host_super : int;
  guest_bb : int;
  guest_super : int;
  chains_followed : int;
  wasted_host : int;
}

(* --- the packed form ------------------------------------------------------ *)

(* One operation per instruction, with the operator, comparison, width and
   signedness folded in, so one jump table dispatches it.  [Op_boxed]
   instructions (an FP immediate, the runtime services) run from the boxed
   [Code.insn]. *)
type op =
  | Op_nop | Op_li
  | Op_add | Op_sub | Op_mul | Op_mulhu | Op_mulhs | Op_and | Op_or | Op_xor
  | Op_shl | Op_shr | Op_sar | Op_slt | Op_sltu | Op_seq | Op_sne
  | Op_addi | Op_subi | Op_muli | Op_mulhui | Op_mulhsi | Op_andi | Op_ori
  | Op_xori | Op_shli | Op_shri | Op_sari | Op_slti | Op_sltui | Op_seqi | Op_snei
  | Op_ld8 | Op_ld8s | Op_ld16 | Op_ld16s | Op_ld32 | Op_ld32s
  | Op_sld8 | Op_sld8s | Op_sld16 | Op_sld16s | Op_sld32 | Op_sld32s
  | Op_st8 | Op_st16 | Op_st32
  | Op_fmov | Op_fadd | Op_fsub | Op_fmul | Op_fdiv | Op_fsqrt | Op_fabs | Op_fneg
  | Op_fload | Op_fstore | Op_fcmp | Op_cvtif | Op_cvtfi
  | Op_mkfl | Op_isel | Op_boxed
  | Op_beq | Op_bne | Op_blt | Op_bge | Op_bltu | Op_bgeu | Op_j
  | Op_jr | Op_assert | Op_chk | Op_commit | Op_exit

type compiled = {
  code : Code.insn array;
  ops : op array;
  regs : int array;
      (* up to four register fields of 7 bits, first operand lowest; a
         register outside [0, 127] is stored as 127, which no register file
         has, so its access fails the bounds check it failed before *)
  imm : int array;
      (* the immediate (masked to 32 bits), displacement, branch target,
         commit count, [Mkfl] kind or [Assert] comparison, by index *)
  limit : int;  (* runaway bound: regions are acyclic by construction *)
  mutable descs : int array;  (* timing descriptors, by [describe] below *)
  mutable describe : Code.insn -> int;
}

let flkinds : Code.flkind array =
  [| Fl_add; Fl_adc; Fl_sub; Fl_sbb; Fl_logic; Fl_shl; Fl_shr; Fl_sar; Fl_rol; Fl_ror;
     Fl_inc; Fl_dec; Fl_neg; Fl_mulu; Fl_muls |]

let cmps : Code.cmp array = [| Beq; Bne; Blt; Bge; Bltu; Bgeu |]

let rec index_of a x i = if a.(i) = x then i else index_of a x (i + 1)

let undescribed (_ : Code.insn) = 0

let compile (region : Code.region) =
  let code = region.code in
  let n = Array.length code in
  let ops = Array.make n Op_nop and regs = Array.make n 0 and imm = Array.make n 0 in
  let field r = if r >= 0 && r < 128 then r else 127 in
  let pack ?(b = 0) ?(c = 0) ?(d = 0) a =
    field a lor (field b lsl 7) lor (field c lsl 14) lor (field d lsl 21)
  in
  let binop (op : Code.binop) ~imm:i =
    match op with
    | Add -> if i then Op_addi else Op_add
    | Sub -> if i then Op_subi else Op_sub
    | Mul -> if i then Op_muli else Op_mul
    | Mulhu -> if i then Op_mulhui else Op_mulhu
    | Mulhs -> if i then Op_mulhsi else Op_mulhs
    | And -> if i then Op_andi else Op_and
    | Or -> if i then Op_ori else Op_or
    | Xor -> if i then Op_xori else Op_xor
    | Shl -> if i then Op_shli else Op_shl
    | Shr -> if i then Op_shri else Op_shr
    | Sar -> if i then Op_sari else Op_sar
    | Slt -> if i then Op_slti else Op_slt
    | Sltu -> if i then Op_sltui else Op_sltu
    | Seq -> if i then Op_seqi else Op_seq
    | Sne -> if i then Op_snei else Op_sne
  in
  let loads =
    [| Op_ld8; Op_ld8s; Op_ld16; Op_ld16s; Op_ld32; Op_ld32s;
       Op_sld8; Op_sld8s; Op_sld16; Op_sld16s; Op_sld32; Op_sld32s |]
  in
  let load (w : Isa.width) signed ~spec =
    loads.((match w with W8 -> 0 | W16 -> 2 | W32 -> 4) + Bool.to_int signed + if spec then 6 else 0)
  in
  Array.iteri
    (fun i (insn : Code.insn) ->
      let set op r v =
        ops.(i) <- op;
        regs.(i) <- r;
        imm.(i) <- v
      in
      match insn with
      | Nop -> set Op_nop 0 0
      | Li (rd, v) -> set Op_li (pack rd) v
      | Bin (op, rd, ra, rb) -> set (binop op ~imm:false) (pack rd ~b:ra ~c:rb) 0
      | Bini (op, rd, ra, v) ->
        set (binop op ~imm:true) (pack rd ~b:ra) (Semantics.mask32 v)
      | Load (w, s, rd, ra, d) -> set (load w s ~spec:false) (pack rd ~b:ra) d
      | Sload (w, s, rd, ra, d) -> set (load w s ~spec:true) (pack rd ~b:ra) d
      | Store (w, rv, ra, d) ->
        set (match w with W8 -> Op_st8 | W16 -> Op_st16 | W32 -> Op_st32) (pack rv ~b:ra) d
      | Fmov (fd, fs) -> set Op_fmov (pack fd ~b:fs) 0
      | Fbin (op, fd, fa, fb) ->
        set
          (match op with Fadd -> Op_fadd | Fsub -> Op_fsub | Fmul -> Op_fmul | Fdiv -> Op_fdiv)
          (pack fd ~b:fa ~c:fb) 0
      | Fun (op, fd, fa) ->
        set (match op with Fsqrt -> Op_fsqrt | Fabs -> Op_fabs | Fneg -> Op_fneg) (pack fd ~b:fa) 0
      | Fload (fd, ra, d) -> set Op_fload (pack fd ~b:ra) d
      | Fstore (fv, ra, d) -> set Op_fstore (pack fv ~b:ra) d
      | Fcmp (rd, fa, fb) -> set Op_fcmp (pack rd ~b:fa ~c:fb) 0
      | Cvtif (fd, ra) -> set Op_cvtif (pack fd ~b:ra) 0
      | Cvtfi (rd, fa) -> set Op_cvtfi (pack rd ~b:fa) 0
      | Mkfl (k, rd, ra, rb, rc) ->
        set Op_mkfl (pack rd ~b:ra ~c:rb ~d:rc) (index_of flkinds k 0)
      | Isel (rd, rc, ra, rb) -> set Op_isel (pack rd ~b:rc ~c:ra ~d:rb) 0
      | Fli _ | Callrt_f _ | Callrt_div _ -> set Op_boxed 0 0
      | B (c, ra, rb, t) ->
        set
          (match c with
          | Beq -> Op_beq | Bne -> Op_bne | Blt -> Op_blt | Bge -> Op_bge
          | Bltu -> Op_bltu | Bgeu -> Op_bgeu)
          (pack ra ~b:rb) t
      | J t -> set Op_j 0 t
      | Jr (ra, rg) -> set Op_jr (pack ra ~b:rg) 0
      | Assert (c, ra, rb) -> set Op_assert (pack ra ~b:rb) (index_of cmps c 0)
      | Chk -> set Op_chk 0 0
      | Commit k -> set Op_commit 0 k
      | Exit _ -> set Op_exit 0 0)
    code;
  {
    code;
    ops;
    regs;
    imm;
    limit = (100 * n) + 10_000;
    descs = [||];
    describe = undescribed;
  }

(* --- operand access ------------------------------------------------------- *)

let[@inline] f0 w = w land 0x7F
let[@inline] f1 w = (w lsr 7) land 0x7F
let[@inline] f2 w = (w lsr 14) land 0x7F
let[@inline] f3 w = (w lsr 21) land 0x7F
let[@inline] get m f = Machine.get m f
let[@inline] set m f v = Machine.set m f v
let[@inline] ea m w d = Semantics.mask32 (Machine.get m (f1 w) + d)

let[@inline] load ~spec m width ~signed w d =
  let a = ea m w d in
  let v = if spec then Machine.load_spec m width ~signed a else Machine.load m width ~signed a in
  set m (f0 w) v;
  a

let[@inline] store m width w d =
  let a = ea m w d in
  Machine.store m width a (Machine.get m (f0 w));
  a

(* An intra-region branch to index [t] of [r], as the retire stream
   records it. *)
let[@inline] branch_word (r : Code.region) t taken =
  Retire.branch_word ~taken ~target:(Code.host_pc r t)

(* The instructions the packed form leaves boxed; returns the weight the
   instruction retires with (a runtime service counts its routine's host
   instructions). *)
let boxed (m : Machine.t) (insn : Code.insn) =
  match insn with
  | Fli (fd, v) ->
    m.f.(fd) <- v;
    1
  | Callrt_f (fn, fd, fs) ->
    let g : Isa.fp_un = match fn with Rt_sin -> Fsin | Rt_cos -> Fcos | _ -> assert false in
    m.f.(fd) <- Semantics.fp_un g m.f.(fs);
    Code.rt_cost fn
  | Callrt_div { signed; q; r = rr; hi; lo; d } ->
    let div = if signed then Semantics.div_s else Semantics.div_u in
    let qv, rv = div ~hi:(Machine.get m hi) ~lo:(Machine.get m lo) (Machine.get m d) in
    Machine.set m q qv;
    Machine.set m rr rv;
    Code.rt_cost (if signed then Rt_divs else Rt_divu)
  | _ -> invalid_arg "Threaded.boxed: a packed instruction"

let exit_at c i =
  match c.code.(i) with Exit e -> e | _ -> invalid_arg "Threaded.exit_at: not an exit"

(* A region's descriptors as the sink's [describe] gives them, computed on
   its first run with that sink. *)
let descriptors c (s : Retire.sink) =
  if c.describe != s.describe then begin
    c.descs <- Array.map s.describe c.code;
    c.describe <- s.describe
  end;
  c.descs

(* --- the loop --------------------------------------------------------------- *)

let run m ~resolve ~get:packed ?(fuel = max_int) ?retire entry =
  let region = ref entry and c = ref (packed entry) in
  let descs = ref (match retire with Some s -> descriptors !c s | None -> [||]) in
  (* [count] instructions have retired, weighing [count + extra] host
     instructions (a runtime service weighs more than one); the runaway
     bound for this region visit is [bound] *)
  let i = ref 0 and count = ref 0 and extra = ref 0 and bound = ref !c.limit in
  (* the weight retired when [!region] was entered and at the last Chk or
     Commit: the host count in [`Bb] regions and the work a rollback
     wastes are differences from them *)
  let entered = ref 0 and committed = ref 0 and host_bb = ref 0 in
  let guest_bb = ref 0 and guest_super = ref 0 in
  let chains = ref 0 and wasted = ref 0 in
  (* the instruction's effective address and branch word, for the append,
     which clears them *)
  let addr = ref 0 and br = ref 0 in
  let stop = ref (Stop_fuel 0) in
  (try
     (* [i] is the next instruction's index, below 0 once the run stops *)
     while !i >= 0 do
       let k = !c and i0 = !i in
       assert (!count < !bound);
       let op = k.ops.(i0) in
       (* [compile] makes [regs] and [imm] as long as [ops], so the fetch's
          bounds check covers them *)
       let w = Array.unsafe_get k.regs i0 and v = Array.unsafe_get k.imm i0 in
       (* the successor: an arm may branch, or set it below 0 to act after
          the instruction retires *)
       i := i0 + 1;
       (match op with
       | Op_nop -> ()
       | Op_li -> set m (f0 w) v
       | Op_add -> set m (f0 w) (get m (f1 w) + get m (f2 w))
       | Op_sub -> set m (f0 w) (get m (f1 w) - get m (f2 w))
       | Op_mul -> set m (f0 w) (Semantics.result_of (Semantics.mul_u (get m (f1 w)) (get m (f2 w))))
       | Op_mulhu -> set m (f0 w) (Semantics.mulhi_u (get m (f1 w)) (get m (f2 w)))
       | Op_mulhs -> set m (f0 w) (Semantics.mulhi_s (get m (f1 w)) (get m (f2 w)))
       | Op_and -> set m (f0 w) (get m (f1 w) land get m (f2 w))
       | Op_or -> set m (f0 w) (get m (f1 w) lor get m (f2 w))
       | Op_xor -> set m (f0 w) (get m (f1 w) lxor get m (f2 w))
       | Op_shl -> set m (f0 w) (get m (f1 w) lsl (get m (f2 w) land 31))
       | Op_shr -> set m (f0 w) (get m (f1 w) lsr (get m (f2 w) land 31))
       | Op_sar -> set m (f0 w) (Semantics.signed (get m (f1 w)) asr (get m (f2 w) land 31))
       | Op_slt ->
         set m (f0 w) (Bool.to_int (Semantics.signed (get m (f1 w)) < Semantics.signed (get m (f2 w))))
       | Op_sltu -> set m (f0 w) (Bool.to_int (get m (f1 w) < get m (f2 w)))
       | Op_seq -> set m (f0 w) (Bool.to_int (get m (f1 w) = get m (f2 w)))
       | Op_sne -> set m (f0 w) (Bool.to_int (get m (f1 w) <> get m (f2 w)))
       | Op_addi -> set m (f0 w) (get m (f1 w) + v)
       | Op_subi -> set m (f0 w) (get m (f1 w) - v)
       | Op_muli -> set m (f0 w) (Semantics.result_of (Semantics.mul_u (get m (f1 w)) v))
       | Op_mulhui -> set m (f0 w) (Semantics.mulhi_u (get m (f1 w)) v)
       | Op_mulhsi -> set m (f0 w) (Semantics.mulhi_s (get m (f1 w)) v)
       | Op_andi -> set m (f0 w) (get m (f1 w) land v)
       | Op_ori -> set m (f0 w) (get m (f1 w) lor v)
       | Op_xori -> set m (f0 w) (get m (f1 w) lxor v)
       | Op_shli -> set m (f0 w) (get m (f1 w) lsl (v land 31))
       | Op_shri -> set m (f0 w) (get m (f1 w) lsr (v land 31))
       | Op_sari -> set m (f0 w) (Semantics.signed (get m (f1 w)) asr (v land 31))
       | Op_slti -> set m (f0 w) (Bool.to_int (Semantics.signed (get m (f1 w)) < Semantics.signed v))
       | Op_sltui -> set m (f0 w) (Bool.to_int (get m (f1 w) < v))
       | Op_seqi -> set m (f0 w) (Bool.to_int (get m (f1 w) = v))
       | Op_snei -> set m (f0 w) (Bool.to_int (get m (f1 w) <> v))
       | Op_ld8 -> addr := load ~spec:false m W8 ~signed:false w v
       | Op_ld8s -> addr := load ~spec:false m W8 ~signed:true w v
       | Op_ld16 -> addr := load ~spec:false m W16 ~signed:false w v
       | Op_ld16s -> addr := load ~spec:false m W16 ~signed:true w v
       | Op_ld32 -> addr := load ~spec:false m W32 ~signed:false w v
       | Op_ld32s -> addr := load ~spec:false m W32 ~signed:true w v
       | Op_sld8 -> addr := load ~spec:true m W8 ~signed:false w v
       | Op_sld8s -> addr := load ~spec:true m W8 ~signed:true w v
       | Op_sld16 -> addr := load ~spec:true m W16 ~signed:false w v
       | Op_sld16s -> addr := load ~spec:true m W16 ~signed:true w v
       | Op_sld32 -> addr := load ~spec:true m W32 ~signed:false w v
       | Op_sld32s -> addr := load ~spec:true m W32 ~signed:true w v
       | Op_st8 -> addr := store m W8 w v
       | Op_st16 -> addr := store m W16 w v
       | Op_st32 -> addr := store m W32 w v
       | Op_fmov -> m.f.(f0 w) <- m.f.(f1 w)
       | Op_fadd -> m.f.(f0 w) <- m.f.(f1 w) +. m.f.(f2 w)
       | Op_fsub -> m.f.(f0 w) <- m.f.(f1 w) -. m.f.(f2 w)
       | Op_fmul -> m.f.(f0 w) <- m.f.(f1 w) *. m.f.(f2 w)
       | Op_fdiv -> m.f.(f0 w) <- m.f.(f1 w) /. m.f.(f2 w)
       | Op_fsqrt -> m.f.(f0 w) <- Float.sqrt m.f.(f1 w)
       | Op_fabs -> m.f.(f0 w) <- Float.abs m.f.(f1 w)
       | Op_fneg -> m.f.(f0 w) <- Float.neg m.f.(f1 w)
       | Op_fload ->
         let a = ea m w v in
         Machine.load_f64 m (f0 w) a;
         addr := a
       | Op_fstore ->
         let a = ea m w v in
         Machine.store_f64 m a (f0 w);
         addr := a
       | Op_fcmp -> set m (f0 w) (Semantics.fcmp_flags m.f.(f1 w) m.f.(f2 w))
       | Op_cvtif -> m.f.(f0 w) <- Semantics.i2f (get m (f1 w))
       | Op_cvtfi -> set m (f0 w) (Semantics.f2i m.f.(f1 w))
       | Op_mkfl ->
         set m (f0 w)
           (Flagcalc.compute flkinds.(v) ~a:(get m (f1 w)) ~b:(get m (f2 w))
              ~c:(get m (f3 w)))
       | Op_isel -> set m (f0 w) (if get m (f1 w) <> 0 then get m (f2 w) else get m (f3 w))
       | Op_boxed -> extra := !extra + boxed m k.code.(i0) - 1
       | Op_beq ->
         let taken = get m (f0 w) = get m (f1 w) in
         if taken then i := v;
         br := branch_word !region v taken
       | Op_bne ->
         let taken = get m (f0 w) <> get m (f1 w) in
         if taken then i := v;
         br := branch_word !region v taken
       | Op_blt ->
         let taken = Semantics.signed (get m (f0 w)) < Semantics.signed (get m (f1 w)) in
         if taken then i := v;
         br := branch_word !region v taken
       | Op_bge ->
         let taken = Semantics.signed (get m (f0 w)) >= Semantics.signed (get m (f1 w)) in
         if taken then i := v;
         br := branch_word !region v taken
       | Op_bltu ->
         let taken = get m (f0 w) < get m (f1 w) in
         if taken then i := v;
         br := branch_word !region v taken
       | Op_bgeu ->
         let taken = get m (f0 w) >= get m (f1 w) in
         if taken then i := v;
         br := branch_word !region v taken
       | Op_j ->
         br := branch_word !region v true;
         i := v
       | Op_jr ->
         br := Retire.branch_word ~taken:true ~target:(get m (f0 w));
         i := -1
       | Op_assert -> i := -1
       | Op_chk ->
         Machine.checkpoint m;
         committed := !count + !extra
       | Op_commit ->
         Machine.commit m;
         (match !region.mode with
         | `Bb -> guest_bb := !guest_bb + v
         | `Super -> guest_super := !guest_super + v);
         committed := !count + !extra
       | Op_exit ->
         let target =
           match (exit_at k i0).chain with Some r' -> r'.base | None -> 0xE000_0000
         in
         br := Retire.branch_word ~taken:true ~target;
         i := -1);
       incr count;
       (match retire with
       | None -> ()
       | Some s ->
         let b = s.batch in
         if b.length = Array.length b.pc then Retire.flush s;
         let n = b.length in
         b.pc.(n) <- !region.base + (4 * i0);
         b.desc.(n) <- !descs.(i0);
         b.addr.(n) <- !addr;
         b.branch.(n) <- !br;
         b.length <- n + 1;
         addr := 0;
         br := 0);
       if !i < 0 then
         (* an Assert compares after it retires; a transfer enters its
            target after retiring, when fuel remains; a stop leaves [i]
            below 0 *)
         match op with
         | Op_assert ->
           if Code.cmp_holds cmps.(v) (get m (f0 w)) (get m (f1 w)) then i := i0 + 1
           else begin
             wasted := !count + !extra - !committed;
             Machine.rollback m;
             stop := Stop_rollback (`Assert, !region)
           end
         | Op_jr | Op_exit -> (
           let dest = if op = Op_jr then resolve (get m (f0 w)) else (exit_at k i0).chain in
           match dest with
           | Some r' when not r'.invalidated ->
             let retired = !count + !extra in
             if retired >= fuel then stop := Stop_fuel r'.entry_pc
             else begin
               if !region.mode = `Bb then host_bb := !host_bb + retired - !entered;
               entered := retired;
               incr chains;
               region := r';
               c := packed r';
               (match retire with Some s -> descs := descriptors !c s | None -> ());
               i := 0;
               bound := !count + !c.limit
             end
           | Some _ | None ->
             stop :=
               if op = Op_jr then Stop_indirect_miss (get m (f1 w))
               else Stop_exit (exit_at k i0))
         | _ ->
           (* a branch to a negative index: its fetch fails, after the guard *)
           assert (!count < !bound);
           ignore k.ops.(!i)
     done
   with
  | Machine.Alias_violation ->
    wasted := !count + !extra - !committed;
    Machine.rollback m;
    stop := Stop_rollback (`Alias, !region)
  | Memory.Page_fault p ->
    wasted := !count + !extra - !committed;
    Machine.rollback m;
    stop := Stop_fault (p, !region)
  | e ->
    Option.iter Retire.flush retire;
    raise e);
  let retired = !count + !extra in
  if !region.mode = `Bb then host_bb := !host_bb + retired - !entered;
  (* every return hands the pending entries to the consumer, so the timing
     model has seen the whole stream when [run] returns *)
  Option.iter Retire.flush retire;
  {
    stop = !stop;
    host_retired = retired;
    host_bb = !host_bb;
    host_super = retired - !host_bb;
    guest_bb = !guest_bb;
    guest_super = !guest_super;
    chains_followed = !chains;
    wasted_host = !wasted;
  }
