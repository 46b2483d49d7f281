open Darco_guest
open Darco_host

type flag_thunk =
  | Fl_known of Ir.vreg
  | Fl_op of Code.flkind * Ir.vreg * Ir.vreg * Ir.vreg

type snapshot = {
  s_reg : Ir.vreg option array;
  s_dirty : bool array;
  s_freg : Ir.vfreg option array;
  s_fdirty : bool array;
  s_flags : flag_thunk option;
  s_arch_fl : Ir.vreg option;
  s_retired : int;
  s_consts : (int * Ir.vreg) list;
}

type stub = { br_index : int; snap : snapshot; gen : ctx -> unit }

and ctx = {
  entry_pc : int;
  mutable arr : Ir.t array;
  mutable len : int;
  mutable vnext : int;
  mutable fnext : int;
  reg : Ir.vreg option array;
  dirty : bool array;
  freg : Ir.vfreg option array;
  fdirty : bool array;
  mutable flags : flag_thunk option;  (* None = architectural, untouched *)
  mutable arch_fl : Ir.vreg option;   (* cached Igetfl result *)
  mutable retired : int;
  mutable consts : (int * Ir.vreg) list;
  mutable stubs : stub list;          (* newest first *)
}

let create ~entry_pc =
  {
    entry_pc;
    arr = Array.make 64 (Ir.Iexit { target = Xhalt; retired = 0; prefer_bb = false; edge = None });
    len = 0;
    vnext = 0;
    fnext = 0;
    reg = Array.make 8 None;
    dirty = Array.make 8 false;
    freg = Array.make 8 None;
    fdirty = Array.make 8 false;
    flags = None;
    arch_fl = None;
    retired = 0;
    consts = [];
    stubs = [];
  }

let emit ctx insn =
  if ctx.len = Array.length ctx.arr then begin
    let bigger = Array.make (2 * ctx.len) insn in
    Array.blit ctx.arr 0 bigger 0 ctx.len;
    ctx.arr <- bigger
  end;
  ctx.arr.(ctx.len) <- insn;
  ctx.len <- ctx.len + 1

let fresh_v ctx =
  let v = ctx.vnext in
  ctx.vnext <- v + 1;
  v

let fresh_f ctx =
  let f = ctx.fnext in
  ctx.fnext <- f + 1;
  f

let snapshot ctx =
  {
    s_reg = Array.copy ctx.reg;
    s_dirty = Array.copy ctx.dirty;
    s_freg = Array.copy ctx.freg;
    s_fdirty = Array.copy ctx.fdirty;
    s_flags = ctx.flags;
    s_arch_fl = ctx.arch_fl;
    s_retired = ctx.retired;
    s_consts = ctx.consts;
  }

let restore ctx s =
  Array.blit s.s_reg 0 ctx.reg 0 8;
  Array.blit s.s_dirty 0 ctx.dirty 0 8;
  Array.blit s.s_freg 0 ctx.freg 0 8;
  Array.blit s.s_fdirty 0 ctx.fdirty 0 8;
  ctx.flags <- s.s_flags;
  ctx.arch_fl <- s.s_arch_fl;
  ctx.retired <- s.s_retired;
  ctx.consts <- s.s_consts

(* --- guest state cache ------------------------------------------------- *)

let get_reg ctx r =
  let i = Isa.reg_index r in
  match ctx.reg.(i) with
  | Some v -> v
  | None ->
    let v = fresh_v ctx in
    emit ctx (Ir.Iget (v, r));
    ctx.reg.(i) <- Some v;
    v

let set_reg ctx r v =
  let i = Isa.reg_index r in
  ctx.reg.(i) <- Some v;
  ctx.dirty.(i) <- true

let get_freg ctx f =
  let i = Isa.freg_index f in
  match ctx.freg.(i) with
  | Some v -> v
  | None ->
    let v = fresh_f ctx in
    emit ctx (Ir.Igetf (v, f));
    ctx.freg.(i) <- Some v;
    v

let set_freg ctx f v =
  let i = Isa.freg_index f in
  ctx.freg.(i) <- Some v;
  ctx.fdirty.(i) <- true

let li ctx n =
  let n = Semantics.mask32 n in
  match List.assoc_opt n ctx.consts with
  | Some v -> v
  | None ->
    let v = fresh_v ctx in
    emit ctx (Ir.Ili (v, n));
    ctx.consts <- (n, v) :: ctx.consts;
    v

(* --- flags ------------------------------------------------------------- *)

let arch_flags ctx =
  assert (ctx.flags = None);
  match ctx.arch_fl with
  | Some v -> v
  | None ->
    let v = fresh_v ctx in
    emit ctx (Ir.Igetfl v);
    ctx.arch_fl <- Some v;
    v

let materialize_flags ctx =
  match ctx.flags with
  | None -> arch_flags ctx
  | Some (Fl_known v) -> v
  | Some (Fl_op (k, a, b, c)) ->
    let d = fresh_v ctx in
    emit ctx (Ir.Imkfl (k, d, a, b, c));
    ctx.flags <- Some (Fl_known d);
    d

let set_thunk ctx k a b c = ctx.flags <- Some (Fl_op (k, a, b, c))

(* Current CF as a 0/1 value (ADC/SBB consumption). *)
let cf_value ctx =
  match ctx.flags with
  | Some (Fl_op (Fl_sub, a, b, _)) ->
    let t = fresh_v ctx in
    emit ctx (Ir.Ibin (Sltu, t, a, b));
    t
  | _ ->
    let v = materialize_flags ctx in
    let t = fresh_v ctx in
    emit ctx (Ir.Ibini (And, t, v, Flags.cf_bit));
    t

type cond_lowering =
  | Cfused of Code.cmp * Ir.vreg * Ir.vreg
  | Cconst of bool

let fuse_sub (c : Isa.cond) a b =
  match c with
  | E -> Some (Cfused (Beq, a, b))
  | NE -> Some (Cfused (Bne, a, b))
  | L -> Some (Cfused (Blt, a, b))
  | GE -> Some (Cfused (Bge, a, b))
  | LE -> Some (Cfused (Bge, b, a))
  | G -> Some (Cfused (Blt, b, a))
  | B -> Some (Cfused (Bltu, a, b))
  | AE -> Some (Cfused (Bgeu, a, b))
  | BE -> Some (Cfused (Bgeu, b, a))
  | A -> Some (Cfused (Bltu, b, a))
  | S | NS | O | NO -> None

let fuse_logic ctx (c : Isa.cond) r =
  let z () = li ctx 0 in
  match c with
  | E | BE -> Some (Cfused (Beq, r, z ()))
  | NE | A -> Some (Cfused (Bne, r, z ()))
  | S | L -> Some (Cfused (Blt, r, z ()))
  | NS | GE -> Some (Cfused (Bge, r, z ()))
  | G -> Some (Cfused (Blt, z (), r))
  | LE -> Some (Cfused (Bge, z (), r))
  | B | O -> Some (Cconst false)
  | AE | NO -> Some (Cconst true)

(* Fallback: extract bits from the packed flags. *)
let generic_cond ctx (c : Isa.cond) =
  let v = materialize_flags ctx in
  let z = li ctx 0 in
  let band mask =
    let t = fresh_v ctx in
    emit ctx (Ir.Ibini (And, t, v, mask));
    t
  in
  let sf_ne_of () =
    let u1 = fresh_v ctx in
    emit ctx (Ir.Ibini (Shr, u1, v, 2));
    let u2 = fresh_v ctx in
    emit ctx (Ir.Ibini (Shr, u2, v, 3));
    let u3 = fresh_v ctx in
    emit ctx (Ir.Ibin (Xor, u3, u1, u2));
    let t = fresh_v ctx in
    emit ctx (Ir.Ibini (And, t, u3, 1));
    t
  in
  (* (value, branch-if-nonzero?) *)
  let t, on_nonzero =
    match c with
    | E -> (band Flags.zf_bit, true)
    | NE -> (band Flags.zf_bit, false)
    | B -> (band Flags.cf_bit, true)
    | AE -> (band Flags.cf_bit, false)
    | S -> (band Flags.sf_bit, true)
    | NS -> (band Flags.sf_bit, false)
    | O -> (band Flags.of_bit, true)
    | NO -> (band Flags.of_bit, false)
    | BE -> (band (Flags.cf_bit lor Flags.zf_bit), true)
    | A -> (band (Flags.cf_bit lor Flags.zf_bit), false)
    | L -> (sf_ne_of (), true)
    | GE -> (sf_ne_of (), false)
    | LE ->
      let l = sf_ne_of () in
      let z1 = band Flags.zf_bit in
      let m = fresh_v ctx in
      emit ctx (Ir.Ibin (Or, m, l, z1));
      (m, true)
    | G ->
      let l = sf_ne_of () in
      let z1 = band Flags.zf_bit in
      let m = fresh_v ctx in
      emit ctx (Ir.Ibin (Or, m, l, z1));
      (m, false)
  in
  Cfused ((if on_nonzero then Bne else Beq), t, z)

(* INC/DEC record their result in the thunk's [b] slot; ZF/SF-only
   conditions fuse on it (OF-involved ones cannot: INC/DEC do set OF). *)
let fuse_incdec ctx (c : Isa.cond) res =
  match c with
  | E -> Some (Cfused (Beq, res, li ctx 0))
  | NE -> Some (Cfused (Bne, res, li ctx 0))
  | S -> Some (Cfused (Blt, res, li ctx 0))
  | NS -> Some (Cfused (Bge, res, li ctx 0))
  | L | GE | LE | G | B | AE | BE | A | O | NO -> None

let lower_cond ctx c =
  let fused =
    match ctx.flags with
    | Some (Fl_op (Fl_sub, a, b, _)) -> fuse_sub c a b
    | Some (Fl_op (Fl_logic, r, _, _)) -> fuse_logic ctx c r
    | Some (Fl_op ((Fl_inc | Fl_dec), _, res, _)) -> fuse_incdec ctx c res
    | _ -> None
  in
  match fused with Some cl -> cl | None -> generic_cond ctx c

let cond_value ctx c =
  match lower_cond ctx c with
  | Cconst b -> li ctx (if b then 1 else 0)
  | Cfused (cmp, a, b) -> (
    let direct op =
      let t = fresh_v ctx in
      emit ctx (Ir.Ibin (op, t, a, b));
      t
    in
    let inverted op =
      let t = direct op in
      let u = fresh_v ctx in
      emit ctx (Ir.Ibini (Xor, u, t, 1));
      u
    in
    match cmp with
    | Beq -> direct Seq
    | Bne -> direct Sne
    | Blt -> direct Slt
    | Bltu -> direct Sltu
    | Bge -> inverted Slt
    | Bgeu -> inverted Sltu)

(* --- addressing and operands ------------------------------------------ *)

let addr_of_mem ctx ({ base; index; disp } : Isa.mem) =
  let index_v =
    match index with
    | None -> None
    | Some (r, s) ->
      let iv = get_reg ctx r in
      let sf = Isa.scale_factor s in
      if sf = 1 then Some iv
      else begin
        let t = fresh_v ctx in
        emit ctx (Ir.Ibini (Shl, t, iv, match sf with 2 -> 1 | 4 -> 2 | _ -> 3));
        Some t
      end
  in
  match (base, index_v) with
  | None, None -> (li ctx 0, disp)
  | Some b, None -> (get_reg ctx b, disp)
  | None, Some iv -> (iv, disp)
  | Some b, Some iv ->
    let bv = get_reg ctx b in
    let t = fresh_v ctx in
    emit ctx (Ir.Ibin (Add, t, bv, iv));
    (t, disp)

let load_mem ctx w ~signed m =
  let a, off = addr_of_mem ctx m in
  let d = fresh_v ctx in
  emit ctx (Ir.Iload (w, signed, d, a, off));
  d

let eval ctx (o : Isa.operand) =
  match o with
  | Reg r -> get_reg ctx r
  | Imm n -> li ctx n
  | Mem m -> load_mem ctx W32 ~signed:false m

let store_opnd ctx (o : Isa.operand) v =
  match o with
  | Reg r -> set_reg ctx r v
  | Mem m ->
    let a, off = addr_of_mem ctx m in
    emit ctx (Ir.Istore (W32, v, a, off))
  | Imm _ -> invalid_arg "Translate: immediate destination"

(* Read-modify-write over a destination operand: computes the address once
   for memory destinations. *)
let rmw ctx (o : Isa.operand) f =
  match o with
  | Reg r ->
    let a = get_reg ctx r in
    let res = f a in
    set_reg ctx r res
  | Mem m ->
    let av, off = addr_of_mem ctx m in
    let a = fresh_v ctx in
    emit ctx (Ir.Iload (W32, false, a, av, off));
    let res = f a in
    emit ctx (Ir.Istore (W32, res, av, off))
  | Imm _ -> invalid_arg "Translate: immediate destination"

let translate_push_value ctx v =
  let sp = get_reg ctx ESP in
  let nsp = fresh_v ctx in
  emit ctx (Ir.Ibini (Sub, nsp, sp, 4));
  emit ctx (Ir.Istore (W32, v, nsp, 0));
  set_reg ctx ESP nsp

(* --- instruction bodies ------------------------------------------------ *)

let alu_result ctx (op : Isa.alu_op) a b =
  let bin o =
    let d = fresh_v ctx in
    emit ctx (Ir.Ibin (o, d, a, b));
    d
  in
  match op with
  | Add ->
    let d = bin Add in
    set_thunk ctx Fl_add a b a;
    d
  | Sub ->
    let d = bin Sub in
    set_thunk ctx Fl_sub a b a;
    d
  | Adc ->
    let cin = cf_value ctx in
    let t = bin Add in
    let d = fresh_v ctx in
    emit ctx (Ir.Ibin (Add, d, t, cin));
    set_thunk ctx Fl_adc a b cin;
    d
  | Sbb ->
    let cin = cf_value ctx in
    let t = bin Sub in
    let d = fresh_v ctx in
    emit ctx (Ir.Ibin (Sub, d, t, cin));
    set_thunk ctx Fl_sbb a b cin;
    d
  | And ->
    let d = bin And in
    set_thunk ctx Fl_logic d d d;
    d
  | Or ->
    let d = bin Or in
    set_thunk ctx Fl_logic d d d;
    d
  | Xor ->
    let d = bin Xor in
    set_thunk ctx Fl_logic d d d;
    d

let shift_kind (op : Isa.shift_op) : Code.flkind =
  match op with
  | Shl -> Fl_shl
  | Shr -> Fl_shr
  | Sar -> Fl_sar
  | Rol -> Fl_rol
  | Ror -> Fl_ror

let shift_static ctx op a n =
  let bini o k =
    let d = fresh_v ctx in
    emit ctx (Ir.Ibini (o, d, a, k));
    d
  in
  let rotate left =
    let t1 = bini (if left then Shl else Shr) n in
    let t2 = bini (if left then Shr else Shl) (32 - n) in
    let d = fresh_v ctx in
    emit ctx (Ir.Ibin (Or, d, t1, t2));
    d
  in
  match (op : Isa.shift_op) with
  | Shl -> bini Shl n
  | Shr -> bini Shr n
  | Sar -> bini Sar n
  | Rol -> rotate true
  | Ror -> rotate false

let shift_dynamic ctx op a cnt =
  let bin o b =
    let d = fresh_v ctx in
    emit ctx (Ir.Ibin (o, d, a, b));
    d
  in
  let rotate left =
    let t1 = bin (if left then Shl else Shr) cnt in
    let k32 = li ctx 32 in
    let inv = fresh_v ctx in
    emit ctx (Ir.Ibin (Sub, inv, k32, cnt));
    let t2 = bin (if left then Shr else Shl) inv in
    let d = fresh_v ctx in
    emit ctx (Ir.Ibin (Or, d, t1, t2));
    d
  in
  match (op : Isa.shift_op) with
  | Shl -> bin Shl cnt
  | Shr -> bin Shr cnt
  | Sar -> bin Sar cnt
  | Rol -> rotate true
  | Ror -> rotate false

let fbin_map : Isa.fp_bin -> Code.fbinop = function
  | Fadd -> Fadd
  | Fsub -> Fsub
  | Fmul -> Fmul
  | Fdiv -> Fdiv

let translate_insn ctx (insn : Isa.insn) ~pc ~len =
  ignore pc;
  ignore len;
  (match insn with
  | Nop -> ()
  | Mov (d, s) ->
    let v = eval ctx s in
    store_opnd ctx d v
  | Movx (w, signed, r, m) ->
    let v = load_mem ctx w ~signed m in
    set_reg ctx r v
  | Movw (w, m, r) ->
    let v = get_reg ctx r in
    let a, off = addr_of_mem ctx m in
    emit ctx (Ir.Istore (w, v, a, off))
  | Lea (r, m) ->
    let a, off = addr_of_mem ctx m in
    let res =
      if off = 0 then a
      else begin
        let t = fresh_v ctx in
        emit ctx (Ir.Ibini (Add, t, a, off));
        t
      end
    in
    set_reg ctx r res
  | Alu (op, d, s) ->
    let b = eval ctx s in
    rmw ctx d (fun a -> alu_result ctx op a b)
  | Cmp (d, s) ->
    let a = eval ctx d in
    let b = eval ctx s in
    set_thunk ctx Fl_sub a b a
  | Test (d, s) ->
    let a = eval ctx d in
    let b = eval ctx s in
    let t = fresh_v ctx in
    emit ctx (Ir.Ibin (And, t, a, b));
    set_thunk ctx Fl_logic t t t
  | Inc d ->
    rmw ctx d (fun a ->
        let old = materialize_flags ctx in
        let res = fresh_v ctx in
        emit ctx (Ir.Ibini (Add, res, a, 1));
        set_thunk ctx Fl_inc a res old;
        res)
  | Dec d ->
    rmw ctx d (fun a ->
        let old = materialize_flags ctx in
        let res = fresh_v ctx in
        emit ctx (Ir.Ibini (Sub, res, a, 1));
        set_thunk ctx Fl_dec a res old;
        res)
  | Neg d ->
    rmw ctx d (fun a ->
        let z = li ctx 0 in
        let res = fresh_v ctx in
        emit ctx (Ir.Ibin (Sub, res, z, a));
        set_thunk ctx Fl_neg a a a;
        res)
  | Not d ->
    rmw ctx d (fun a ->
        let res = fresh_v ctx in
        emit ctx (Ir.Ibini (Xor, res, a, 0xFFFFFFFF));
        res)
  | Shift (op, d, cnt) -> (
    match cnt with
    | Imm n0 ->
      let n = n0 land 31 in
      if n <> 0 then
        rmw ctx d (fun a ->
            let res = shift_static ctx op a n in
            let cv = li ctx n in
            set_thunk ctx (shift_kind op) a cv a;
            res)
    | (Reg _ | Mem _) as c ->
      rmw ctx d (fun a ->
          let old = materialize_flags ctx in
          let c0 = eval ctx c in
          let cv = fresh_v ctx in
          emit ctx (Ir.Ibini (And, cv, c0, 31));
          let res = shift_dynamic ctx op a cv in
          set_thunk ctx (shift_kind op) a cv old;
          res))
  | Mul s ->
    let a = get_reg ctx EAX in
    let b = eval ctx s in
    let lo = fresh_v ctx in
    emit ctx (Ir.Ibin (Mul, lo, a, b));
    let hi = fresh_v ctx in
    emit ctx (Ir.Ibin (Mulhu, hi, a, b));
    set_reg ctx EAX lo;
    set_reg ctx EDX hi;
    set_thunk ctx Fl_mulu a b a
  | Imul s ->
    let a = get_reg ctx EAX in
    let b = eval ctx s in
    let lo = fresh_v ctx in
    emit ctx (Ir.Ibin (Mul, lo, a, b));
    let hi = fresh_v ctx in
    emit ctx (Ir.Ibin (Mulhs, hi, a, b));
    set_reg ctx EAX lo;
    set_reg ctx EDX hi;
    set_thunk ctx Fl_muls a b a
  | Imul2 (r, s) ->
    let a = get_reg ctx r in
    let b = eval ctx s in
    let res = fresh_v ctx in
    emit ctx (Ir.Ibin (Mul, res, a, b));
    set_reg ctx r res;
    set_thunk ctx Fl_muls a b a
  | Div s | Idiv s ->
    let signed = match insn with Idiv _ -> true | _ -> false in
    let d = eval ctx s in
    let hi = get_reg ctx EDX in
    let lo = get_reg ctx EAX in
    let q = fresh_v ctx in
    let r = fresh_v ctx in
    emit ctx (Ir.Irt_div { signed; q; r; hi; lo; d });
    set_reg ctx EAX q;
    set_reg ctx EDX r
  | Push s ->
    let v = eval ctx s in
    translate_push_value ctx v
  | Pop r ->
    let sp = get_reg ctx ESP in
    let v = fresh_v ctx in
    emit ctx (Ir.Iload (W32, false, v, sp, 0));
    let nsp = fresh_v ctx in
    emit ctx (Ir.Ibini (Add, nsp, sp, 4));
    set_reg ctx ESP nsp;
    set_reg ctx r v
  | Cmov (c, r, s) ->
    let v = eval ctx s in
    let cv = cond_value ctx c in
    let old = get_reg ctx r in
    let res = fresh_v ctx in
    emit ctx (Ir.Iisel (res, cv, v, old));
    set_reg ctx r res
  | Setcc (c, r) ->
    let cv = cond_value ctx c in
    set_reg ctx r cv
  | Str (k, w, NoRep) -> begin
    let sz = Isa.width_bytes w in
    let advance r =
      let v = get_reg ctx r in
      let t = fresh_v ctx in
      emit ctx (Ir.Ibini (Add, t, v, sz));
      set_reg ctx r t
    in
    match k with
    | Movs ->
      let si = get_reg ctx ESI in
      let v = fresh_v ctx in
      emit ctx (Ir.Iload (w, false, v, si, 0));
      let di = get_reg ctx EDI in
      emit ctx (Ir.Istore (w, v, di, 0));
      advance ESI;
      advance EDI
    | Stos ->
      let v = get_reg ctx EAX in
      let di = get_reg ctx EDI in
      emit ctx (Ir.Istore (w, v, di, 0));
      advance EDI
    | Lods ->
      let si = get_reg ctx ESI in
      let v = fresh_v ctx in
      emit ctx (Ir.Iload (w, false, v, si, 0));
      set_reg ctx EAX v;
      advance ESI
    | Scas ->
      let di = get_reg ctx EDI in
      let mv = fresh_v ctx in
      emit ctx (Ir.Iload (w, false, mv, di, 0));
      let av0 = get_reg ctx EAX in
      let av =
        if w = Isa.W32 then av0
        else begin
          let t = fresh_v ctx in
          emit ctx (Ir.Ibini (And, t, av0, (1 lsl (8 * sz)) - 1));
          t
        end
      in
      set_thunk ctx Fl_sub av mv av;
      advance EDI
    | Cmps ->
      let si = get_reg ctx ESI in
      let a = fresh_v ctx in
      emit ctx (Ir.Iload (w, false, a, si, 0));
      let di = get_reg ctx EDI in
      let b = fresh_v ctx in
      emit ctx (Ir.Iload (w, false, b, di, 0));
      set_thunk ctx Fl_sub a b a;
      advance ESI;
      advance EDI
  end
  | Str (_, _, (Rep | Repe | Repne)) ->
    invalid_arg "Translate: REP string instructions are interpreter-only"
  | Fld (f, m) ->
    let a, off = addr_of_mem ctx m in
    let vf = fresh_f ctx in
    emit ctx (Ir.Ifload (vf, a, off));
    set_freg ctx f vf
  | Fst (m, f) ->
    let vf = get_freg ctx f in
    let a, off = addr_of_mem ctx m in
    emit ctx (Ir.Ifstore (vf, a, off))
  | Fmov (d, s) ->
    let vf = get_freg ctx s in
    set_freg ctx d vf
  | Fldi (f, x) ->
    let vf = fresh_f ctx in
    emit ctx (Ir.Ifli (vf, x));
    set_freg ctx f vf
  | Fbin (op, d, s) ->
    let a = get_freg ctx d in
    let b = get_freg ctx s in
    let r = fresh_f ctx in
    emit ctx (Ir.Ifbin (fbin_map op, r, a, b));
    set_freg ctx d r
  | Fun_ (op, f) ->
    let a = get_freg ctx f in
    let r = fresh_f ctx in
    (match op with
    | Fsqrt -> emit ctx (Ir.Ifun (Fsqrt, r, a))
    | Fabs -> emit ctx (Ir.Ifun (Fabs, r, a))
    | Fchs -> emit ctx (Ir.Ifun (Fneg, r, a))
    | Fsin -> emit ctx (Ir.Irt_f (Rt_sin, r, a))
    | Fcos -> emit ctx (Ir.Irt_f (Rt_cos, r, a)));
    set_freg ctx f r
  | Fcmp (a, b) ->
    let va = get_freg ctx a in
    let vb = get_freg ctx b in
    let d = fresh_v ctx in
    emit ctx (Ir.Ifcmp (d, va, vb));
    ctx.flags <- Some (Fl_known d)
  | Fild (f, r) ->
    let v = get_reg ctx r in
    let vf = fresh_f ctx in
    emit ctx (Ir.Icvtif (vf, v));
    set_freg ctx f vf
  | Fist (r, f) ->
    let vf = get_freg ctx f in
    let v = fresh_v ctx in
    emit ctx (Ir.Icvtfi (v, vf));
    set_reg ctx r v
  | Jmp _ | JmpInd _ | Jcc _ | Call _ | CallInd _ | Ret | Syscall | Halt ->
    invalid_arg "Translate: control transfers are handled by region builders");
  ctx.retired <- ctx.retired + 1

let eval_operand = eval

let translate_pop ctx =
  let sp = get_reg ctx ESP in
  let v = fresh_v ctx in
  emit ctx (Ir.Iload (W32, false, v, sp, 0));
  let nsp = fresh_v ctx in
  emit ctx (Ir.Ibini (Add, nsp, sp, 4));
  set_reg ctx ESP nsp;
  v

let fresh_vreg = fresh_v
let emit_ir = emit

let add_retired ctx n = ctx.retired <- ctx.retired + n

(* --- exits, asserts, stubs --------------------------------------------- *)

let emit_exit ctx ?(prefer_bb = false) ?edge target =
  Array.iter
    (fun r ->
      let i = Isa.reg_index r in
      if ctx.dirty.(i) then
        match ctx.reg.(i) with Some v -> emit ctx (Ir.Iput (r, v)) | None -> assert false)
    Isa.all_regs;
  Array.iter
    (fun f ->
      let i = Isa.freg_index f in
      if ctx.fdirty.(i) then
        match ctx.freg.(i) with
        | Some v -> emit ctx (Ir.Iputf (f, v))
        | None -> assert false)
    Isa.all_fregs;
  (match ctx.flags with
  | None -> ()
  | Some _ ->
    let v = materialize_flags ctx in
    emit ctx (Ir.Iputfl v));
  emit ctx (Ir.Iexit { target; retired = ctx.retired; prefer_bb; edge })

let emit_assert ctx cl ~expect =
  match (cl, expect) with
  | Cconst b, _ when b = expect -> `Ok
  | Cconst _, _ -> `Unsupported
  | Cfused (cmp, a, b), true ->
    emit ctx (Ir.Iassert (cmp, a, b));
    `Ok
  | Cfused (cmp, a, b), false ->
    let neg : Code.cmp =
      match cmp with
      | Beq -> Bne
      | Bne -> Beq
      | Blt -> Bge
      | Bge -> Blt
      | Bltu -> Bgeu
      | Bgeu -> Bltu
    in
    emit ctx (Ir.Iassert (neg, a, b));
    `Ok

let emit_branch_to_stub ctx cl gen =
  match cl with
  | Cconst false -> ()
  | Cconst true ->
    (* Unconditionally taken: the "stub" is simply the continuation. *)
    gen ctx
  | Cfused (cmp, a, b) ->
    let br_index = ctx.len in
    emit ctx (Ir.Ibr (cmp, a, b, -1));
    ctx.stubs <- { br_index; snap = snapshot ctx; gen } :: ctx.stubs

let finalize ctx ~mode ~prof =
  (* Process deferred stubs in FIFO order; stub generators may defer further
     stubs (unroll residue), which keeps control strictly forward. *)
  let rec drain () =
    match List.rev ctx.stubs with
    | [] -> ()
    | { br_index; snap; gen } :: _rest ->
      ctx.stubs <- List.filter (fun s -> s.br_index <> br_index) ctx.stubs;
      let target = ctx.len in
      (match ctx.arr.(br_index) with
      | Ir.Ibr (cmp, a, b, -1) -> ctx.arr.(br_index) <- Ir.Ibr (cmp, a, b, target)
      | _ -> assert false);
      restore ctx snap;
      gen ctx;
      drain ()
  in
  drain ();
  let body = Array.sub ctx.arr 0 ctx.len in
  let region =
    { Regionir.entry_pc = ctx.entry_pc; mode; body; prof; guest_len = ctx.retired }
  in
  Regionir.check_forward_only region;
  region
