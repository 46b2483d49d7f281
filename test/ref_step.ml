(* The reference [Step] that the allocation-free one replaced, kept
   verbatim as the oracle for the differential in test_guest: it returns a
   [result] record with a payload-carrying [control], decodes through a
   [Hashtbl], builds an [rmw] closure per read-modify-write and takes the
   flag-producing semantics as [(result, flags)] tuples ([Sem] below holds
   those tuple forms as they were).  The oracle and the TOL both execute
   through [Step], so a bug in it would hide from every oracle-vs-TOL
   differential; this model is the independent check. *)

open Darco_guest
open Isa

module Sem = struct
  include Semantics

  let bit31 v = v land 0x80000000 <> 0

  let zf_sf res = Flags.make ~cf:false ~zf:(res = 0) ~sf:(bit31 res) ~of_:false

  let add_like a b cf_in =
    let full = a + b + cf_in in
    let res = mask32 full in
    let cf = full > 0xFFFFFFFF in
    let of_ = bit31 a = bit31 b && bit31 res <> bit31 a in
    (res, Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_)

  let sub_like a b cf_in =
    let full = a - b - cf_in in
    let res = mask32 full in
    let cf = full < 0 in
    let of_ = bit31 a <> bit31 b && bit31 res <> bit31 a in
    (res, Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_)

  let alu (op : Isa.alu_op) ~cf_in a b =
    let carry = if cf_in then 1 else 0 in
    match op with
    | Add -> add_like a b 0
    | Adc -> add_like a b carry
    | Sub -> sub_like a b 0
    | Sbb -> sub_like a b carry
    | And -> let r = a land b in (r, zf_sf r)
    | Or -> let r = a lor b in (r, zf_sf r)
    | Xor -> let r = a lxor b in (r, zf_sf r)

  (* INC/DEC preserve CF: recompute the other flags and splice CF back in. *)
  let keep_cf flags new_flags = new_flags land lnot Flags.cf_bit lor (flags land Flags.cf_bit)

  let inc v ~flags =
    let res, f = add_like v 1 0 in
    (res, keep_cf flags f)

  let dec v ~flags =
    let res, f = sub_like v 1 0 in
    (res, keep_cf flags f)

  let neg v = sub_like 0 v 0
  let not32 v = mask32 (lnot v)

  let rotl32 v c = mask32 ((v lsl c) lor (v lsr (32 - c)))
  let rotr32 v c = mask32 ((v lsr c) lor (v lsl (32 - c)))

  let shift (op : Isa.shift_op) v ~count ~flags =
    let c = count land 31 in
    if c = 0 then (v, flags)
    else begin
      let res, cf, of_ =
        match op with
        | Shl ->
          let res = mask32 (v lsl c) in
          let cf = v land (1 lsl (32 - c)) <> 0 in
          (res, cf, bit31 res <> cf)
        | Shr ->
          let res = v lsr c in
          (res, v land (1 lsl (c - 1)) <> 0, bit31 v)
        | Sar ->
          let res = mask32 (signed v asr c) in
          (res, v land (1 lsl (c - 1)) <> 0, false)
        | Rol ->
          let res = rotl32 v c in
          let cf = res land 1 <> 0 in
          (res, cf, bit31 res <> cf)
        | Ror ->
          let res = rotr32 v c in
          (res, bit31 res, false)
      in
      (res, Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_)
    end

  let mul_u a b =
    let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
    let lo = mask32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL)) in
    let hi = mask32 (Int64.to_int (Int64.shift_right_logical p 32)) in
    let wide = hi <> 0 in
    (lo, hi, Flags.make ~cf:wide ~zf:(lo = 0) ~sf:(bit31 lo) ~of_:wide)

  let mul_s a b =
    let p = Int64.mul (Int64.of_int (signed a)) (Int64.of_int (signed b)) in
    let lo = mask32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL)) in
    let hi = mask32 (Int64.to_int (Int64.shift_right_logical p 32)) in
    let wide = p <> Int64.of_int (signed lo) in
    (lo, hi, Flags.make ~cf:wide ~zf:(lo = 0) ~sf:(bit31 lo) ~of_:wide)

  let imul2 a b =
    let lo, _, f = mul_s a b in
    (lo, f)
end

type control =
  | Next
  | Cond_branch of { taken : bool; target : int }
  | Uncond of int
  | Indirect of int
  | Trap_syscall
  | Trap_halt

type result = { insn : Isa.insn; len : int; control : control }
type icache = (int, Isa.insn * int) Hashtbl.t

let icache_create () : icache = Hashtbl.create 1024

let fetch (ic : icache) mem pc =
  match Hashtbl.find_opt ic pc with
  | Some r -> r
  | None ->
    let r = Codec.decode ~fetch:(fun a -> Memory.read8 mem a) ~pc in
    Hashtbl.replace ic pc r;
    r

let is_interp_only = function Str (_, _, (Rep | Repe | Repne)) -> true | _ -> false

let mem_addr cpu { base; index; disp } =
  let b = match base with None -> 0 | Some r -> Cpu.get cpu r in
  let i =
    match index with None -> 0 | Some (r, s) -> Cpu.get cpu r * scale_factor s
  in
  Sem.mask32 (b + i + disp)

let read_operand cpu mem = function
  | Reg r -> Cpu.get cpu r
  | Imm n -> Sem.mask32 n
  | Mem m -> Memory.read mem W32 (mem_addr cpu m)

(* Touch every page a write of [w] at [addr] will reach, so the write cannot
   fault halfway through. *)
let probe_write mem w addr =
  ignore (Memory.read8 mem addr);
  let last = addr + width_bytes w - 1 in
  if Memory.page_index last <> Memory.page_index addr then ignore (Memory.read8 mem last)

let write_operand cpu mem op v =
  match op with
  | Reg r -> Cpu.set cpu r v
  | Mem m -> Memory.write mem W32 (mem_addr cpu m) v
  | Imm _ -> invalid_arg "write_operand: immediate destination"

(* A read-modify-write destination: reading it first both fetches the value
   and probes the pages the write-back will touch. *)
let rmw cpu mem op f =
  let v = read_operand cpu mem op in
  match f v with
  | None -> ()
  | Some res ->
    (match op with
    | Reg r -> Cpu.set cpu r res
    | Mem m -> Memory.write mem W32 (mem_addr cpu m) res
    | Imm _ -> invalid_arg "rmw: immediate destination")

let push cpu mem v =
  let sp = Sem.mask32 (Cpu.get cpu ESP - 4) in
  probe_write mem W32 sp;
  Memory.write mem W32 sp v;
  Cpu.set cpu ESP sp

let pop cpu mem =
  let sp = Cpu.get cpu ESP in
  let v = Memory.read mem W32 sp in
  Cpu.set cpu ESP (sp + 4);
  v

(* One iteration of a string instruction; [w] bytes, pointers ascend. *)
let string_once cpu mem kind w =
  let sz = width_bytes w in
  let esi = Cpu.get cpu ESI and edi = Cpu.get cpu EDI in
  match kind with
  | Movs ->
    let v = Memory.read mem w esi in
    probe_write mem w edi;
    Memory.write mem w edi v;
    Cpu.set cpu ESI (esi + sz);
    Cpu.set cpu EDI (edi + sz)
  | Stos ->
    probe_write mem w edi;
    Memory.write mem w edi (Sem.truncate_width w (Cpu.get cpu EAX));
    Cpu.set cpu EDI (edi + sz)
  | Lods ->
    let v = Memory.read mem w esi in
    Cpu.set cpu EAX v;
    Cpu.set cpu ESI (esi + sz)
  | Scas ->
    let v = Memory.read mem w edi in
    let a = Sem.truncate_width w (Cpu.get cpu EAX) in
    let _, f = Sem.alu Sub ~cf_in:false a v in
    cpu.flags <- f;
    Cpu.set cpu EDI (edi + sz)
  | Cmps ->
    let a = Memory.read mem w esi in
    let b = Memory.read mem w edi in
    let _, f = Sem.alu Sub ~cf_in:false a b in
    cpu.flags <- f;
    Cpu.set cpu ESI (esi + sz);
    Cpu.set cpu EDI (edi + sz)

let exec_string cpu mem kind w rep =
  match rep with
  | NoRep -> string_once cpu mem kind w
  | Rep | Repe | Repne ->
    let continue () =
      match rep with
      | Rep -> true
      | Repe -> Flags.zf cpu.flags
      | Repne -> not (Flags.zf cpu.flags)
      | NoRep -> assert false
    in
    let rec loop first =
      if Cpu.get cpu ECX <> 0 && (first || continue ()) then begin
        string_once cpu mem kind w;
        Cpu.set cpu ECX (Cpu.get cpu ECX - 1);
        loop false
      end
    in
    loop true

let exec cpu mem insn =
  let rd op = read_operand cpu mem op in
  let cf_in = Flags.cf cpu.flags in
  match insn with
  | Nop -> Next
  | Mov (d, s) ->
    let v = rd s in
    write_operand cpu mem d v;
    Next
  | Movx (w, signed, r, m) ->
    let v = Memory.read mem w (mem_addr cpu m) in
    Cpu.set cpu r (if signed then Sem.sign_extend w v else v);
    Next
  | Movw (w, m, r) ->
    let addr = mem_addr cpu m in
    probe_write mem w addr;
    Memory.write mem w addr (Sem.truncate_width w (Cpu.get cpu r));
    Next
  | Lea (r, m) ->
    Cpu.set cpu r (mem_addr cpu m);
    Next
  | Alu (op, d, s) ->
    let b = rd s in
    rmw cpu mem d (fun a ->
        let res, f = Sem.alu op ~cf_in a b in
        cpu.flags <- f;
        Some res);
    Next
  | Cmp (d, s) ->
    let a = rd d and b = rd s in
    let _, f = Sem.alu Sub ~cf_in:false a b in
    cpu.flags <- f;
    Next
  | Test (d, s) ->
    let a = rd d and b = rd s in
    let _, f = Sem.alu And ~cf_in:false a b in
    cpu.flags <- f;
    Next
  | Inc d ->
    rmw cpu mem d (fun a ->
        let res, f = Sem.inc a ~flags:cpu.flags in
        cpu.flags <- f;
        Some res);
    Next
  | Dec d ->
    rmw cpu mem d (fun a ->
        let res, f = Sem.dec a ~flags:cpu.flags in
        cpu.flags <- f;
        Some res);
    Next
  | Neg d ->
    rmw cpu mem d (fun a ->
        let res, f = Sem.neg a in
        cpu.flags <- f;
        Some res);
    Next
  | Not d ->
    rmw cpu mem d (fun a -> Some (Sem.not32 a));
    Next
  | Shift (op, d, c) ->
    let count = rd c in
    rmw cpu mem d (fun a ->
        let res, f = Sem.shift op a ~count ~flags:cpu.flags in
        cpu.flags <- f;
        Some res);
    Next
  | Mul s ->
    let lo, hi, f = Sem.mul_u (Cpu.get cpu EAX) (rd s) in
    Cpu.set cpu EAX lo;
    Cpu.set cpu EDX hi;
    cpu.flags <- f;
    Next
  | Imul s ->
    let lo, hi, f = Sem.mul_s (Cpu.get cpu EAX) (rd s) in
    Cpu.set cpu EAX lo;
    Cpu.set cpu EDX hi;
    cpu.flags <- f;
    Next
  | Imul2 (r, s) ->
    let res, f = Sem.imul2 (Cpu.get cpu r) (rd s) in
    Cpu.set cpu r res;
    cpu.flags <- f;
    Next
  | Div s ->
    let q, r = Sem.div_u ~hi:(Cpu.get cpu EDX) ~lo:(Cpu.get cpu EAX) (rd s) in
    Cpu.set cpu EAX q;
    Cpu.set cpu EDX r;
    Next
  | Idiv s ->
    let q, r = Sem.div_s ~hi:(Cpu.get cpu EDX) ~lo:(Cpu.get cpu EAX) (rd s) in
    Cpu.set cpu EAX q;
    Cpu.set cpu EDX r;
    Next
  | Push s ->
    let v = rd s in
    push cpu mem v;
    Next
  | Pop r ->
    let v = pop cpu mem in
    Cpu.set cpu r v;
    Next
  | Jmp t -> Uncond t
  | JmpInd s -> Indirect (rd s)
  | Jcc (c, t) -> Cond_branch { taken = Flags.eval_cond c cpu.flags; target = t }
  | Call t ->
    push cpu mem (Sem.mask32 (cpu.eip + Codec.length insn));
    Uncond t
  | CallInd s ->
    let target = rd s in
    push cpu mem (Sem.mask32 (cpu.eip + Codec.length insn));
    Indirect target
  | Ret -> Indirect (pop cpu mem)
  | Cmov (c, r, s) ->
    let v = rd s in
    if Flags.eval_cond c cpu.flags then Cpu.set cpu r v;
    Next
  | Setcc (c, r) ->
    Cpu.set cpu r (if Flags.eval_cond c cpu.flags then 1 else 0);
    Next
  | Str (kind, w, rep) ->
    exec_string cpu mem kind w rep;
    Next
  | Fld (f, m) ->
    Cpu.setf cpu f (Memory.read_f64 mem (mem_addr cpu m));
    Next
  | Fst (m, f) ->
    let addr = mem_addr cpu m in
    ignore (Memory.read8 mem addr);
    ignore (Memory.read8 mem (addr + 7));
    Memory.write_f64 mem addr (Cpu.getf cpu f);
    Next
  | Fmov (d, s) ->
    Cpu.setf cpu d (Cpu.getf cpu s);
    Next
  | Fldi (f, v) ->
    Cpu.setf cpu f v;
    Next
  | Fbin (op, d, s) ->
    Cpu.setf cpu d (Sem.fp_bin op (Cpu.getf cpu d) (Cpu.getf cpu s));
    Next
  | Fun_ (op, f) ->
    Cpu.setf cpu f (Sem.fp_un op (Cpu.getf cpu f));
    Next
  | Fcmp (a, b) ->
    cpu.flags <- Sem.fcmp_flags (Cpu.getf cpu a) (Cpu.getf cpu b);
    Next
  | Fild (f, r) ->
    Cpu.setf cpu f (Sem.i2f (Cpu.get cpu r));
    Next
  | Fist (r, f) ->
    Cpu.set cpu r (Sem.f2i (Cpu.getf cpu f));
    Next
  | Syscall -> Trap_syscall
  | Halt -> Trap_halt

let step ic cpu mem =
  let insn, len = fetch ic mem cpu.Cpu.eip in
  let control = exec cpu mem insn in
  (match control with
  | Next -> cpu.eip <- Sem.mask32 (cpu.eip + len)
  | Cond_branch { taken; target } ->
    cpu.eip <- (if taken then target else Sem.mask32 (cpu.eip + len))
  | Uncond t | Indirect t -> cpu.eip <- t
  | Trap_syscall -> ()
  | Trap_halt -> cpu.halted <- true);
  { insn; len; control }
