open Isa

type kind = Next | Branch | Syscall | Halt

(* The decode cache: open addressing on the guest PC with linear probing
   over [mask + 1] slots.  [keys] holds -1 in free slots; a hit costs one
   masked index and a comparison, with no hashing and no option.  PCs are
   canonical 32-bit values, so a negative one (never produced by guest
   code) is decoded into the spare slot past the table instead of being
   cached.  Entries are never removed: self-modifying code is
   unsupported. *)
type icache = {
  mutable mask : int;
  mutable keys : int array;
  mutable insns : Isa.insn array;
  mutable lens : int array;
  mutable count : int;
}

let tables slots =
  (Array.make (slots + 1) (-1), Array.make (slots + 1) Nop, Array.make (slots + 1) 0)

let icache_create () =
  let keys, insns, lens = tables 1024 in
  { mask = 1023; keys; insns; lens; count = 0 }

let rec probe keys mask pc i =
  let k = Array.unsafe_get keys i in
  if k = pc || k = -1 then i else probe keys mask pc ((i + 1) land mask)

(* Keep the table at most half full so a probe ends within a few slots. *)
let grow ic =
  let old_keys = ic.keys and old_insns = ic.insns and old_lens = ic.lens in
  let slots = 2 * (ic.mask + 1) in
  let keys, insns, lens = tables slots in
  ic.mask <- slots - 1;
  ic.keys <- keys;
  ic.insns <- insns;
  ic.lens <- lens;
  for i = 0 to Array.length old_keys - 2 do
    let pc = old_keys.(i) in
    if pc >= 0 then begin
      let j = probe keys ic.mask pc (pc land ic.mask) in
      keys.(j) <- pc;
      insns.(j) <- old_insns.(i);
      lens.(j) <- old_lens.(i)
    end
  done

let fill ic slot pc (insn, len) =
  ic.keys.(slot) <- pc;
  ic.insns.(slot) <- insn;
  ic.lens.(slot) <- len;
  slot

(* The slot holding the decoded instruction at [pc], decoding it on a
   miss.  A decode that faults or fails caches nothing. *)
let lookup ic mem pc =
  let i = probe ic.keys ic.mask pc (pc land ic.mask) in
  if Array.unsafe_get ic.keys i = pc && pc >= 0 then i
  else begin
    let decoded = Codec.decode ~fetch:(fun a -> Memory.read8 mem a) ~pc in
    if pc < 0 then fill ic (ic.mask + 1) (-1) decoded
    else begin
      if 2 * (ic.count + 1) > ic.mask + 1 then grow ic;
      ic.count <- ic.count + 1;
      fill ic (probe ic.keys ic.mask pc (pc land ic.mask)) pc decoded
    end
  end

let fetch ic mem pc =
  let i = lookup ic mem pc in
  (ic.insns.(i), ic.lens.(i))

let is_interp_only = function Str (_, _, (Rep | Repe | Repne)) -> true | _ -> false

let mem_addr cpu { base; index; disp } =
  let b = match base with None -> 0 | Some r -> Cpu.get cpu r in
  let i = match index with None -> 0 | Some (r, s) -> Cpu.get cpu r * scale_factor s in
  Semantics.mask32 (b + i + disp)

let read_operand cpu mem = function
  | Reg r -> Cpu.get cpu r
  | Imm n -> Semantics.mask32 n
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

(* The write-back half of a read-modify-write destination.  Reading the
   destination first (with [read_operand]) both fetched the value and
   probed the pages this write touches. *)
let write_back cpu mem op v =
  match op with
  | Reg r -> Cpu.set cpu r v
  | Mem m -> Memory.write mem W32 (mem_addr cpu m) v
  | Imm _ -> invalid_arg "rmw: immediate destination"

(* Set the flags of a packed outcome and write its result back. *)
let[@inline] retire_rmw (cpu : Cpu.t) mem d p =
  cpu.flags <- Semantics.flags_of p;
  write_back cpu mem d (Semantics.result_of p)

let push cpu mem v =
  let sp = Semantics.mask32 (Cpu.get cpu ESP - 4) in
  probe_write mem W32 sp;
  Memory.write mem W32 sp v;
  Cpu.set cpu ESP sp

let pop cpu mem =
  let sp = Cpu.get cpu ESP in
  let v = Memory.read mem W32 sp in
  Cpu.set cpu ESP (sp + 4);
  v

(* One iteration of a string instruction; [w] bytes, pointers ascend. *)
let string_once (cpu : Cpu.t) mem kind w =
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
    Memory.write mem w edi (Semantics.truncate_width w (Cpu.get cpu EAX));
    Cpu.set cpu EDI (edi + sz)
  | Lods ->
    let v = Memory.read mem w esi in
    Cpu.set cpu EAX v;
    Cpu.set cpu ESI (esi + sz)
  | Scas ->
    let v = Memory.read mem w edi in
    let a = Semantics.truncate_width w (Cpu.get cpu EAX) in
    cpu.flags <- Semantics.flags_of (Semantics.alu Sub ~cf_in:false a v);
    Cpu.set cpu EDI (edi + sz)
  | Cmps ->
    let a = Memory.read mem w esi in
    let b = Memory.read mem w edi in
    cpu.flags <- Semantics.flags_of (Semantics.alu Sub ~cf_in:false a b);
    Cpu.set cpu ESI (esi + sz);
    Cpu.set cpu EDI (edi + sz)

let exec_string (cpu : Cpu.t) mem kind w rep =
  match rep with
  | NoRep -> string_once cpu mem kind w
  | Rep | Repe | Repne ->
    let first = ref true in
    while
      Cpu.get cpu ECX <> 0
      && (!first
         ||
         match rep with
         | Repe -> Flags.zf cpu.flags
         | Repne -> not (Flags.zf cpu.flags)
         | Rep | NoRep -> true)
    do
      first := false;
      string_once cpu mem kind w;
      Cpu.set cpu ECX (Cpu.get cpu ECX - 1)
    done

let[@inline] next (cpu : Cpu.t) len =
  cpu.eip <- Semantics.mask32 (cpu.eip + len);
  Next

let[@inline] jump (cpu : Cpu.t) target =
  cpu.eip <- target;
  Branch

let[@inline] f64_of_words lo hi =
  Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let exec (cpu : Cpu.t) mem insn len =
  match insn with
  | Nop -> next cpu len
  | Mov (d, s) ->
    let v = read_operand cpu mem s in
    write_operand cpu mem d v;
    next cpu len
  | Movx (w, signed, r, m) ->
    let v = Memory.read mem w (mem_addr cpu m) in
    Cpu.set cpu r (if signed then Semantics.sign_extend w v else v);
    next cpu len
  | Movw (w, m, r) ->
    let addr = mem_addr cpu m in
    probe_write mem w addr;
    Memory.write mem w addr (Semantics.truncate_width w (Cpu.get cpu r));
    next cpu len
  | Lea (r, m) ->
    Cpu.set cpu r (mem_addr cpu m);
    next cpu len
  | Alu (op, d, s) ->
    let b = read_operand cpu mem s in
    let a = read_operand cpu mem d in
    retire_rmw cpu mem d (Semantics.alu op ~cf_in:(Flags.cf cpu.flags) a b);
    next cpu len
  | Cmp (d, s) ->
    let a = read_operand cpu mem d in
    let b = read_operand cpu mem s in
    cpu.flags <- Semantics.flags_of (Semantics.alu Sub ~cf_in:false a b);
    next cpu len
  | Test (d, s) ->
    let a = read_operand cpu mem d in
    let b = read_operand cpu mem s in
    cpu.flags <- Semantics.flags_of (Semantics.alu And ~cf_in:false a b);
    next cpu len
  | Inc d ->
    let a = read_operand cpu mem d in
    retire_rmw cpu mem d (Semantics.inc a ~flags:cpu.flags);
    next cpu len
  | Dec d ->
    let a = read_operand cpu mem d in
    retire_rmw cpu mem d (Semantics.dec a ~flags:cpu.flags);
    next cpu len
  | Neg d ->
    let a = read_operand cpu mem d in
    retire_rmw cpu mem d (Semantics.neg a);
    next cpu len
  | Not d ->
    let a = read_operand cpu mem d in
    write_back cpu mem d (Semantics.not32 a);
    next cpu len
  | Shift (op, d, c) ->
    let count = read_operand cpu mem c in
    let a = read_operand cpu mem d in
    retire_rmw cpu mem d (Semantics.shift op a ~count ~flags:cpu.flags);
    next cpu len
  | Mul s ->
    let a = Cpu.get cpu EAX and b = read_operand cpu mem s in
    let p = Semantics.mul_u a b in
    Cpu.set cpu EAX (Semantics.result_of p);
    Cpu.set cpu EDX (Semantics.mulhi_u a b);
    cpu.flags <- Semantics.flags_of p;
    next cpu len
  | Imul s ->
    let a = Cpu.get cpu EAX and b = read_operand cpu mem s in
    let p = Semantics.mul_s a b in
    Cpu.set cpu EAX (Semantics.result_of p);
    Cpu.set cpu EDX (Semantics.mulhi_s a b);
    cpu.flags <- Semantics.flags_of p;
    next cpu len
  | Imul2 (r, s) ->
    let p = Semantics.mul_s (Cpu.get cpu r) (read_operand cpu mem s) in
    Cpu.set cpu r (Semantics.result_of p);
    cpu.flags <- Semantics.flags_of p;
    next cpu len
  | Div s ->
    let q, r =
      Semantics.div_u ~hi:(Cpu.get cpu EDX) ~lo:(Cpu.get cpu EAX) (read_operand cpu mem s)
    in
    Cpu.set cpu EAX q;
    Cpu.set cpu EDX r;
    next cpu len
  | Idiv s ->
    let q, r =
      Semantics.div_s ~hi:(Cpu.get cpu EDX) ~lo:(Cpu.get cpu EAX) (read_operand cpu mem s)
    in
    Cpu.set cpu EAX q;
    Cpu.set cpu EDX r;
    next cpu len
  | Push s ->
    let v = read_operand cpu mem s in
    push cpu mem v;
    next cpu len
  | Pop r ->
    let v = pop cpu mem in
    Cpu.set cpu r v;
    next cpu len
  | Jmp t -> jump cpu t
  | JmpInd s -> jump cpu (read_operand cpu mem s)
  | Jcc (c, t) ->
    if Flags.eval_cond c cpu.flags then jump cpu t
    else begin
      cpu.eip <- Semantics.mask32 (cpu.eip + len);
      Branch
    end
  | Call t ->
    push cpu mem (Semantics.mask32 (cpu.eip + Codec.length insn));
    jump cpu t
  | CallInd s ->
    let target = read_operand cpu mem s in
    push cpu mem (Semantics.mask32 (cpu.eip + Codec.length insn));
    jump cpu target
  | Ret -> jump cpu (pop cpu mem)
  | Cmov (c, r, s) ->
    let v = read_operand cpu mem s in
    if Flags.eval_cond c cpu.flags then Cpu.set cpu r v;
    next cpu len
  | Setcc (c, r) ->
    Cpu.set cpu r (if Flags.eval_cond c cpu.flags then 1 else 0);
    next cpu len
  | Str (kind, w, rep) ->
    exec_string cpu mem kind w rep;
    next cpu len
  | Fld (f, m) ->
    let addr = mem_addr cpu m in
    let lo = Memory.read mem W32 addr in
    let hi = Memory.read mem W32 (addr + 4) in
    cpu.fregs.(freg_index f) <- f64_of_words lo hi;
    next cpu len
  | Fst (m, f) ->
    let addr = mem_addr cpu m in
    ignore (Memory.read8 mem addr);
    ignore (Memory.read8 mem (addr + 7));
    let bits = Int64.bits_of_float cpu.fregs.(freg_index f) in
    Memory.write mem W32 addr (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
    Memory.write mem W32 (addr + 4) (Int64.to_int (Int64.shift_right_logical bits 32));
    next cpu len
  | Fmov (d, s) ->
    cpu.fregs.(freg_index d) <- cpu.fregs.(freg_index s);
    next cpu len
  | Fldi (f, v) ->
    cpu.fregs.(freg_index f) <- v;
    next cpu len
  | Fbin (op, d, s) ->
    let fr = cpu.fregs in
    fr.(freg_index d) <- Semantics.fp_bin op fr.(freg_index d) fr.(freg_index s);
    next cpu len
  | Fun_ (op, f) ->
    let fr = cpu.fregs in
    fr.(freg_index f) <- Semantics.fp_un op fr.(freg_index f);
    next cpu len
  | Fcmp (a, b) ->
    cpu.flags <- Semantics.fcmp_flags cpu.fregs.(freg_index a) cpu.fregs.(freg_index b);
    next cpu len
  | Fild (f, r) ->
    cpu.fregs.(freg_index f) <- Semantics.i2f (Cpu.get cpu r);
    next cpu len
  | Fist (r, f) ->
    Cpu.set cpu r (Semantics.f2i cpu.fregs.(freg_index f));
    next cpu len
  | Syscall -> Syscall
  | Halt ->
    cpu.halted <- true;
    Halt

let step ic (cpu : Cpu.t) mem =
  let i = lookup ic mem cpu.eip in
  exec cpu mem (Array.unsafe_get ic.insns i) (Array.unsafe_get ic.lens i)
