type t = {
  regs : int array;
  fregs : float array;
  mutable flags : int;
  mutable eip : int;
  mutable halted : bool;
}

let create () =
  { regs = Array.make 8 0; fregs = Array.make 8 0.0; flags = 0; eip = 0; halted = false }

let[@inline] get t r = t.regs.(Isa.reg_index r)
let[@inline] set t r v = t.regs.(Isa.reg_index r) <- Semantics.mask32 v
let getf t f = t.fregs.(Isa.freg_index f)
let setf t f v = t.fregs.(Isa.freg_index f) <- v

let copy t =
  {
    regs = Array.copy t.regs;
    fregs = Array.copy t.fregs;
    flags = t.flags;
    eip = t.eip;
    halted = t.halted;
  }

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal a b =
  a.regs = b.regs
  && Array.for_all2 float_bits_equal a.fregs b.fregs
  && a.flags = b.flags
  && a.eip = b.eip
  && a.halted = b.halted

let diff a b =
  let acc = ref [] in
  let note fmt = Printf.ksprintf (fun s -> acc := s :: !acc) fmt in
  Array.iter
    (fun r ->
      let va = get a r and vb = get b r in
      if va <> vb then
        note "%s: 0x%08x vs 0x%08x" (Format.asprintf "%a" Isa.pp_reg r) va vb)
    Isa.all_regs;
  Array.iter
    (fun f ->
      let va = getf a f and vb = getf b f in
      if not (float_bits_equal va vb) then
        note "f%d: %h vs %h" (Isa.freg_index f) va vb)
    Isa.all_fregs;
  if a.flags <> b.flags then
    note "flags: %s vs %s" (Flags.to_string a.flags) (Flags.to_string b.flags);
  if a.eip <> b.eip then note "eip: 0x%x vs 0x%x" a.eip b.eip;
  if a.halted <> b.halted then note "halted: %b vs %b" a.halted b.halted;
  List.rev !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun r -> Format.fprintf ppf "%a = 0x%08x@ " Isa.pp_reg r (get t r))
    Isa.all_regs;
  Format.fprintf ppf "flags = %s  eip = 0x%x  halted = %b@]" (Flags.to_string t.flags)
    t.eip t.halted
