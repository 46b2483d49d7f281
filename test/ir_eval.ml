open Darco_guest
open Darco_host
open Darco

type outcome = Exited of Ir.exit_spec * int | Assert_failed | Alias_failed

exception Alias_hit

let cmp_holds (c : Code.cmp) a b =
  match c with
  | Beq -> a = b
  | Bne -> a <> b
  | Blt -> Semantics.signed a < Semantics.signed b
  | Bge -> Semantics.signed a >= Semantics.signed b
  | Bltu -> a < b
  | Bgeu -> a >= b

let run (r : Regionir.t) (cpu : Cpu.t) mem =
  let max_reg acc insn = List.fold_left max acc insn in
  let nv =
    1
    + Array.fold_left (fun acc i -> max_reg acc (Ir.defs i @ Ir.uses i)) 0 r.body
  in
  let nf =
    1
    + Array.fold_left (fun acc i -> max_reg acc (Ir.fdefs i @ Ir.fuses i)) 0 r.body
  in
  let v = Array.make nv 0 in
  let f = Array.make nf 0.0 in
  (* Byte-level gated store buffer, like the host machine's: a failed
     assert leaves memory untouched. *)
  let sbuf : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let aliases : (int * int) list ref = ref [] in
  let store_byte addr value = Hashtbl.replace sbuf addr (value land 0xFF) in
  let load_byte addr =
    match Hashtbl.find_opt sbuf addr with Some b -> b | None -> Memory.read8 mem addr
  in
  let overlaps a la b lb = a < b + lb && b < a + la in
  let check_alias addr len =
    if List.exists (fun (a, l) -> overlaps a l addr len) !aliases then raise Alias_hit
  in
  let store w addr value =
    check_alias addr (Isa.width_bytes w);
    for k = 0 to Isa.width_bytes w - 1 do
      store_byte (addr + k) (value lsr (8 * k))
    done
  in
  let load w ~signed addr =
    let value = ref 0 in
    for k = Isa.width_bytes w - 1 downto 0 do
      value := (!value lsl 8) lor load_byte (addr + k)
    done;
    if signed then Semantics.sign_extend w !value else !value
  in
  let fstore addr x =
    check_alias addr 8;
    let bits = Int64.bits_of_float x in
    for k = 0 to 7 do
      store_byte (addr + k) (Int64.to_int (Int64.shift_right_logical bits (8 * k)))
    done
  in
  let fload addr =
    let bits = ref 0L in
    for k = 7 downto 0 do
      bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (load_byte (addr + k)))
    done;
    Int64.float_of_bits !bits
  in
  let rec exec i =
    match r.body.(i) with
    | Ir.Iget (d, gr) ->
      v.(d) <- Cpu.get cpu gr;
      exec (i + 1)
    | Ir.Iput (gr, s) ->
      Cpu.set cpu gr v.(s);
      exec (i + 1)
    | Ir.Igetf (d, gf) ->
      f.(d) <- Cpu.getf cpu gf;
      exec (i + 1)
    | Ir.Iputf (gf, s) ->
      Cpu.setf cpu gf f.(s);
      exec (i + 1)
    | Ir.Igetfl d ->
      v.(d) <- cpu.flags;
      exec (i + 1)
    | Ir.Iputfl s ->
      cpu.flags <- v.(s) land Flags.mask;
      exec (i + 1)
    | Ir.Ili (d, k) ->
      v.(d) <- Semantics.mask32 k;
      exec (i + 1)
    | Ir.Imov (d, s) ->
      v.(d) <- v.(s);
      exec (i + 1)
    | Ir.Ibin (op, d, a, b) ->
      v.(d) <- Emulator.eval_binop op v.(a) v.(b);
      exec (i + 1)
    | Ir.Ibini (op, d, a, k) ->
      v.(d) <- Emulator.eval_binop op v.(a) (Semantics.mask32 k);
      exec (i + 1)
    | Ir.Imkfl (kind, d, a, b, c) ->
      v.(d) <- Flagcalc.compute kind ~a:v.(a) ~b:v.(b) ~c:v.(c);
      exec (i + 1)
    | Ir.Iisel (d, c, a, b) ->
      v.(d) <- (if v.(c) <> 0 then v.(a) else v.(b));
      exec (i + 1)
    | Ir.Iload (w, sg, d, a, off) ->
      v.(d) <- load w ~signed:sg (Semantics.mask32 (v.(a) + off));
      exec (i + 1)
    | Ir.Isload (w, sg, d, a, off) ->
      let addr = Semantics.mask32 (v.(a) + off) in
      v.(d) <- load w ~signed:sg addr;
      aliases := (addr, Isa.width_bytes w) :: !aliases;
      exec (i + 1)
    | Ir.Istore (w, s, a, off) ->
      store w (Semantics.mask32 (v.(a) + off)) v.(s);
      exec (i + 1)
    | Ir.Ifli (d, x) ->
      f.(d) <- x;
      exec (i + 1)
    | Ir.Ifmov (d, s) ->
      f.(d) <- f.(s);
      exec (i + 1)
    | Ir.Ifbin (op, d, a, b) ->
      let g : Isa.fp_bin =
        match op with Fadd -> Fadd | Fsub -> Fsub | Fmul -> Fmul | Fdiv -> Fdiv
      in
      f.(d) <- Semantics.fp_bin g f.(a) f.(b);
      exec (i + 1)
    | Ir.Ifun (op, d, a) ->
      let g : Isa.fp_un = match op with Fsqrt -> Fsqrt | Fabs -> Fabs | Fneg -> Fchs in
      f.(d) <- Semantics.fp_un g f.(a);
      exec (i + 1)
    | Ir.Ifload (d, a, off) ->
      f.(d) <- fload (Semantics.mask32 (v.(a) + off));
      exec (i + 1)
    | Ir.Ifstore (s, a, off) ->
      fstore (Semantics.mask32 (v.(a) + off)) f.(s);
      exec (i + 1)
    | Ir.Ifcmp (d, a, b) ->
      v.(d) <- Semantics.fcmp_flags f.(a) f.(b);
      exec (i + 1)
    | Ir.Icvtif (d, a) ->
      f.(d) <- Semantics.i2f v.(a);
      exec (i + 1)
    | Ir.Icvtfi (d, a) ->
      v.(d) <- Semantics.f2i f.(a);
      exec (i + 1)
    | Ir.Irt_f (fn, d, a) ->
      let g : Isa.fp_un =
        match fn with Rt_sin -> Fsin | Rt_cos -> Fcos | _ -> assert false
      in
      f.(d) <- Semantics.fp_un g f.(a);
      exec (i + 1)
    | Ir.Irt_div { signed; q; r = rr; hi; lo; d } ->
      let qv, rv =
        if signed then Semantics.div_s ~hi:v.(hi) ~lo:v.(lo) v.(d)
        else Semantics.div_u ~hi:v.(hi) ~lo:v.(lo) v.(d)
      in
      v.(q) <- qv;
      v.(rr) <- rv;
      exec (i + 1)
    | Ir.Ibr (c, a, b, t) -> if cmp_holds c v.(a) v.(b) then exec t else exec (i + 1)
    | Ir.Iassert (c, a, b) -> if cmp_holds c v.(a) v.(b) then exec (i + 1) else Assert_failed
    | Ir.Iexit spec ->
      Hashtbl.iter (fun addr byte -> Memory.write8 mem addr byte) sbuf;
      let target =
        match spec.target with
        | Ir.Xdirect pc | Ir.Xsyscall pc | Ir.Xinterp pc -> pc
        | Ir.Xindirect s -> v.(s)
        | Ir.Xhalt -> -1
      in
      Exited (spec, target)
  in
  try exec 0 with Alias_hit -> Alias_failed
