open Darco_guest
open Code

type retire_info = {
  host_pc : int;
  insn : Code.insn;
  mem_access : (int * [ `Load | `Store ]) option;
  branch : (bool * int) option;
}

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

let cmp_holds (c : Code.cmp) a b =
  match c with
  | Beq -> a = b
  | Bne -> a <> b
  | Blt -> Semantics.signed a < Semantics.signed b
  | Bge -> Semantics.signed a >= Semantics.signed b
  | Bltu -> a < b
  | Bgeu -> a >= b

let eval_binop (op : Code.binop) a b =
  match op with
  | Add -> Semantics.mask32 (a + b)
  | Sub -> Semantics.mask32 (a - b)
  | Mul -> Semantics.result_of (Semantics.mul_u a b)
  | Mulhu -> Semantics.mulhi_u a b
  | Mulhs -> Semantics.mulhi_s a b
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

exception Assert_failed

let run m ~resolve ?(fuel = max_int) ?on_retire entry_region =
  let host_retired = ref 0 in
  let host_bb = ref 0 in
  let host_super = ref 0 in
  let guest_bb = ref 0 in
  let guest_super = ref 0 in
  let chains = ref 0 in
  let wasted = ref 0 in
  let since_commit = ref 0 in
  let region = ref entry_region in
  let idx = ref 0 in
  let steps_here = ref 0 in
  let retire ?mem_access ?branch insn weight =
    host_retired := !host_retired + weight;
    (match !region.mode with
    | `Bb -> host_bb := !host_bb + weight
    | `Super -> host_super := !host_super + weight);
    since_commit := !since_commit + weight;
    match on_retire with
    | None -> ()
    | Some f -> f { host_pc = host_pc !region !idx; insn; mem_access; branch }
  in
  let transferred = ref false in
  let enter r =
    chains := !chains + 1;
    region := r;
    idx := 0;
    steps_here := 0;
    transferred := true
  in
  let finish stop =
    {
      stop;
      host_retired = !host_retired;
      host_bb = !host_bb;
      host_super = !host_super;
      guest_bb = !guest_bb;
      guest_super = !guest_super;
      chains_followed = !chains;
      wasted_host = !wasted;
    }
  in
  let rec exec () =
    let r = !region in
    let code = r.code in
    incr steps_here;
    (* Regions are acyclic by construction; a runaway count means a
       malformed region rather than guest behaviour. *)
    assert (!steps_here <= (100 * Array.length code) + 10_000);
    let i = !idx in
    let insn = code.(i) in
    let next = ref (i + 1) in
    let stop = ref None in
    transferred := false;
    (match insn with
    | Nop -> retire insn 1
    | Li (rd, v) ->
      Machine.set m rd v;
      retire insn 1
    | Bin (op, rd, ra, rb) ->
      Machine.set m rd (eval_binop op (Machine.get m ra) (Machine.get m rb));
      retire insn 1
    | Bini (op, rd, ra, imm) ->
      Machine.set m rd (eval_binop op (Machine.get m ra) (Semantics.mask32 imm));
      retire insn 1
    | Load (w, signed, rd, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.set m rd (Machine.load m w ~signed addr);
      retire ~mem_access:(addr, `Load) insn 1
    | Sload (w, signed, rd, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.set m rd (Machine.load_spec m w ~signed addr);
      retire ~mem_access:(addr, `Load) insn 1
    | Store (w, rv, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.store m w addr (Machine.get m rv);
      retire ~mem_access:(addr, `Store) insn 1
    | Fli (fd, v) ->
      m.f.(fd) <- v;
      retire insn 1
    | Fmov (fd, fs) ->
      m.f.(fd) <- m.f.(fs);
      retire insn 1
    | Fbin (op, fd, fa, fb) ->
      let g : Isa.fp_bin =
        match op with Fadd -> Fadd | Fsub -> Fsub | Fmul -> Fmul | Fdiv -> Fdiv
      in
      m.f.(fd) <- Semantics.fp_bin g m.f.(fa) m.f.(fb);
      retire insn 1
    | Fun (op, fd, fa) ->
      let g : Isa.fp_un = match op with Fsqrt -> Fsqrt | Fabs -> Fabs | Fneg -> Fchs in
      m.f.(fd) <- Semantics.fp_un g m.f.(fa);
      retire insn 1
    | Fload (fd, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.load_f64 m fd addr;
      retire ~mem_access:(addr, `Load) insn 1
    | Fstore (fv, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.store_f64 m addr fv;
      retire ~mem_access:(addr, `Store) insn 1
    | Fcmp (rd, fa, fb) ->
      Machine.set m rd (Semantics.fcmp_flags m.f.(fa) m.f.(fb));
      retire insn 1
    | Cvtif (fd, ra) ->
      m.f.(fd) <- Semantics.i2f (Machine.get m ra);
      retire insn 1
    | Cvtfi (rd, fa) ->
      Machine.set m rd (Semantics.f2i m.f.(fa));
      retire insn 1
    | Mkfl (k, rd, ra, rb, rc) ->
      Machine.set m rd
        (Flagcalc.compute k ~a:(Machine.get m ra) ~b:(Machine.get m rb)
           ~c:(Machine.get m rc));
      retire insn 1
    | Isel (rd, rc, ra, rb) ->
      Machine.set m rd
        (if Machine.get m rc <> 0 then Machine.get m ra else Machine.get m rb);
      retire insn 1
    | Callrt_f (fn, fd, fs) ->
      let g : Isa.fp_un = match fn with Rt_sin -> Fsin | Rt_cos -> Fcos | _ -> assert false in
      m.f.(fd) <- Semantics.fp_un g m.f.(fs);
      retire insn (rt_cost fn)
    | Callrt_div { signed; q; r = rr; hi; lo; d } ->
      let hi_v = Machine.get m hi and lo_v = Machine.get m lo and d_v = Machine.get m d in
      let fn = if signed then Rt_divs else Rt_divu in
      let qv, rv =
        if signed then Semantics.div_s ~hi:hi_v ~lo:lo_v d_v
        else Semantics.div_u ~hi:hi_v ~lo:lo_v d_v
      in
      Machine.set m q qv;
      Machine.set m rr rv;
      retire insn (rt_cost fn)
    | B (c, ra, rb, t) ->
      let taken = cmp_holds c (Machine.get m ra) (Machine.get m rb) in
      retire ~branch:(taken, host_pc r t) insn 1;
      if taken then next := t
    | J t ->
      retire ~branch:(true, host_pc r t) insn 1;
      next := t
    | Jr (ra, rg) -> begin
      let target = Machine.get m ra in
      retire ~branch:(true, target) insn 1;
      match resolve target with
      | Some r' when not r'.invalidated ->
        if !host_retired >= fuel then stop := Some (Stop_fuel r'.entry_pc) else enter r'
      | Some _ | None -> stop := Some (Stop_indirect_miss (Machine.get m rg))
    end
    | Assert (c, ra, rb) ->
      retire insn 1;
      if not (cmp_holds c (Machine.get m ra) (Machine.get m rb)) then raise Assert_failed
    | Chk ->
      Machine.checkpoint m;
      since_commit := 0;
      retire insn 1
    | Commit n ->
      Machine.commit m;
      (match r.mode with
      | `Bb -> guest_bb := !guest_bb + n
      | `Super -> guest_super := !guest_super + n);
      since_commit := 0;
      retire insn 1
    | Exit e -> begin
      let target = match e.chain with Some r' -> r'.base | None -> 0xE000_0000 in
      retire ~branch:(true, target) insn 1;
      match e.chain with
      | Some r' when not r'.invalidated ->
        if !host_retired >= fuel then stop := Some (Stop_fuel r'.entry_pc) else enter r'
      | Some _ | None -> stop := Some (Stop_exit e)
    end);
    match !stop with
    | Some s -> finish s
    | None ->
      if not !transferred then idx := !next;
      exec ()
  in
  try exec () with
  | Assert_failed ->
    wasted := !wasted + !since_commit;
    Machine.rollback m;
    finish (Stop_rollback (`Assert, !region))
  | Machine.Alias_violation ->
    wasted := !wasted + !since_commit;
    Machine.rollback m;
    finish (Stop_rollback (`Alias, !region))
  | Memory.Page_fault p ->
    wasted := !wasted + !since_commit;
    Machine.rollback m;
    finish (Stop_fault (p, !region))
