open Darco_guest
open Code

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

let run m ~resolve ?(fuel = max_int) ?retire entry_region =
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
  (* the timing descriptors of [!region], when a sink is attached *)
  let descs =
    ref (match retire with Some (s : Retire.sink) -> s.descriptors entry_region | None -> [||])
  in
  (* Count a retired instruction and, with a sink, append its entry: [addr]
     is read for loads and stores, [br] (a [Retire.branch_word]) for
     control transfers.  A full batch is flushed before the append, so no
     entry is ever dropped or overwritten, and nothing is allocated. *)
  let retire_insn weight addr br =
    host_retired := !host_retired + weight;
    (match !region.mode with
    | `Bb -> host_bb := !host_bb + weight
    | `Super -> host_super := !host_super + weight);
    since_commit := !since_commit + weight;
    match retire with
    | None -> ()
    | Some s ->
      let b = s.batch in
      if b.length = Array.length b.pc then Retire.flush s;
      let i = !idx and n = b.length in
      (* [host_pc], written out like the rest of the append *)
      b.pc.(n) <- !region.base + (4 * i);
      b.desc.(n) <- (!descs).(i);
      b.addr.(n) <- addr;
      b.branch.(n) <- br;
      b.length <- n + 1
  in
  let flush () = match retire with Some s -> Retire.flush s | None -> () in
  let transferred = ref false in
  let enter r =
    chains := !chains + 1;
    region := r;
    (match retire with Some s -> descs := s.descriptors r | None -> ());
    idx := 0;
    steps_here := 0;
    transferred := true
  in
  (* Every return hands the pending entries to the consumer, so the
     timing model has seen the whole stream when [run] returns. *)
  let finish stop =
    flush ();
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
    | Nop -> retire_insn 1 0 0
    | Li (rd, v) ->
      Machine.set m rd v;
      retire_insn 1 0 0
    | Bin (op, rd, ra, rb) ->
      Machine.set m rd (eval_binop op (Machine.get m ra) (Machine.get m rb));
      retire_insn 1 0 0
    | Bini (op, rd, ra, imm) ->
      Machine.set m rd (eval_binop op (Machine.get m ra) (Semantics.mask32 imm));
      retire_insn 1 0 0
    | Load (w, signed, rd, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.set m rd (Machine.load m w ~signed addr);
      retire_insn 1 addr 0
    | Sload (w, signed, rd, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.set m rd (Machine.load_spec m w ~signed addr);
      retire_insn 1 addr 0
    | Store (w, rv, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.store m w addr (Machine.get m rv);
      retire_insn 1 addr 0
    | Fli (fd, v) ->
      m.f.(fd) <- v;
      retire_insn 1 0 0
    | Fmov (fd, fs) ->
      m.f.(fd) <- m.f.(fs);
      retire_insn 1 0 0
    | Fbin (op, fd, fa, fb) ->
      let g : Isa.fp_bin =
        match op with Fadd -> Fadd | Fsub -> Fsub | Fmul -> Fmul | Fdiv -> Fdiv
      in
      m.f.(fd) <- Semantics.fp_bin g m.f.(fa) m.f.(fb);
      retire_insn 1 0 0
    | Fun (op, fd, fa) ->
      let g : Isa.fp_un = match op with Fsqrt -> Fsqrt | Fabs -> Fabs | Fneg -> Fchs in
      m.f.(fd) <- Semantics.fp_un g m.f.(fa);
      retire_insn 1 0 0
    | Fload (fd, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.load_f64 m fd addr;
      retire_insn 1 addr 0
    | Fstore (fv, ra, d) ->
      let addr = Semantics.mask32 (Machine.get m ra + d) in
      Machine.store_f64 m addr fv;
      retire_insn 1 addr 0
    | Fcmp (rd, fa, fb) ->
      Machine.set m rd (Semantics.fcmp_flags m.f.(fa) m.f.(fb));
      retire_insn 1 0 0
    | Cvtif (fd, ra) ->
      m.f.(fd) <- Semantics.i2f (Machine.get m ra);
      retire_insn 1 0 0
    | Cvtfi (rd, fa) ->
      Machine.set m rd (Semantics.f2i m.f.(fa));
      retire_insn 1 0 0
    | Mkfl (k, rd, ra, rb, rc) ->
      Machine.set m rd
        (Flagcalc.compute k ~a:(Machine.get m ra) ~b:(Machine.get m rb)
           ~c:(Machine.get m rc));
      retire_insn 1 0 0
    | Isel (rd, rc, ra, rb) ->
      Machine.set m rd
        (if Machine.get m rc <> 0 then Machine.get m ra else Machine.get m rb);
      retire_insn 1 0 0
    | Callrt_f (fn, fd, fs) ->
      let g : Isa.fp_un = match fn with Rt_sin -> Fsin | Rt_cos -> Fcos | _ -> assert false in
      m.f.(fd) <- Semantics.fp_un g m.f.(fs);
      retire_insn (rt_cost fn) 0 0
    | Callrt_div { signed; q; r = rr; hi; lo; d } ->
      let hi_v = Machine.get m hi and lo_v = Machine.get m lo and d_v = Machine.get m d in
      let fn = if signed then Rt_divs else Rt_divu in
      let qv, rv =
        if signed then Semantics.div_s ~hi:hi_v ~lo:lo_v d_v
        else Semantics.div_u ~hi:hi_v ~lo:lo_v d_v
      in
      Machine.set m q qv;
      Machine.set m rr rv;
      retire_insn (rt_cost fn) 0 0
    | B (c, ra, rb, t) ->
      let taken = cmp_holds c (Machine.get m ra) (Machine.get m rb) in
      retire_insn 1 0 (Retire.branch_word ~taken ~target:(host_pc r t));
      if taken then next := t
    | J t ->
      retire_insn 1 0 (Retire.branch_word ~taken:true ~target:(host_pc r t));
      next := t
    | Jr (ra, rg) -> begin
      let target = Machine.get m ra in
      retire_insn 1 0 (Retire.branch_word ~taken:true ~target);
      match resolve target with
      | Some r' when not r'.invalidated ->
        if !host_retired >= fuel then stop := Some (Stop_fuel r'.entry_pc) else enter r'
      | Some _ | None -> stop := Some (Stop_indirect_miss (Machine.get m rg))
    end
    | Assert (c, ra, rb) ->
      retire_insn 1 0 0;
      if not (cmp_holds c (Machine.get m ra) (Machine.get m rb)) then raise Assert_failed
    | Chk ->
      Machine.checkpoint m;
      since_commit := 0;
      retire_insn 1 0 0
    | Commit n ->
      Machine.commit m;
      (match r.mode with
      | `Bb -> guest_bb := !guest_bb + n
      | `Super -> guest_super := !guest_super + n);
      since_commit := 0;
      retire_insn 1 0 0
    | Exit e -> begin
      let target = match e.chain with Some r' -> r'.base | None -> 0xE000_0000 in
      retire_insn 1 0 (Retire.branch_word ~taken:true ~target);
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
  | e ->
    flush ();
    raise e
