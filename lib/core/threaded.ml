open Darco_guest
open Darco_host
open Code

(* --- shared operator specialization ------------------------------------- *)

(* The walker evaluators pay a constructor [match] on every executed
   instruction; here the match runs once, at compile time, and yields the
   bare arithmetic closure. *)
let binop_fn (op : Code.binop) : int -> int -> int =
  match op with
  | Add -> fun a b -> Semantics.mask32 (a + b)
  | Sub -> fun a b -> Semantics.mask32 (a - b)
  | Mul -> fun a b -> Semantics.result_of (Semantics.mul_u a b)
  | Mulhu -> Semantics.mulhi_u
  | Mulhs -> Semantics.mulhi_s
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | Shl -> fun a b -> Semantics.mask32 (a lsl (b land 31))
  | Shr -> fun a b -> a lsr (b land 31)
  | Sar -> fun a b -> Semantics.mask32 (Semantics.signed a asr (b land 31))
  | Slt -> fun a b -> if Semantics.signed a < Semantics.signed b then 1 else 0
  | Sltu -> fun a b -> if a < b then 1 else 0
  | Seq -> fun a b -> if a = b then 1 else 0
  | Sne -> fun a b -> if a <> b then 1 else 0

let cmp_fn (c : Code.cmp) : int -> int -> bool =
  match c with
  | Beq -> ( = )
  | Bne -> ( <> )
  | Blt -> fun a b -> Semantics.signed a < Semantics.signed b
  | Bge -> fun a b -> Semantics.signed a >= Semantics.signed b
  | Bltu -> ( < )
  | Bgeu -> ( >= )

let fbin_fn (op : Code.fbinop) : Isa.fp_bin =
  match op with Fadd -> Fadd | Fsub -> Fsub | Fmul -> Fmul | Fdiv -> Fdiv

let fun_fn (op : Code.funop) : Isa.fp_un =
  match op with Fsqrt -> Fsqrt | Fabs -> Fabs | Fneg -> Fchs

(* ========================================================================= *)
(* Host-level engine: direct-threaded execution of [Code.region]s, the path
   [Tol.run_slice] dispatches through.  Bit-for-bit equivalent to
   [Emulator.run] without an [on_retire] hook: same counters, same stop
   reasons, same exception windows (an operation that faults does so before
   its retirement is counted, exactly like the walker).                      *)
(* ========================================================================= *)

exception Host_assert_failed

type ctx = {
  m : Machine.t;
  resolve : int -> Code.region option;
  get : Code.region -> compiled;
  fuel : int;
  mutable host_retired : int;
  mutable host_bb : int;
  mutable host_super : int;
  mutable guest_bb : int;
  mutable guest_super : int;
  mutable chains : int;
  mutable wasted : int;
  mutable since_commit : int;
  mutable region : Code.region;  (* for rollback/fault attribution *)
  mutable steps_here : int;
  mutable step_limit : int;
  mutable stop_ : Emulator.stop option;
}

and compiled = {
  c_region : Code.region;
  c_limit : int;  (* runaway bound: regions are acyclic by construction *)
  c_entry : ctx -> unit;
}

let bump_bb c w =
  c.host_retired <- c.host_retired + w;
  c.host_bb <- c.host_bb + w;
  c.since_commit <- c.since_commit + w

let bump_super c w =
  c.host_retired <- c.host_retired + w;
  c.host_super <- c.host_super + w;
  c.since_commit <- c.since_commit + w

let guard c =
  c.steps_here <- c.steps_here + 1;
  assert (c.steps_here <= c.step_limit)

(* Fuel is checked only at region transfers, before the chain counter moves
   (a fuel stop charges no chain) — the same order as [Emulator.run]. *)
let transfer c (r' : Code.region) =
  if c.host_retired >= c.fuel then c.stop_ <- Some (Emulator.Stop_fuel r'.entry_pc)
  else begin
    c.chains <- c.chains + 1;
    let comp = c.get r' in
    c.region <- r';
    c.steps_here <- 0;
    c.step_limit <- comp.c_limit;
    comp.c_entry c
  end

let compile (region : Code.region) : compiled =
  let code = region.code in
  let n = Array.length code in
  let bump = match region.mode with `Bb -> bump_bb | `Super -> bump_super in
  let commit_guest =
    match region.mode with
    | `Bb -> fun c k -> c.guest_bb <- c.guest_bb + k
    | `Super -> fun c k -> c.guest_super <- c.guest_super + k
  in
  (* Branch targets: a [Commit; Exit] pair may only fuse when the exit is
     not itself a jump target. *)
  let marks = Array.make (max n 1) false in
  Array.iter
    (function B (_, _, _, t) | J t -> marks.(t) <- true | _ -> ())
    code;
  (* Runs of non-faulting operations fuse into one closure: the step guard
     and the retirement counters are batched over the whole run.  No
     exception can fire inside such a run and control cannot leave it, so
     the intermediate counter values the walker would expose are
     unobservable — the state after the run is bit-identical.  Loads and
     stores (page faults, alias violations), Chk/Commit (they reset
     [since_commit] mid-stream) and control all end a fusion window. *)
  let bare (insn : Code.insn) : (Machine.t -> unit) option =
    match insn with
    | Nop -> Some (fun _ -> ())
    | Li (rd, v) -> Some (fun m -> Machine.set m rd v)
    | Bin (op, rd, ra, rb) ->
      let f = binop_fn op in
      Some (fun m -> Machine.set m rd (f (Machine.get m ra) (Machine.get m rb)))
    | Bini (op, rd, ra, imm) ->
      let f = binop_fn op in
      let imm = Semantics.mask32 imm in
      Some (fun m -> Machine.set m rd (f (Machine.get m ra) imm))
    | Fli (fd, v) -> Some (fun m -> m.Machine.f.(fd) <- v)
    | Fmov (fd, fs) ->
      Some
        (fun m ->
          let f = m.Machine.f in
          f.(fd) <- f.(fs))
    | Fbin (op, fd, fa, fb) ->
      let g = fbin_fn op in
      Some
        (fun m ->
          let f = m.Machine.f in
          f.(fd) <- Semantics.fp_bin g f.(fa) f.(fb))
    | Fun (op, fd, fa) ->
      let g = fun_fn op in
      Some
        (fun m ->
          let f = m.Machine.f in
          f.(fd) <- Semantics.fp_un g f.(fa))
    | Fcmp (rd, fa, fb) ->
      Some
        (fun m ->
          Machine.set m rd
            (Semantics.fcmp_flags m.Machine.f.(fa) m.Machine.f.(fb)))
    | Cvtif (fd, ra) ->
      Some (fun m -> m.Machine.f.(fd) <- Semantics.i2f (Machine.get m ra))
    | Cvtfi (rd, fa) ->
      Some (fun m -> Machine.set m rd (Semantics.f2i m.Machine.f.(fa)))
    | Mkfl (kind, rd, ra, rb, rc) ->
      Some
        (fun m ->
          Machine.set m rd
            (Flagcalc.compute kind ~a:(Machine.get m ra) ~b:(Machine.get m rb)
               ~c:(Machine.get m rc)))
    | Isel (rd, rc, ra, rb) ->
      Some
        (fun m ->
          Machine.set m rd
            (if Machine.get m rc <> 0 then Machine.get m ra
             else Machine.get m rb))
    | Callrt_f (fn, fd, fs) ->
      let g : Isa.fp_un =
        match fn with Rt_sin -> Fsin | Rt_cos -> Fcos | _ -> assert false
      in
      Some
        (fun m ->
          let f = m.Machine.f in
          f.(fd) <- Semantics.fp_un g f.(fs))
    | Callrt_div { signed; q; r = rr; hi; lo; d } ->
      let div = if signed then Semantics.div_s else Semantics.div_u in
      Some
        (fun m ->
          let qv, rv =
            div ~hi:(Machine.get m hi) ~lo:(Machine.get m lo) (Machine.get m d)
          in
          Machine.set m q qv;
          Machine.set m rr rv)
    | Load _ | Sload _ | Store _ | Fload _ | Fstore _ | B _ | J _ | Jr _
    | Assert _ | Chk | Commit _ | Exit _ ->
      None
  in
  let weight (insn : Code.insn) =
    match insn with
    | Callrt_f (fn, _, _) -> rt_cost fn
    | Callrt_div { signed; _ } -> rt_cost (if signed then Rt_divs else Rt_divu)
    | _ -> 1
  in
  let bares = Array.map bare code in
  (* run_end.(i): last index of the maximal fusable run starting at i *)
  let run_end = Array.make (max n 1) (-1) in
  for i = n - 1 downto 0 do
    if bares.(i) <> None then
      run_end.(i) <-
        (if i + 1 < n && bares.(i + 1) <> None && not marks.(i + 1) then
           run_end.(i + 1)
         else i)
  done;
  let steps : (ctx -> unit) array =
    Array.make (max n 1) (fun _ -> assert false)
  in
  (* Falling off the end of a region is malformed; the walker dies on the
     out-of-bounds fetch and so do we. *)
  let oob _ = raise (Invalid_argument "index out of bounds") in
  (* Built back to front so a fallthrough or forward branch captures its
     continuation closure directly; a (malformed) backward target falls back
     to an indirection through the array. *)
  let target t i = if t > i then steps.(t) else fun c -> steps.(t) c in
  let continuation i = if i + 1 < n then steps.(i + 1) else oob in
  let exit_step (e : Code.exit_info) c =
    bump c 1;
    match e.chain with
    | Some r' when not r'.invalidated -> transfer c r'
    | Some _ | None -> c.stop_ <- Some (Emulator.Stop_exit e)
  in
  for i = n - 1 downto 0 do
    let k = continuation i in
    steps.(i) <-
      (match code.(i) with
      | Nop ->
        fun c ->
          guard c;
          bump c 1;
          k c
      | Li (rd, v) ->
        fun c ->
          guard c;
          Machine.set c.m rd v;
          bump c 1;
          k c
      | Bin (op, rd, ra, rb) ->
        let f = binop_fn op in
        fun c ->
          guard c;
          let m = c.m in
          Machine.set m rd (f (Machine.get m ra) (Machine.get m rb));
          bump c 1;
          k c
      | Bini (op, rd, ra, imm) ->
        let f = binop_fn op in
        let imm = Semantics.mask32 imm in
        fun c ->
          guard c;
          let m = c.m in
          Machine.set m rd (f (Machine.get m ra) imm);
          bump c 1;
          k c
      | Load (w, signed, rd, ra, d) ->
        fun c ->
          guard c;
          let m = c.m in
          let addr = Semantics.mask32 (Machine.get m ra + d) in
          Machine.set m rd (Machine.load m w ~signed addr);
          bump c 1;
          k c
      | Sload (w, signed, rd, ra, d) ->
        fun c ->
          guard c;
          let m = c.m in
          let addr = Semantics.mask32 (Machine.get m ra + d) in
          Machine.set m rd (Machine.load_spec m w ~signed addr);
          bump c 1;
          k c
      | Store (w, rv, ra, d) ->
        fun c ->
          guard c;
          let m = c.m in
          let addr = Semantics.mask32 (Machine.get m ra + d) in
          Machine.store m w addr (Machine.get m rv);
          bump c 1;
          k c
      | Fli (fd, v) ->
        fun c ->
          guard c;
          c.m.f.(fd) <- v;
          bump c 1;
          k c
      | Fmov (fd, fs) ->
        fun c ->
          guard c;
          let f = c.m.f in
          f.(fd) <- f.(fs);
          bump c 1;
          k c
      | Fbin (op, fd, fa, fb) ->
        let g = fbin_fn op in
        fun c ->
          guard c;
          let f = c.m.f in
          f.(fd) <- Semantics.fp_bin g f.(fa) f.(fb);
          bump c 1;
          k c
      | Fun (op, fd, fa) ->
        let g = fun_fn op in
        fun c ->
          guard c;
          let f = c.m.f in
          f.(fd) <- Semantics.fp_un g f.(fa);
          bump c 1;
          k c
      | Fload (fd, ra, d) ->
        fun c ->
          guard c;
          let m = c.m in
          let addr = Semantics.mask32 (Machine.get m ra + d) in
          Machine.load_f64 m fd addr;
          bump c 1;
          k c
      | Fstore (fv, ra, d) ->
        fun c ->
          guard c;
          let m = c.m in
          let addr = Semantics.mask32 (Machine.get m ra + d) in
          Machine.store_f64 m addr fv;
          bump c 1;
          k c
      | Fcmp (rd, fa, fb) ->
        fun c ->
          guard c;
          let m = c.m in
          Machine.set m rd (Semantics.fcmp_flags m.f.(fa) m.f.(fb));
          bump c 1;
          k c
      | Cvtif (fd, ra) ->
        fun c ->
          guard c;
          let m = c.m in
          m.f.(fd) <- Semantics.i2f (Machine.get m ra);
          bump c 1;
          k c
      | Cvtfi (rd, fa) ->
        fun c ->
          guard c;
          let m = c.m in
          Machine.set m rd (Semantics.f2i m.f.(fa));
          bump c 1;
          k c
      | Mkfl (kind, rd, ra, rb, rc) ->
        fun c ->
          guard c;
          let m = c.m in
          Machine.set m rd
            (Flagcalc.compute kind ~a:(Machine.get m ra) ~b:(Machine.get m rb)
               ~c:(Machine.get m rc));
          bump c 1;
          k c
      | Isel (rd, rc, ra, rb) ->
        fun c ->
          guard c;
          let m = c.m in
          Machine.set m rd
            (if Machine.get m rc <> 0 then Machine.get m ra else Machine.get m rb);
          bump c 1;
          k c
      | Callrt_f (fn, fd, fs) ->
        let g : Isa.fp_un =
          match fn with Rt_sin -> Fsin | Rt_cos -> Fcos | _ -> assert false
        in
        let w = rt_cost fn in
        fun c ->
          guard c;
          let f = c.m.f in
          f.(fd) <- Semantics.fp_un g f.(fs);
          bump c w;
          k c
      | Callrt_div { signed; q; r = rr; hi; lo; d } ->
        let w = rt_cost (if signed then Rt_divs else Rt_divu) in
        let div = if signed then Semantics.div_s else Semantics.div_u in
        fun c ->
          guard c;
          let m = c.m in
          let hi_v = Machine.get m hi
          and lo_v = Machine.get m lo
          and d_v = Machine.get m d in
          let qv, rv = div ~hi:hi_v ~lo:lo_v d_v in
          Machine.set m q qv;
          Machine.set m rr rv;
          bump c w;
          k c
      | B (cmp, ra, rb, t) ->
        let holds = cmp_fn cmp in
        let kt = target t i in
        fun c ->
          guard c;
          let m = c.m in
          let taken = holds (Machine.get m ra) (Machine.get m rb) in
          bump c 1;
          if taken then kt c else k c
      | J t ->
        let kt = target t i in
        fun c ->
          guard c;
          bump c 1;
          kt c
      | Jr (ra, rg) ->
        fun c ->
          guard c;
          let m = c.m in
          let tgt = Machine.get m ra in
          bump c 1;
          (match c.resolve tgt with
          | Some r' when not r'.invalidated -> transfer c r'
          | Some _ | None ->
            c.stop_ <- Some (Emulator.Stop_indirect_miss (Machine.get m rg)))
      | Assert (cmp, ra, rb) ->
        let holds = cmp_fn cmp in
        fun c ->
          guard c;
          bump c 1;
          let m = c.m in
          if holds (Machine.get m ra) (Machine.get m rb) then k c
          else raise Host_assert_failed
      | Chk ->
        fun c ->
          guard c;
          Machine.checkpoint c.m;
          c.since_commit <- 0;
          bump c 1;
          k c
      | Commit cnt -> (
        (* Fusion: a [Commit; Exit] pair — every region epilogue — runs as
           one closure when the exit is not itself a branch target. *)
        match if i + 1 < n && not marks.(i + 1) then code.(i + 1) else Nop with
        | Exit e ->
          fun c ->
            guard c;
            Machine.commit c.m;
            commit_guest c cnt;
            c.since_commit <- 0;
            bump c 1;
            guard c;
            exit_step e c
        | _ ->
          fun c ->
            guard c;
            Machine.commit c.m;
            commit_guest c cnt;
            c.since_commit <- 0;
            bump c 1;
            k c)
      | Exit e ->
        fun c ->
          guard c;
          exit_step e c);
    (* If [i] heads a fusable run of two or more ops, replace the per-op
       closure with one that batches guard + retirement over the run.  A
       run head is the first bareable op after a non-bareable one (or after
       a branch target); mid-run indices keep their individual closures so
       a (malformed) backward branch into the middle still behaves. *)
    let j = run_end.(i) in
    if j > i && (i = 0 || marks.(i) || bares.(i - 1) = None) then begin
      let len = j - i + 1 in
      let total = ref 0 in
      for x = i to j do
        total := !total + weight code.(x)
      done;
      let total = !total in
      let kj = if j + 1 < n then steps.(j + 1) else oob in
      let ops =
        Array.init len (fun x ->
            match bares.(i + x) with Some f -> f | None -> assert false)
      in
      steps.(i) <-
        (fun c ->
          c.steps_here <- c.steps_here + len;
          assert (c.steps_here <= c.step_limit);
          bump c total;
          let m = c.m in
          for x = 0 to len - 1 do
            (Array.unsafe_get ops x) m
          done;
          kj c)
    end
  done;
  {
    c_region = region;
    c_limit = (100 * n) + 10_000;
    c_entry = (if n = 0 then oob else steps.(0));
  }

let run m ~resolve ~get ?(fuel = max_int) entry_region =
  let comp = get entry_region in
  let c =
    {
      m;
      resolve;
      get;
      fuel;
      host_retired = 0;
      host_bb = 0;
      host_super = 0;
      guest_bb = 0;
      guest_super = 0;
      chains = 0;
      wasted = 0;
      since_commit = 0;
      region = entry_region;
      steps_here = 0;
      step_limit = comp.c_limit;
      stop_ = None;
    }
  in
  let finish stop =
    {
      Emulator.stop;
      host_retired = c.host_retired;
      host_bb = c.host_bb;
      host_super = c.host_super;
      guest_bb = c.guest_bb;
      guest_super = c.guest_super;
      chains_followed = c.chains;
      wasted_host = c.wasted;
    }
  in
  try
    comp.c_entry c;
    match c.stop_ with Some s -> finish s | None -> assert false
  with
  | Host_assert_failed ->
    c.wasted <- c.wasted + c.since_commit;
    Machine.rollback m;
    finish (Emulator.Stop_rollback (`Assert, c.region))
  | Machine.Alias_violation ->
    c.wasted <- c.wasted + c.since_commit;
    Machine.rollback m;
    finish (Emulator.Stop_rollback (`Alias, c.region))
  | Memory.Page_fault p ->
    c.wasted <- c.wasted + c.since_commit;
    Machine.rollback m;
    finish (Emulator.Stop_fault (p, c.region))

(* ========================================================================= *)
(* IR-level engine: direct-threaded execution of [Regionir.t], the
   pre-codegen form the reference evaluator walks.  Mirrors [Ir_eval.run]
   exactly: byte-level gated store buffer, alias-protection table,
   outcome-as-value asserts.                                                 *)
(* ========================================================================= *)

type outcome = Exited of Ir.exit_spec * int | Assert_failed | Alias_failed

exception Alias_hit

type ictx = {
  v : int array;
  f : float array;
  sbuf : (int, int) Hashtbl.t;  (* gated store buffer, byte level *)
  mutable aliases : (int * int) list;
  cpu : Cpu.t;
  mem : Memory.t;
  mutable iout : outcome;
}

type ir_compiled = { ir_nv : int; ir_nf : int; ir_entry : ictx -> unit }

let store_byte c addr value = Hashtbl.replace c.sbuf addr (value land 0xFF)

let load_byte c addr =
  match Hashtbl.find_opt c.sbuf addr with
  | Some b -> b
  | None -> Memory.read8 c.mem addr

let overlaps a la b lb = a < b + lb && b < a + la

let check_alias c addr len =
  if List.exists (fun (a, l) -> overlaps a l addr len) c.aliases then
    raise Alias_hit

let buf_store c w addr value =
  check_alias c addr (Isa.width_bytes w);
  for k = 0 to Isa.width_bytes w - 1 do
    store_byte c (addr + k) (value lsr (8 * k))
  done

let buf_load c w ~signed addr =
  let value = ref 0 in
  for k = Isa.width_bytes w - 1 downto 0 do
    value := (!value lsl 8) lor load_byte c (addr + k)
  done;
  if signed then Semantics.sign_extend w !value else !value

let buf_fstore c addr x =
  check_alias c addr 8;
  let bits = Int64.bits_of_float x in
  for k = 0 to 7 do
    store_byte c (addr + k) (Int64.to_int (Int64.shift_right_logical bits (8 * k)))
  done

let buf_fload c addr =
  let bits = ref 0L in
  for k = 7 downto 0 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (load_byte c (addr + k)))
  done;
  Int64.float_of_bits !bits

(* Guest-state puts have no failure modes and no internal control flow, so a
   maximal run of them (not crossing a branch-target boundary) fuses into a
   single closure with no step dispatch in between. *)
let put_family = function
  | Ir.Iput _ | Ir.Iputf _ | Ir.Iputfl _ -> true
  | _ -> false

let put_op (insn : Ir.t) : ictx -> unit =
  match insn with
  | Ir.Iput (gr, s) -> fun c -> Cpu.set c.cpu gr c.v.(s)
  | Ir.Iputf (gf, s) -> fun c -> Cpu.setf c.cpu gf c.f.(s)
  | Ir.Iputfl s -> fun c -> c.cpu.Cpu.flags <- c.v.(s) land Flags.mask
  | _ -> assert false

let compile_ir (r : Regionir.t) : ir_compiled =
  let body = r.body in
  let n = Array.length body in
  let max_reg acc l = List.fold_left max acc l in
  let nv =
    1 + Array.fold_left (fun acc i -> max_reg acc (Ir.defs i @ Ir.uses i)) 0 body
  in
  let nf =
    1 + Array.fold_left (fun acc i -> max_reg acc (Ir.fdefs i @ Ir.fuses i)) 0 body
  in
  let labels = Regionir.labels r in
  let steps : (ictx -> unit) array =
    Array.make (max n 1) (fun _ -> assert false)
  in
  let oob _ = raise (Invalid_argument "index out of bounds") in
  let target t i = if t > i then steps.(t) else fun c -> steps.(t) c in
  let continuation i = if i + 1 < n then steps.(i + 1) else oob in
  for i = n - 1 downto 0 do
    let k = continuation i in
    steps.(i) <-
      (match body.(i) with
      | Ir.Iget (d, gr) ->
        fun c ->
          c.v.(d) <- Cpu.get c.cpu gr;
          k c
      | (Ir.Iput _ | Ir.Iputf _ | Ir.Iputfl _) as insn ->
        (* collect the maximal fusable run starting here *)
        let rec span j acc =
          if j < n && put_family body.(j) && (j = i || not labels.(j)) then
            span (j + 1) (put_op body.(j) :: acc)
          else (j, List.rev acc)
        in
        let stop, ops = span (i + 1) [ put_op insn ] in
        let kk = if stop < n then steps.(stop) else oob in
        List.fold_right
          (fun op rest c ->
            op c;
            rest c)
          ops kk
      | Ir.Igetf (d, gf) ->
        fun c ->
          c.f.(d) <- Cpu.getf c.cpu gf;
          k c
      | Ir.Igetfl d ->
        fun c ->
          c.v.(d) <- c.cpu.Cpu.flags;
          k c
      | Ir.Ili (d, kv) ->
        let kv = Semantics.mask32 kv in
        fun c ->
          c.v.(d) <- kv;
          k c
      | Ir.Imov (d, s) ->
        fun c ->
          c.v.(d) <- c.v.(s);
          k c
      | Ir.Ibin (op, d, a, b) ->
        let f = binop_fn op in
        fun c ->
          c.v.(d) <- f c.v.(a) c.v.(b);
          k c
      | Ir.Ibini (op, d, a, kv) ->
        let f = binop_fn op in
        let kv = Semantics.mask32 kv in
        fun c ->
          c.v.(d) <- f c.v.(a) kv;
          k c
      | Ir.Imkfl (kind, d, a, b, cc) ->
        fun c ->
          c.v.(d) <- Flagcalc.compute kind ~a:c.v.(a) ~b:c.v.(b) ~c:c.v.(cc);
          k c
      | Ir.Iisel (d, cc, a, b) ->
        fun c ->
          c.v.(d) <- (if c.v.(cc) <> 0 then c.v.(a) else c.v.(b));
          k c
      | Ir.Iload (w, sg, d, a, off) ->
        fun c ->
          c.v.(d) <- buf_load c w ~signed:sg (Semantics.mask32 (c.v.(a) + off));
          k c
      | Ir.Isload (w, sg, d, a, off) ->
        let len = Isa.width_bytes w in
        fun c ->
          let addr = Semantics.mask32 (c.v.(a) + off) in
          c.v.(d) <- buf_load c w ~signed:sg addr;
          c.aliases <- (addr, len) :: c.aliases;
          k c
      | Ir.Istore (w, s, a, off) ->
        fun c ->
          buf_store c w (Semantics.mask32 (c.v.(a) + off)) c.v.(s);
          k c
      | Ir.Ifli (d, x) ->
        fun c ->
          c.f.(d) <- x;
          k c
      | Ir.Ifmov (d, s) ->
        fun c ->
          c.f.(d) <- c.f.(s);
          k c
      | Ir.Ifbin (op, d, a, b) ->
        let g = fbin_fn op in
        fun c ->
          c.f.(d) <- Semantics.fp_bin g c.f.(a) c.f.(b);
          k c
      | Ir.Ifun (op, d, a) ->
        let g = fun_fn op in
        fun c ->
          c.f.(d) <- Semantics.fp_un g c.f.(a);
          k c
      | Ir.Ifload (d, a, off) ->
        fun c ->
          c.f.(d) <- buf_fload c (Semantics.mask32 (c.v.(a) + off));
          k c
      | Ir.Ifstore (s, a, off) ->
        fun c ->
          buf_fstore c (Semantics.mask32 (c.v.(a) + off)) c.f.(s);
          k c
      | Ir.Ifcmp (d, a, b) ->
        fun c ->
          c.v.(d) <- Semantics.fcmp_flags c.f.(a) c.f.(b);
          k c
      | Ir.Icvtif (d, a) ->
        fun c ->
          c.f.(d) <- Semantics.i2f c.v.(a);
          k c
      | Ir.Icvtfi (d, a) ->
        fun c ->
          c.v.(d) <- Semantics.f2i c.f.(a);
          k c
      | Ir.Irt_f (fn, d, a) ->
        let g : Isa.fp_un =
          match fn with Rt_sin -> Fsin | Rt_cos -> Fcos | _ -> assert false
        in
        fun c ->
          c.f.(d) <- Semantics.fp_un g c.f.(a);
          k c
      | Ir.Irt_div { signed; q; r = rr; hi; lo; d } ->
        let div = if signed then Semantics.div_s else Semantics.div_u in
        fun c ->
          let qv, rv = div ~hi:c.v.(hi) ~lo:c.v.(lo) c.v.(d) in
          c.v.(q) <- qv;
          c.v.(rr) <- rv;
          k c
      | Ir.Ibr (cmp, a, b, t) ->
        let holds = cmp_fn cmp in
        let kt = target t i in
        fun c -> if holds c.v.(a) c.v.(b) then kt c else k c
      | Ir.Iassert (cmp, a, b) ->
        let holds = cmp_fn cmp in
        fun c -> if holds c.v.(a) c.v.(b) then k c else c.iout <- Assert_failed
      | Ir.Iexit spec ->
        fun c ->
          Hashtbl.iter (fun addr byte -> Memory.write8 c.mem addr byte) c.sbuf;
          let tgt =
            match spec.target with
            | Ir.Xdirect pc | Ir.Xsyscall pc | Ir.Xinterp pc -> pc
            | Ir.Xindirect s -> c.v.(s)
            | Ir.Xhalt -> -1
          in
          c.iout <- Exited (spec, tgt))
  done;
  { ir_nv = nv; ir_nf = nf; ir_entry = (if n = 0 then oob else steps.(0)) }

let run_compiled (comp : ir_compiled) cpu mem =
  let c =
    {
      v = Array.make comp.ir_nv 0;
      f = Array.make comp.ir_nf 0.0;
      sbuf = Hashtbl.create 16;
      aliases = [];
      cpu;
      mem;
      iout = Assert_failed;
    }
  in
  try
    comp.ir_entry c;
    c.iout
  with Alias_hit -> Alias_failed

let run_ir r cpu mem = run_compiled (compile_ir r) cpu mem
