open Darco_guest
open Darco_host
open Code

(* --- operator specialization -------------------------------------------- *)

(* The walker ([Emulator.run]) pays a constructor [match] on every executed
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
(* Direct-threaded execution of [Code.region]s, the path [Tol.run_slice]
   dispatches through when no retire subscriber is attached.  Bit-for-bit
   equivalent to [Emulator.run] without a retire sink: same counters, same
   stop reasons, same exception windows (an operation that faults does so
   before its retirement is counted, exactly like the walker).              *)
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
