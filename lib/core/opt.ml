open Darco_host

type value = Const of int | Copy of Ir.vreg

(* --- forward pass ------------------------------------------------------ *)

(* The environment maps a vreg to what is known about it within the current
   segment.  SSA means entries are never killed, but tables still reset at
   segment boundaries so that a value defined after a branch is never used
   by the stub the branch jumps to. *)

let commutative : Code.binop -> bool = function
  | Add | Mul | Mulhu | Mulhs | And | Or | Xor | Seq | Sne -> true
  | Sub | Shl | Shr | Sar | Slt | Sltu -> false

let forward (cfg : Config.t) (r : Regionir.t) =
  let body = Array.copy r.body in
  let n = Array.length body in
  let is_label = Regionir.labels r in
  let env : (Ir.vreg, value) Hashtbl.t = Hashtbl.create 64 in
  let cse : (Ir.t, Ir.vreg) Hashtbl.t = Hashtbl.create 64 in
  (* Memory value table for RLE/store forwarding: (base, off, width) ->
     value vreg, plus whether the entry came from a load or a store. *)
  let memtab : (Ir.vreg * int * Darco_guest.Isa.width, Ir.vreg) Hashtbl.t =
    Hashtbl.create 16
  in
  let reset () =
    Hashtbl.reset env;
    Hashtbl.reset cse;
    Hashtbl.reset memtab
  in
  let resolve v =
    match Hashtbl.find_opt env v with Some (Copy v') -> v' | _ -> v
  in
  let const_of v =
    match Hashtbl.find_opt env v with Some (Const n) -> Some n | _ -> None
  in
  let overlap off1 w1 off2 w2 =
    let open Darco_guest.Isa in
    off1 < off2 + width_bytes w2 && off2 < off1 + width_bytes w1
  in
  (* A store to (base, off, w) kills entries it may alias. *)
  let kill_may_alias base off w =
    let doomed =
      Hashtbl.fold
        (fun ((b, o, ww) as key) _ acc ->
          let disjoint = b = base && not (overlap off w o ww) in
          if disjoint then acc else key :: acc)
        memtab []
    in
    List.iter (Hashtbl.remove memtab) doomed
  in
  for i = 0 to n - 1 do
    if is_label.(i) then reset ();
    let insn = if cfg.opt_copy_prop then Ir.subst_uses resolve body.(i) else body.(i) in
    let insn =
      (* Constant folding / strength adjustments. *)
      if not cfg.opt_const_fold then insn
      else
        match insn with
        | Ir.Ibin (op, d, a, b) -> (
          match (const_of a, const_of b) with
          | Some ca, Some cb -> Ir.Ili (d, Code.eval_binop op ca cb)
          | _, Some cb -> Ir.Ibini (op, d, a, cb)
          | Some ca, None when commutative op -> Ir.Ibini (op, d, b, ca)
          | _ -> insn)
        | Ir.Ibini (op, d, a, k) -> (
          match const_of a with
          | Some ca -> Ir.Ili (d, Code.eval_binop op ca k)
          | None -> insn)
        | Ir.Imkfl (kind, d, a, b, c) -> (
          match (const_of a, const_of b, const_of c) with
          | Some ca, Some cb, Some cc ->
            Ir.Ili (d, Flagcalc.compute kind ~a:ca ~b:cb ~c:cc)
          | _ -> insn)
        | Ir.Iisel (d, c, a, b) -> (
          match const_of c with
          | Some 0 -> Ir.Imov (d, b)
          | Some _ -> Ir.Imov (d, a)
          | None -> insn)
        | _ -> insn
    in
    (* Redundant-load elimination / store forwarding (32-bit entries only;
       narrow accesses are left alone). *)
    let insn =
      if not cfg.opt_rle then insn
      else
        match insn with
        | Ir.Iload (Darco_guest.Isa.W32, _, d, a, off) -> (
          match Hashtbl.find_opt memtab (a, off, Darco_guest.Isa.W32) with
          | Some v -> Ir.Imov (d, v)
          | None ->
            Hashtbl.replace memtab (a, off, Darco_guest.Isa.W32) d;
            insn)
        | Ir.Istore (w, v, a, off) ->
          kill_may_alias a off w;
          if w = Darco_guest.Isa.W32 then Hashtbl.replace memtab (a, off, w) v;
          insn
        | Ir.Iload (w, _, _, _, _) | Ir.Isload (w, _, _, _, _) ->
          ignore w;
          insn
        | _ -> insn
    in
    (* CSE over pure value-producing instructions. *)
    let insn =
      if not cfg.opt_cse then insn
      else
        match insn with
        | Ir.Ili (d, _) | Ir.Ibin (_, d, _, _) | Ir.Ibini (_, d, _, _)
        | Ir.Imkfl (_, d, _, _, _) | Ir.Iisel (d, _, _, _) -> (
          let key = Ir.subst_uses (fun v -> v) insn in
          (* Normalize the def out of the key by rewriting it to 0. *)
          let keyed =
            match key with
            | Ir.Ili (_, k) -> Ir.Ili (0, k)
            | Ir.Ibin (op, _, a, b) -> Ir.Ibin (op, 0, a, b)
            | Ir.Ibini (op, _, a, k) -> Ir.Ibini (op, 0, a, k)
            | Ir.Imkfl (k, _, a, b, c) -> Ir.Imkfl (k, 0, a, b, c)
            | Ir.Iisel (_, c, a, b) -> Ir.Iisel (0, c, a, b)
            | _ -> assert false
          in
          match Hashtbl.find_opt cse keyed with
          | Some prev -> Ir.Imov (d, prev)
          | None ->
            Hashtbl.replace cse keyed d;
            insn)
        | _ -> insn
    in
    (* Update the value environment. *)
    (match insn with
    | Ir.Ili (d, k) -> Hashtbl.replace env d (Const k)
    | Ir.Imov (d, s) -> Hashtbl.replace env d (Copy (resolve s))
    | _ -> ());
    body.(i) <- insn
  done;
  { r with body }

(* --- backward pass: dead code elimination ------------------------------ *)

let dce (r : Regionir.t) =
  let body = r.body in
  let n = Array.length body in
  let live = Hashtbl.create 64 in
  let flive = Hashtbl.create 64 in
  let keep = Array.make n true in
  for i = n - 1 downto 0 do
    let insn = body.(i) in
    let needed =
      Ir.has_side_effect insn
      || List.exists (Hashtbl.mem live) (Ir.defs insn)
      || List.exists (Hashtbl.mem flive) (Ir.fdefs insn)
    in
    if needed then begin
      List.iter (fun v -> Hashtbl.replace live v ()) (Ir.uses insn);
      List.iter (fun v -> Hashtbl.replace flive v ()) (Ir.fuses insn)
    end
    else keep.(i) <- false
  done;
  (* Compact, remapping branch targets. *)
  let new_index = Array.make (n + 1) 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    new_index.(i) <- !count;
    if keep.(i) then incr count
  done;
  new_index.(n) <- !count;
  let out = Array.make !count body.(n - 1) in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      out.(!j) <-
        (match body.(i) with
        | Ir.Ibr (c, a, b, t) -> Ir.Ibr (c, a, b, new_index.(t))
        | insn -> insn);
      incr j
    end
  done;
  { r with body = out }

(* Failure injection: a "bug in the CSE pass" that silently drops the first
   store of a superblock.  Only active when the pass itself is enabled, so
   the debug toolchain's pass bisection can finger it. *)
let inject_fault (cfg : Config.t) (r : Regionir.t) =
  match cfg.inject_fault with
  | Opt_drop_store when cfg.opt_cse && r.mode = `Super ->
    let first_store = ref (-1) in
    Array.iteri
      (fun i insn ->
        match insn with
        | Ir.Istore _ when !first_store < 0 -> first_store := i
        | _ -> ())
      r.body;
    if !first_store < 0 then r
    else begin
      let body = Array.copy r.body in
      (match body.(!first_store) with
      | Ir.Istore (_, v, _, _) -> body.(!first_store) <- Ir.Iassert (Beq, v, v)
      | _ -> ());
      { r with body }
    end
  | No_fault | Sched_break_dep | Opt_drop_store -> r

let run cfg r =
  let r = forward cfg r in
  let r = if cfg.Config.opt_dce then dce r else r in
  let r = inject_fault cfg r in
  Regionir.check_forward_only r;
  r
