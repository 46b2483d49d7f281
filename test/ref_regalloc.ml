(* Reference register allocator: the list- and [Hashtbl]-based linear scan
   that the array-based [Darco.Regalloc] replaced, kept verbatim in behaviour
   as an oracle.  Its types are [Darco.Regalloc]'s own, so an allocation from
   either compares with [=]; test_tol.ml requires equal results on random
   high-pressure regions and on every region the workloads translate. *)

open Darco
open Darco_host

type loc = Regalloc.loc = Phys of Code.reg | Slot of int

type t = Regalloc.t = { int_loc : loc array; f_loc : loc array; slot_count : int }

type interval = { v : int; start : int; stop : int }

(* Live intervals in array order: def position to last use position. *)
let intervals body ~defs ~uses =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i insn ->
      let note v =
        match Hashtbl.find_opt tbl v with
        | None -> Hashtbl.replace tbl v (i, i)
        | Some (s, _) -> Hashtbl.replace tbl v (s, i)
      in
      List.iter note (defs insn);
      List.iter note (uses insn))
    body;
  Hashtbl.fold (fun v (start, stop) acc -> { v; start; stop } :: acc) tbl []
  |> List.sort (fun a b -> compare (a.start, a.v) (b.start, b.v))

let linear_scan ivs ~pool ~loc_array ~next_slot =
  let free = Queue.create () in
  List.iter (fun r -> Queue.add r free) pool;
  (* active: (stop, v, reg), kept sorted by stop ascending *)
  let active = ref [] in
  let expire start =
    let expired, alive = List.partition (fun (stop, _, _) -> stop < start) !active in
    List.iter (fun (_, _, r) -> Queue.add r free) expired;
    active := alive
  in
  let insert_active entry =
    active := List.sort compare (entry :: !active)
  in
  let spill_slot () =
    let s = !next_slot in
    next_slot := s + 1;
    s
  in
  List.iter
    (fun iv ->
      expire iv.start;
      if Queue.is_empty free then begin
        (* Spill the interval ending furthest away. *)
        match List.rev !active with
        | (vstop, vv, vr) :: _ when vstop > iv.stop ->
          (* victim lives longer: give its register to the current one *)
          loc_array.(vv) <- Slot (spill_slot ());
          active := List.filter (fun (_, v, _) -> v <> vv) !active;
          loc_array.(iv.v) <- Phys vr;
          insert_active (iv.stop, iv.v, vr)
        | _ -> loc_array.(iv.v) <- Slot (spill_slot ())
      end
      else begin
        let r = Queue.pop free in
        loc_array.(iv.v) <- Phys r;
        insert_active (iv.stop, iv.v, r)
      end)
    ivs

let allocate (r : Regionir.t) =
  let body = r.body in
  let max_over f =
    Array.fold_left
      (fun acc insn -> List.fold_left max acc (f insn))
      (-1) body
  in
  let vmax = max (max_over Ir.defs) (max_over Ir.uses) in
  let fmax = max (max_over Ir.fdefs) (max_over Ir.fuses) in
  let int_loc = Array.make (vmax + 1) (Phys Regs.spill_scratch0) in
  let f_loc = Array.make (fmax + 1) (Phys Regs.fscratch0) in
  let next_slot = ref 0 in
  let int_pool =
    List.init (Regs.alloc_last - Regs.alloc_first + 1) (fun i -> Regs.alloc_first + i)
  in
  let f_pool =
    List.init (Regs.falloc_last - Regs.falloc_first + 1) (fun i -> Regs.falloc_first + i)
  in
  linear_scan (intervals body ~defs:Ir.defs ~uses:Ir.uses) ~pool:int_pool
    ~loc_array:int_loc ~next_slot;
  linear_scan (intervals body ~defs:Ir.fdefs ~uses:Ir.fuses) ~pool:f_pool
    ~loc_array:f_loc ~next_slot;
  { int_loc; f_loc; slot_count = !next_slot }

let location t v = t.int_loc.(v)
let flocation t f = t.f_loc.(f)
