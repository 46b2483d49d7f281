open Darco_host

type loc = Phys of Code.reg | Slot of int

type t = { int_loc : loc array; f_loc : loc array; slot_count : int }

(* Live intervals in array order, indexed by register: [start.(v)] is the
   first IR index that mentions [v] and [stop.(v)] the last, -1 where no
   instruction does; each instruction's defs are noted before its uses.
   [order] lists the [count] mentioned registers by (start, v): by first
   mention, with the registers one instruction mentions first put in
   register order by insertion, which keeps the sort stable. *)
type intervals = { start : int array; stop : int array; order : int array; count : int }

let intervals body ~n ~defs ~uses =
  let start = Array.make n (-1) and stop = Array.make n (-1) in
  let order = Array.make n 0 and count = ref 0 in
  let rec note i = function
    | [] -> ()
    | v :: rest ->
      if start.(v) < 0 then begin
        start.(v) <- i;
        let j = ref !count in
        while !j > 0 && start.(order.(!j - 1)) = i && order.(!j - 1) > v do
          order.(!j) <- order.(!j - 1);
          decr j
        done;
        order.(!j) <- v;
        incr count
      end;
      stop.(v) <- i;
      note i rest
  in
  Array.iteri
    (fun i insn ->
      note i (defs insn);
      note i (uses insn))
    body;
  { start; stop; order; count = !count }

(* Registers [first..last] are the pool.  Free registers wait in a FIFO
   ring; active intervals sit in three parallel arrays sorted by (stop, v),
   at most one per pool register. *)
let linear_scan ivs ~first ~last ~loc_array ~next_slot =
  let pool = last - first + 1 in
  let free = Array.init pool (fun i -> first + i) in
  let free_head = ref 0 and free_n = ref pool in
  let a_stop = Array.make pool 0 and a_v = Array.make pool 0 and a_reg = Array.make pool 0 in
  let active = ref 0 in
  (* Drop the active prefix that ends before [start], freeing its
     registers in active order. *)
  let expire start =
    let k = ref 0 in
    while !k < !active && a_stop.(!k) < start do
      let tail = !free_head + !free_n in
      free.(if tail >= pool then tail - pool else tail) <- a_reg.(!k);
      incr free_n;
      incr k
    done;
    if !k > 0 then begin
      let rest = !active - !k in
      Array.blit a_stop !k a_stop 0 rest;
      Array.blit a_v !k a_v 0 rest;
      Array.blit a_reg !k a_reg 0 rest;
      active := rest
    end
  in
  let insert stop v r =
    let j = ref !active in
    while !j > 0 && (a_stop.(!j - 1) > stop || (a_stop.(!j - 1) = stop && a_v.(!j - 1) > v)) do
      a_stop.(!j) <- a_stop.(!j - 1);
      a_v.(!j) <- a_v.(!j - 1);
      a_reg.(!j) <- a_reg.(!j - 1);
      decr j
    done;
    a_stop.(!j) <- stop;
    a_v.(!j) <- v;
    a_reg.(!j) <- r;
    incr active
  in
  let spill_slot () =
    let s = !next_slot in
    next_slot := s + 1;
    Slot s
  in
  for k = 0 to ivs.count - 1 do
    let v = ivs.order.(k) in
    let stop = ivs.stop.(v) in
    expire ivs.start.(v);
    if !free_n = 0 then begin
      (* Spill the interval ending furthest away. *)
      let l = !active - 1 in
      if l >= 0 && a_stop.(l) > stop then begin
        (* victim lives longer: give its register to the current one *)
        let r = a_reg.(l) in
        loc_array.(a_v.(l)) <- spill_slot ();
        active := l;
        loc_array.(v) <- Phys r;
        insert stop v r
      end
      else loc_array.(v) <- spill_slot ()
    end
    else begin
      let r = free.(!free_head) in
      free_head := (if !free_head + 1 = pool then 0 else !free_head + 1);
      decr free_n;
      loc_array.(v) <- Phys r;
      insert stop v r
    end
  done

let allocate (r : Regionir.t) =
  let body = r.body in
  let max_over f g =
    Array.fold_left
      (fun acc insn -> List.fold_left Int.max (List.fold_left Int.max acc (f insn)) (g insn))
      (-1) body
  in
  let vn = max_over Ir.defs Ir.uses + 1 and fn = max_over Ir.fdefs Ir.fuses + 1 in
  let int_loc = Array.make vn (Phys Regs.spill_scratch0) in
  let f_loc = Array.make fn (Phys Regs.fscratch0) in
  let next_slot = ref 0 in
  linear_scan
    (intervals body ~n:vn ~defs:Ir.defs ~uses:Ir.uses)
    ~first:Regs.alloc_first ~last:Regs.alloc_last ~loc_array:int_loc ~next_slot;
  linear_scan
    (intervals body ~n:fn ~defs:Ir.fdefs ~uses:Ir.fuses)
    ~first:Regs.falloc_first ~last:Regs.falloc_last ~loc_array:f_loc ~next_slot;
  { int_loc; f_loc; slot_count = !next_slot }

let location t v = t.int_loc.(v)
let flocation t f = t.f_loc.(f)
