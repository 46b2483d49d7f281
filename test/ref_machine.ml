(* The byte-level gated store buffer and alias list that [Machine]'s
   word-keyed table replaced, kept verbatim as the oracle for the
   differential in test_host: a [Hashtbl] from byte address to the latest
   pending byte, and a list of speculative-load ranges.  Both execution
   engines share [Machine], so a bug in its buffer would hide from every
   engine differential; this model is the independent check.  The guest
   register mapping is left out: only the buffer, the alias table and the
   register checkpoint are modelled. *)

open Darco_guest

type t = {
  r : int array;
  f : float array;
  mem : Memory.t;
  sbuf : (int, int) Hashtbl.t;          (* byte address -> latest byte value *)
  mutable aliases : (int * int) list;   (* (addr, len) of speculative loads *)
  mutable ckpt_r : int array;
  mutable ckpt_f : float array;
}

exception Alias_violation

let create mem =
  {
    r = Array.make 64 0;
    f = Array.make 32 0.0;
    mem;
    (* Commits drain the buffer every region, so it stays small; a small
       bucket array keeps the per-commit iteration and reset cheap. *)
    sbuf = Hashtbl.create 16;
    aliases = [];
    ckpt_r = Array.make 64 0;
    ckpt_f = Array.make 32 0.0;
  }

let get t r = if r = 0 then 0 else t.r.(r)
let set t r v = if r <> 0 then t.r.(r) <- Semantics.mask32 v

let checkpoint t =
  Array.blit t.r 0 t.ckpt_r 0 64;
  Array.blit t.f 0 t.ckpt_f 0 32;
  Hashtbl.reset t.sbuf;
  t.aliases <- []

let rollback t =
  Array.blit t.ckpt_r 0 t.r 0 64;
  Array.blit t.ckpt_f 0 t.f 0 32;
  Hashtbl.reset t.sbuf;
  t.aliases <- []

let commit t =
  if Hashtbl.length t.sbuf <> 0 then begin
    (* Probe first: a page fault must leave memory untouched.  Committed
       stores span a handful of pages at most, so a small list beats a
       hash table for the probe set. *)
    let probed = ref [] in
    Hashtbl.iter
      (fun addr _ ->
        let p = Memory.page_index addr in
        if not (List.mem p !probed) then begin
          ignore (Memory.read8 t.mem addr);
          probed := p :: !probed
        end)
      t.sbuf;
    Hashtbl.iter (fun addr v -> Memory.write8 t.mem addr v) t.sbuf;
    Hashtbl.reset t.sbuf
  end;
  t.aliases <- []

let in_flight_stores t = Hashtbl.length t.sbuf

let load_byte t addr =
  match Hashtbl.find_opt t.sbuf addr with
  | Some v -> v
  | None -> Memory.read8 t.mem addr

let raw_load t (w : Isa.width) addr =
  (* With no stores in flight there is nothing to forward, so the load can
     go straight to memory in one access. *)
  if Hashtbl.length t.sbuf = 0 then Memory.read t.mem w addr
  else
    match w with
    | W8 -> load_byte t addr
    | W16 -> load_byte t addr lor (load_byte t (addr + 1) lsl 8)
    | W32 ->
      load_byte t addr
      lor (load_byte t (addr + 1) lsl 8)
      lor (load_byte t (addr + 2) lsl 16)
      lor (load_byte t (addr + 3) lsl 24)

let load t w ~signed addr =
  let v = raw_load t w addr in
  if signed then Semantics.sign_extend w v else v

let load_spec t w ~signed addr =
  let v = load t w ~signed addr in
  t.aliases <- (addr, Isa.width_bytes w) :: t.aliases;
  v

let overlaps a la b lb = a < b + lb && b < a + la

let store t (w : Isa.width) addr v =
  let len = Isa.width_bytes w in
  if List.exists (fun (a, l) -> overlaps a l addr len) t.aliases then
    raise Alias_violation;
  for i = 0 to len - 1 do
    Hashtbl.replace t.sbuf (addr + i) ((v lsr (8 * i)) land 0xFF)
  done

let load_f64 t addr =
  let lo = Int64.of_int (raw_load t W32 addr) in
  let hi = Int64.of_int (raw_load t W32 (addr + 4)) in
  Int64.float_of_bits (Int64.logor (Int64.shift_left hi 32) lo)

let store_f64 t addr x =
  let bits = Int64.bits_of_float x in
  store t W32 addr (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  store t W32 (addr + 4) (Int64.to_int (Int64.shift_right_logical bits 32))
