open Darco_guest

(* The gated store buffer is an open-addressing table keyed by aligned word
   index ([addr asr 2]).  A slot holds the word's pending bytes and a 4-bit
   mask of which of them are pending; it is live only while its stamp
   equals [gen], so emptying the buffer is one increment.  [order] lists
   the live slots in first-store order, which is the order [commit] writes
   them.  The alias table is a pair of growable arrays of (address, length)
   ranges.  Nothing here allocates once the arrays have grown to the
   largest region's working set. *)
type spec = {
  mutable bits : int;  (* log2 of the slot count *)
  mutable words : int array;
  mutable stamp : int array;
  mutable bytes : int array;  (* pending bytes, little-endian *)
  mutable mask : int array;  (* bit i set: byte i of the word is pending *)
  mutable order : int array;
  mutable used : int;
  mutable gen : int;
  mutable al_addr : int array;
  mutable al_len : int array;
  mutable al_used : int;
}

type t = {
  r : int array;
  f : float array;
  mem : Memory.t;
  spec : spec;
  mutable ckpt_r : int array;
  mutable ckpt_f : float array;
}

exception Alias_violation

let spec_create () =
  let bits = 4 in
  {
    bits;
    words = Array.make (1 lsl bits) 0;
    stamp = Array.make (1 lsl bits) 0;
    bytes = Array.make (1 lsl bits) 0;
    mask = Array.make (1 lsl bits) 0;
    order = Array.make (1 lsl (bits - 1)) 0;
    used = 0;
    gen = 1;
    al_addr = Array.make 16 0;
    al_len = Array.make 16 0;
    al_used = 0;
  }

let create mem =
  {
    r = Array.make 64 0;
    f = Array.make 32 0.0;
    mem;
    spec = spec_create ();
    ckpt_r = Array.make 64 0;
    ckpt_f = Array.make 32 0.0;
  }

let get t r = if r = 0 then 0 else t.r.(r)
let set t r v = if r <> 0 then t.r.(r) <- Semantics.mask32 v

(* --- store buffer ---------------------------------------------------------- *)

(* Fibonacci hashing: strided word indices still spread over the table. *)
let[@inline] home sp w = (w * 0x278DDE6E5FD29F05) lsr (63 - sp.bits)

(* The live slot for word [w], or the free slot where it would go. *)
let rec probe sp w i =
  if Array.unsafe_get sp.stamp i <> sp.gen || Array.unsafe_get sp.words i = w then i
  else probe sp w ((i + 1) land ((1 lsl sp.bits) - 1))

(* The live slot for word [w], or -1. *)
let[@inline] find sp w =
  let i = probe sp w (home sp w) in
  if Array.unsafe_get sp.stamp i = sp.gen then i else -1

let clear sp =
  sp.gen <- sp.gen + 1;
  sp.used <- 0;
  sp.al_used <- 0

(* Double the table, re-inserting the live slots in first-store order. *)
let grow sp =
  let words = sp.words and bytes = sp.bytes and mask = sp.mask and order = sp.order in
  let n = 1 lsl (sp.bits + 1) in
  sp.bits <- sp.bits + 1;
  sp.words <- Array.make n 0;
  sp.stamp <- Array.make n 0;
  sp.bytes <- Array.make n 0;
  sp.mask <- Array.make n 0;
  sp.order <- Array.make (n / 2) 0;
  for k = 0 to sp.used - 1 do
    let o = order.(k) in
    let i = probe sp words.(o) (home sp words.(o)) in
    sp.words.(i) <- words.(o);
    sp.stamp.(i) <- sp.gen;
    sp.bytes.(i) <- bytes.(o);
    sp.mask.(i) <- mask.(o);
    sp.order.(k) <- i
  done

(* [byte_bits.(m)]: the bit mask covering the bytes whose bits are set in
   the 4-bit byte mask [m]. *)
let byte_bits =
  Array.init 16 (fun m ->
      let b = ref 0 in
      for i = 0 to 3 do
        if m land (1 lsl i) <> 0 then b := !b lor (0xFF lsl (8 * i))
      done;
      !b)

(* Merge bytes [v] (already shifted into place) under byte mask [m] into
   word [w]'s slot, claiming one if the word has nothing pending. *)
let put_word sp w m v =
  let i = probe sp w (home sp w) in
  let i =
    if sp.stamp.(i) = sp.gen then i
    else begin
      if 2 * (sp.used + 1) > 1 lsl sp.bits then grow sp;
      let i = probe sp w (home sp w) in
      sp.words.(i) <- w;
      sp.stamp.(i) <- sp.gen;
      sp.bytes.(i) <- 0;
      sp.mask.(i) <- 0;
      sp.order.(sp.used) <- i;
      sp.used <- sp.used + 1;
      i
    end
  in
  let bb = byte_bits.(m) in
  sp.bytes.(i) <- sp.bytes.(i) land lnot bb lor (v land bb);
  sp.mask.(i) <- sp.mask.(i) lor m

(* --- alias table ----------------------------------------------------------- *)

let note_alias sp addr len =
  if sp.al_used = Array.length sp.al_addr then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    sp.al_addr <- grow sp.al_addr;
    sp.al_len <- grow sp.al_len
  end;
  sp.al_addr.(sp.al_used) <- addr;
  sp.al_len.(sp.al_used) <- len;
  sp.al_used <- sp.al_used + 1

let check_alias sp addr len =
  for k = 0 to sp.al_used - 1 do
    let a = Array.unsafe_get sp.al_addr k in
    if a < addr + len && addr < a + Array.unsafe_get sp.al_len k then raise Alias_violation
  done

(* --- speculation --------------------------------------------------------- *)

(* Register copies are loops: [Array.blit] into a major-heap [int array]
   pays a write barrier per element. *)
let checkpoint t =
  let r = t.r and cr = t.ckpt_r in
  for i = 0 to 63 do
    cr.(i) <- r.(i)
  done;
  let f = t.f and cf = t.ckpt_f in
  for i = 0 to 31 do
    cf.(i) <- f.(i)
  done;
  clear t.spec

let rollback t =
  let r = t.r and cr = t.ckpt_r in
  for i = 0 to 63 do
    r.(i) <- cr.(i)
  done;
  let f = t.f and cf = t.ckpt_f in
  for i = 0 to 31 do
    f.(i) <- cf.(i)
  done;
  clear t.spec

let commit t =
  let sp = t.spec in
  if sp.used <> 0 then begin
    (* Probe first: a page fault must leave memory untouched.  One byte
       per word is enough (a word never straddles a page), and
       consecutive words on one page are probed once. *)
    let last = ref (-1) in
    for k = 0 to sp.used - 1 do
      let addr = sp.words.(sp.order.(k)) lsl 2 in
      let page = Memory.page_index addr in
      if page <> !last then begin
        ignore (Memory.read8 t.mem addr);
        last := page
      end
    done;
    for k = 0 to sp.used - 1 do
      let i = sp.order.(k) in
      let addr = sp.words.(i) lsl 2 and m = sp.mask.(i) and v = sp.bytes.(i) in
      if m = 0xF then Memory.write32 t.mem addr v
      else
        for b = 0 to 3 do
          if m land (1 lsl b) <> 0 then Memory.write8 t.mem (addr + b) (v lsr (8 * b))
        done
    done
  end;
  clear t.spec

(* --- loads and stores ------------------------------------------------------ *)

let load_byte t addr =
  let sp = t.spec in
  let i = find sp (addr asr 2) in
  let b = addr land 3 in
  if i >= 0 && sp.mask.(i) land (1 lsl b) <> 0 then (sp.bytes.(i) lsr (8 * b)) land 0xFF
  else Memory.read8 t.mem addr

(* A load that fits in one word looks the word up once: nothing pending
   goes to memory, all of it pending comes from the buffer, and a mix
   overlays the pending bytes on one memory read (of the same page the
   missing bytes live on).  A load spanning two words goes a byte at a
   time in the byte-level buffer's expression, so its fault order (the
   higher page first, see [Memory.read]) is unchanged. *)
let forward t (w : Isa.width) addr =
  let len = Isa.width_bytes w and off = addr land 3 in
  if off + len <= 4 then begin
    let sp = t.spec in
    let i = find sp (addr asr 2) in
    if i < 0 then Memory.read t.mem w addr
    else begin
      let want = ((1 lsl len) - 1) lsl off in
      let have = sp.mask.(i) land want in
      if have = 0 then Memory.read t.mem w addr
      else begin
        let pending = sp.bytes.(i) lsr (8 * off) in
        if have = want then pending land byte_bits.(want lsr off)
        else begin
          let keep = byte_bits.(have lsr off) in
          Memory.read t.mem w addr land lnot keep lor (pending land keep)
        end
      end
    end
  end
  else
    match w with
    | W16 -> load_byte t addr lor (load_byte t (addr + 1) lsl 8)
    | W8 | W32 ->
      load_byte t addr
      lor (load_byte t (addr + 1) lsl 8)
      lor (load_byte t (addr + 2) lsl 16)
      lor (load_byte t (addr + 3) lsl 24)

(* With no stores in flight there is nothing to forward, so the load goes
   straight to memory in one access. *)
let[@inline] raw_load t w addr =
  if t.spec.used = 0 then Memory.read t.mem w addr else forward t w addr

let load t w ~signed addr =
  let v = raw_load t w addr in
  if signed then Semantics.sign_extend w v else v

let load_spec t w ~signed addr =
  let v = load t w ~signed addr in
  note_alias t.spec addr (Isa.width_bytes w);
  v

let store t (w : Isa.width) addr v =
  let sp = t.spec in
  let len = Isa.width_bytes w in
  check_alias sp addr len;
  let off = addr land 3 in
  if off + len <= 4 then put_word sp (addr asr 2) (((1 lsl len) - 1) lsl off) (v lsl (8 * off))
  else begin
    let first = 4 - off in
    put_word sp (addr asr 2) (((1 lsl first) - 1) lsl off) (v lsl (8 * off));
    put_word sp ((addr asr 2) + 1) ((1 lsl (len - first)) - 1) (v lsr (8 * first))
  end

let load_f64 t fd addr =
  let lo = raw_load t W32 addr in
  let hi = raw_load t W32 (addr + 4) in
  t.f.(fd) <-
    Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let store_f64 t addr fv =
  let bits = Int64.bits_of_float t.f.(fv) in
  store t W32 addr (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  store t W32 (addr + 4) (Int64.to_int (Int64.shift_right_logical bits 32))

(* --- byte view (snapshots) --------------------------------------------- *)

let pending_bytes t =
  let sp = t.spec and acc = ref [] in
  for k = 0 to sp.used - 1 do
    let i = sp.order.(k) in
    for b = 0 to 3 do
      if sp.mask.(i) land (1 lsl b) <> 0 then
        acc := ((sp.words.(i) lsl 2) + b, (sp.bytes.(i) lsr (8 * b)) land 0xFF) :: !acc
    done
  done;
  List.sort compare !acc

let in_flight_stores t = List.length (pending_bytes t)

let alias_ranges t =
  let sp = t.spec and acc = ref [] in
  for k = 0 to sp.al_used - 1 do
    acc := (sp.al_addr.(k), sp.al_len.(k)) :: !acc
  done;
  !acc

let restore mem ~r ~f ~pending ~aliases ~ckpt_r ~ckpt_f =
  let spec = spec_create () in
  List.iter
    (fun (addr, v) ->
      let b = addr land 3 in
      put_word spec (addr asr 2) (1 lsl b) (v lsl (8 * b)))
    pending;
  List.iter (fun (addr, len) -> note_alias spec addr len) (List.rev aliases);
  { r; f; mem; spec; ckpt_r; ckpt_f }

(* --- guest state mapping ----------------------------------------------- *)

let copy_guest_in t (cpu : Cpu.t) =
  for i = 0 to 7 do
    let gr = Isa.reg_of_index i in
    set t (Regs.guest gr) (Cpu.get cpu gr)
  done;
  set t Regs.flags cpu.flags;
  for i = 0 to 7 do
    let gf = Isa.freg_of_index i in
    t.f.(Regs.guest_f gf) <- cpu.fregs.(Isa.freg_index gf)
  done

let copy_guest_out t (cpu : Cpu.t) =
  for i = 0 to 7 do
    let gr = Isa.reg_of_index i in
    Cpu.set cpu gr (get t (Regs.guest gr))
  done;
  cpu.flags <- get t Regs.flags land Flags.mask;
  for i = 0 to 7 do
    let gf = Isa.freg_of_index i in
    cpu.fregs.(Isa.freg_index gf) <- t.f.(Regs.guest_f gf)
  done
