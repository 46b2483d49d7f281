exception Page_fault of int

let page_size = 4096
let page_bits = 12

(* Pages live in a two-level table: a directory indexed by [idx lsr
   leaf_bits] whose entries are leaves of [leaf_size] page slots.  A lookup
   is two array loads and a comparison against the [absent] sentinel; no
   hashing, no option.  Every directory slot starts on the one shared
   [empty_leaf], and a leaf of its own is allocated on the first install
   beneath it.  The directory spans every page a 32-bit address reaches,
   including page 0x100000 that an access straddling 4 GiB touches; any
   other index (negative, or beyond) goes to a rarely used [overflow]
   table, so every int remains a valid page index. *)
let leaf_bits = 10
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1
let dir_size = (0x100000 lsr leaf_bits) + 1

(* Never written, never returned: physical identity marks an empty slot.
   A literal, so it is allocated statically: [Array.make] of a large array
   forces a minor collection when its initial value is a young block. *)
let absent = Bytes.unsafe_of_string ""
let empty_leaf = Array.make leaf_size absent

type t = {
  dir : bytes array array;
  overflow : (int, bytes) Hashtbl.t;
  policy : [ `Auto_zero | `Fault ];
}

let create policy =
  { dir = Array.make dir_size empty_leaf; overflow = Hashtbl.create 1; policy }

let page_index addr = addr lsr page_bits
let page_base idx = idx lsl page_bits

(* The stored page for [idx], or [absent]. *)
let[@inline] find t idx =
  let d = idx lsr leaf_bits in
  if d < dir_size then
    Array.unsafe_get (Array.unsafe_get t.dir d) (idx land leaf_mask)
  else
    match Hashtbl.find_opt t.overflow idx with Some p -> p | None -> absent

let store t idx p =
  let d = idx lsr leaf_bits in
  if d < dir_size then begin
    let leaf =
      let leaf = t.dir.(d) in
      if leaf != empty_leaf then leaf
      else begin
        let leaf = Array.make leaf_size absent in
        t.dir.(d) <- leaf;
        leaf
      end
    in
    leaf.(idx land leaf_mask) <- p
  end
  else Hashtbl.replace t.overflow idx p

let materialize t idx =
  match t.policy with
  | `Fault -> raise (Page_fault idx)
  | `Auto_zero ->
    let p = Bytes.make page_size '\000' in
    store t idx p;
    p

let[@inline] get_page t idx =
  let p = find t idx in
  if p != absent then p else materialize t idx

let read8 t addr =
  let p = get_page t (page_index addr) in
  Char.code (Bytes.unsafe_get p (addr land (page_size - 1)))

let write8 t addr v =
  let p = get_page t (page_index addr) in
  Bytes.unsafe_set p (addr land (page_size - 1)) (Char.unsafe_chr (v land 0xFF))

(* Multi-byte accesses that stay within one page take a single page lookup;
   page-crossing ones fall back to the byte loop so the fault order is
   unchanged.  ocamlopt evaluates the [lor] operands right to left, so when
   both pages are missing the higher one faults first. *)
let read (t : t) (w : Isa.width) addr =
  match w with
  | W8 -> read8 t addr
  | W16 ->
    let off = addr land (page_size - 1) in
    if off <= page_size - 2 then begin
      let p = get_page t (page_index addr) in
      Char.code (Bytes.unsafe_get p off)
      lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
    end
    else read8 t addr lor (read8 t (addr + 1) lsl 8)
  | W32 ->
    let off = addr land (page_size - 1) in
    if off <= page_size - 4 then begin
      let p = get_page t (page_index addr) in
      Int32.to_int (Bytes.get_int32_le p off) land 0xFFFFFFFF
    end
    else
      read8 t addr
      lor (read8 t (addr + 1) lsl 8)
      lor (read8 t (addr + 2) lsl 16)
      lor (read8 t (addr + 3) lsl 24)

let write (t : t) (w : Isa.width) addr v =
  match w with
  | W8 -> write8 t addr v
  | W16 ->
    let off = addr land (page_size - 1) in
    if off <= page_size - 2 then begin
      let p = get_page t (page_index addr) in
      Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xFF));
      Bytes.unsafe_set p (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))
    end
    else begin
      write8 t addr v;
      write8 t (addr + 1) (v lsr 8)
    end
  | W32 ->
    let off = addr land (page_size - 1) in
    if off <= page_size - 4 then begin
      let p = get_page t (page_index addr) in
      Bytes.set_int32_le p off (Int32.of_int v)
    end
    else begin
      write8 t addr v;
      write8 t (addr + 1) (v lsr 8);
      write8 t (addr + 2) (v lsr 16);
      write8 t (addr + 3) (v lsr 24)
    end

let read32 t addr = read t W32 addr
let write32 t addr v = write t W32 addr v

let read_f64 t addr =
  let lo = Int64.of_int (read32 t addr) in
  let hi = Int64.of_int (read32 t (addr + 4)) in
  Int64.float_of_bits (Int64.logor (Int64.shift_left hi 32) lo)

let write_f64 t addr x =
  let bits = Int64.bits_of_float x in
  write32 t addr (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  write32 t (addr + 4) (Int64.to_int (Int64.shift_right_logical bits 32))

let has_page t idx = find t idx != absent

let install_page t idx data =
  assert (Bytes.length data = page_size);
  store t idx (Bytes.copy data)

(* Directory order is index order; overflow indices lie below it
   (negative) or above it, so sorting just those keeps the whole list
   sorted. *)
let touched_pages t =
  let inside = ref [] in
  for d = dir_size - 1 downto 0 do
    let leaf = t.dir.(d) in
    if leaf != empty_leaf then
      for i = leaf_size - 1 downto 0 do
        if leaf.(i) != absent then inside := ((d lsl leaf_bits) lor i) :: !inside
      done
  done;
  if Hashtbl.length t.overflow = 0 then !inside
  else begin
    let outside = List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) t.overflow []) in
    let below, above = List.partition (fun i -> i < 0) outside in
    below @ !inside @ above
  end

let blit_bytes t addr b =
  for i = 0 to Bytes.length b - 1 do
    write8 t (addr + i) (Char.code (Bytes.get b i))
  done

let zero_page = Bytes.make page_size '\000'

let equal_page a b idx =
  let page m = let p = find m idx in if p != absent then p else zero_page in
  Bytes.equal (page a) (page b)
