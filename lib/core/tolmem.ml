open Darco_guest

type t = { mem : Memory.t; mutable brk : int }

let create mem = { mem; brk = Loader.tol_base }
let brk t = t.brk
let restore mem ~brk = { mem; brk }

let ensure_page t idx =
  if not (Memory.has_page t.mem idx) then
    Memory.install_page t.mem idx (Bytes.make Memory.page_size '\000')

(* Every page of the block is mapped, not just its first and last: a
   middle page left absent would fault on the TOL's first touch and be
   served as a guest data request. *)
let alloc t bytes =
  let addr = t.brk in
  t.brk <- t.brk + ((bytes + 3) land lnot 3);
  for idx = Memory.page_index addr to Memory.page_index (t.brk - 1) do
    ensure_page t idx
  done;
  addr

let read32 t addr = Memory.read32 t.mem addr
let write32 t addr v = Memory.write32 t.mem addr v
