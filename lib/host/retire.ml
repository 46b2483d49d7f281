type t = {
  pc : int array;
  desc : int array;
  addr : int array;
  branch : int array;
  mutable length : int;
}

let create capacity =
  if capacity < 1 then invalid_arg "Retire.create: capacity must be positive";
  let a () = Array.make capacity 0 in
  { pc = a (); desc = a (); addr = a (); branch = a (); length = 0 }

let[@inline] branch_word ~taken ~target = (target lsl 1) lor Bool.to_int taken
let[@inline] taken w = w land 1 = 1
let[@inline] target w = w asr 1

type sink = {
  batch : t;
  consume : t -> unit;
  describe : Code.insn -> int;
}

(* A batch is handed over at most once, even when [consume] raises. *)
let flush s =
  let b = s.batch in
  if b.length > 0 then
    match s.consume b with
    | () -> b.length <- 0
    | exception e ->
      b.length <- 0;
      raise e
