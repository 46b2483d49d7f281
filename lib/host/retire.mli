(** A batch of retired host instructions, as a struct of arrays.

    The region executor ([Threaded.run]) appends one entry per retired host
    application instruction and hands the batch to its consumer (the
    timing simulator) whenever it fills and whenever the executor returns.
    A batch is allocated once per subscription and reused across flushes,
    so retiring an instruction writes four array slots and allocates
    nothing.

    Entry [i < length] holds the instruction's host PC, its static timing
    descriptor (an int this module never interprets: the timing model
    writes it with its [describe] and reads it back), an effective address
    (meaningful only for loads and stores) and a branch word (meaningful
    only for control transfers, see {!branch_word}). *)

type t = {
  pc : int array;
  desc : int array;
  addr : int array;
  branch : int array;
  mutable length : int;  (** entries [0 .. length - 1] are filled *)
}
(** The executor writes entries in place and bumps [length] itself, once,
    after its per-instruction work: an inlined push placed in each
    operation computes the entry before its full-batch test and keeps it
    live across the flush call, measured 3% slower on timed runs. *)

val create : int -> t
(** [create capacity]: an empty batch, four arrays of [capacity] entries.
    Raises [Invalid_argument] unless [capacity >= 1]. *)

val branch_word : taken:bool -> target:int -> int
(** A control transfer's outcome as one int: the target host address
    shifted left by one, the low bit set when taken. *)

val taken : int -> bool
val target : int -> int

type sink = {
  batch : t;
  consume : t -> unit;
      (** called with a batch holding at least one entry; the batch is
          cleared when it returns *)
  describe : Code.insn -> int;
      (** an instruction's descriptor; the executor calls it once per
          instruction of a region, on the region's first run with this
          sink, and keeps the results beside the region's packed form *)
}
(** Where the executor sends what it retires: a bus's retire subscription
    ([Bus.on_retire]). *)

val flush : sink -> unit
(** Hand the pending entries to [consume], then clear the batch (also when
    [consume] raises).  Does nothing when the batch is empty. *)
