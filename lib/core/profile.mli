(** Execution profiling.

    During interpretation (IM) the TOL keeps software repetition counters
    per basic block; once a block is translated (BBM), profiling moves into
    the generated code itself: an execution counter drives SBM promotion and
    per-exit edge counters record biased branch directions.  Those in-code
    counters live in TOL memory and are updated by real host stores, so
    their cost is part of the measured instruction stream. *)

type t

val create : Tolmem.t -> t

val note_interp : t -> int -> int
(** Count one interpreted execution of the BB at the given PC; returns the
    new count. *)

val interp_count : t -> int -> int

val exec_counter : t -> int -> int
(** TOL-memory address of the BB's execution counter (allocated on first
    request, at translation time). *)

val edge_counters : t -> int -> int * int
(** (taken, fallthrough) counter addresses for the BB's conditional
    terminator. *)

val edge_counts : t -> int -> (int * int) option
(** Current (taken, fallthrough) counts, if the BB has edge counters. *)

val histogram : t -> (int * int) list
(** Per-BB total observed execution counts (interpreted + in-code BBM
    counter), the TOL profiler state the warm-up heuristic correlates. *)

type persisted = {
  p_interp : (int * int) list;       (** pc -> interpreted count *)
  p_exec : (int * int) list;         (** pc -> counter address *)
  p_edges : (int * (int * int)) list;(** pc -> (taken, fall) addresses *)
}
(** Profiler bookkeeping as plain data, sorted by PC (the counter {e
    values} live in TOL memory and travel with the memory image). *)

val persist : t -> persisted

val unpersist : Tolmem.t -> persisted -> t
(** Rebuild over a restored TOL-memory allocator; counter addresses are
    reattached, not reallocated. *)
