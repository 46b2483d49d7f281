(** TOL configuration: promotion thresholds, superblock formation limits,
    feature toggles (the paper's plug-and-play requirement) and the
    host-instruction cost model for TOL's own execution.

    The cost model stands in for the fact that the original TOL is itself
    compiled to the host ISA; every software-layer activity charges a
    calibrated number of host instructions to the matching overhead
    category (see DESIGN.md §1).

    How a translated region executes is not configuration: [Tol] runs every
    region on one executor, with or without a retire subscriber (DESIGN.md
    §13). *)

type costs = {
  interp_per_insn : int;      (** decode+dispatch+execute of one guest insn *)
  interp_profile_bb : int;    (** repetition-counter update at a BB end *)
  bb_translate_base : int;
  bb_translate_per_insn : int;
  sb_translate_base : int;
  sb_translate_per_insn : int;
  prologue : int;             (** TOL <-> code-cache transition housekeeping *)
  cc_lookup : int;            (** code-cache hash lookup per dispatch *)
  chain_attempt : int;        (** patching one exit to a translated target *)
  ibtc_fill : int;            (** installing one IBTC entry after a miss *)
  dispatch_other : int;       (** TOL main-loop bookkeeping per iteration *)
  init_once : int;            (** TOL initialization *)
}

(** Deliberate translation bugs for exercising the debug toolchain
    (failure-injection testing): a miscompiling CSE pass that drops a
    superblock store, or a scheduler that breaks memory dependences without
    speculation protection. *)
type fault = No_fault | Opt_drop_store | Sched_break_dep

type t = {
  (* promotion thresholds *)
  bb_threshold : int;      (** interpretations before a BB is translated *)
  sb_threshold : int;      (** BBM executions before superblock creation *)
  (* superblock formation *)
  sb_max_insns : int;
  sb_max_bbs : int;
  branch_bias : float;     (** edge probability needed to follow a branch *)
  min_reach_prob : float;  (** stop when the path probability drops below *)
  unroll_factor : int;     (** 0 or 1 disables loop unrolling *)
  assert_fail_limit : int; (** rollbacks before rebuilding without asserts *)
  (* optimizations (plug-and-play toggles) *)
  use_asserts : bool;
  use_mem_speculation : bool;
  opt_const_fold : bool;
  opt_copy_prop : bool;
  opt_cse : bool;
  opt_dce : bool;
  opt_rle : bool;          (** redundant-load elim + store forwarding *)
  opt_schedule : bool;
  use_chaining : bool;
  use_ibtc : bool;
  ibtc_bits : int;         (** log2 of IBTC entries *)
  (* execution management *)
  inject_fault : fault;
  slice_fuel : int;        (** guest insns per co-designed run slice *)
  code_cache_capacity : int;  (** host insns before a full flush *)
  costs : costs;
}

val default : t
val quick : t
(** Lower thresholds, for unit tests that want all modes exercised on tiny
    programs. *)
