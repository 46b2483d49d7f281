(** Execution statistics of one co-designed run: everything needed to
    regenerate the paper's Figures 4-7 plus startup and speculation
    counters.

    This module is the in-memory aggregate view of the observability
    layer: the core mutates an instance directly on its hot paths, and
    the test suite's fold ([test/agg.ml]) rebuilds an identical instance
    purely from the {!Event.t} stream published on a {!Bus.t}. *)

(** The seven TOL-overhead categories of Figure 7. *)
type overhead =
  | Ov_interp        (** interpretation of guest code *)
  | Ov_bb_translate
  | Ov_sb_translate
  | Ov_prologue
  | Ov_chaining
  | Ov_cc_lookup
  | Ov_other

val overhead_index : overhead -> int
(** Position of the category in the [overhead] array (0..6). *)

val all_overheads : overhead list
(** The categories, in {!overhead_index} order. *)

val overhead_name : overhead -> string
(** Stable machine-readable category name (used by the JSON exports). *)

type t = {
  (* guest dynamic instruction distribution (Figure 4) *)
  mutable guest_im : int;
  mutable guest_bbm : int;
  mutable guest_sbm : int;
  (* host application stream, split by producing mode (Figure 5) *)
  mutable host_app_bbm : int;
  mutable host_app_sbm : int;
  (* TOL overhead, by category (Figures 6 and 7) *)
  overhead : int array;
  (* events *)
  mutable bb_translations : int;
  mutable sb_translations : int;
  mutable sb_rebuilds_noassert : int;
  mutable sb_rebuilds_nomem : int;
  mutable assert_rollbacks : int;
  mutable alias_rollbacks : int;
  mutable page_requests : int;
  mutable syscalls : int;
  mutable chains_made : int;
  mutable chains_followed : int;
  mutable ibtc_fills : int;
  mutable ibtc_misses : int;
  mutable code_cache_flushes : int;
  mutable wasted_host : int;
  mutable validations : int;
  (* startup: guest insns retired before the first SBM execution *)
  mutable startup_insns : int option;
  mutable unrolled_superblocks : int;
}

val create : unit -> t
val charge : t -> overhead -> int -> unit
val overhead_of : t -> overhead -> int
val total_overhead : t -> int
val guest_total : t -> int
val host_app_total : t -> int
val host_total : t -> int
(** Application stream + TOL overhead: the full host dynamic stream of
    Figure 6. *)

val note_sbm_start : t -> unit
(** Record the startup delay the first time SBM code retires. *)

val mode_fractions : t -> float * float * float
(** (IM, BBM, SBM) shares of the guest dynamic stream. *)

val emulation_cost_sbm : t -> float
(** Host instructions per guest instruction in SBM (Figure 5). *)

val overhead_fraction : t -> float
(** TOL share of the host dynamic stream (Figure 6). *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds every counter of [src] into [into] — the
    combine half of the per-domain accumulate/merge pattern: give each
    domain a private [t], fold its events there without synchronization,
    then merge the private instances into one aggregate afterwards.
    Commutative and associative in [src] for every additive counter;
    [startup_insns] (a "first time anywhere" mark) takes the earliest of
    the two.  [src] is left untouched. *)

val equal : t -> t -> bool
(** Field-by-field equality of every counter. *)

val pp_summary : Format.formatter -> t -> unit
