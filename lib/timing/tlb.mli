(** Fully-associative LRU translation look-aside buffer.  A first-level
    miss probes the shared second-level TLB; a miss there pays the page-walk
    latency. *)

type t

type stats = { mutable accesses : int; mutable misses : int }

val create : Tconfig.tlb_geom -> parent:(int -> int) -> t
(** [parent vpn] returns the extra latency of resolving a miss. *)

val walker : Tconfig.t -> int -> int
(** The terminal page-table walker: constant [tlb_walk_latency]. *)

val access : t -> int -> int
(** [access t addr] returns added translation latency (0 on a hit with zero
    [latency]). *)

val second_level : Tconfig.t -> t
(** Build the shared L2 TLB backed by the page walker. *)

val stats : t -> stats
val miss_rate : t -> float

type persisted = {
  p_entries : (int * bool * int) array;  (** (vpn, valid, lru) per entry *)
  p_tick : int;
  p_accesses : int;
  p_misses : int;
}

val persist : t -> persisted

val apply : t -> persisted -> unit
(** Overwrite a freshly-created TLB of the same size with persisted
    contents.  Raises [Invalid_argument] on a size mismatch, or when two
    valid entries map the same page: {!access} stops at the first match,
    which is exact only because a page has at most one valid entry. *)
