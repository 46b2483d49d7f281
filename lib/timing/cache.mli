(** Set-associative write-back, write-allocate cache with LRU replacement.
    Levels are linked by a [parent] access function; the innermost parent is
    main memory (fixed latency). *)

type t

type stats = {
  mutable accesses : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable prefetch_fills : int;
}

val create :
  name:string -> Tconfig.cache_geom -> parent:(int -> is_write:bool -> int) -> t
(** Raises [Invalid_argument] when the geometry has no set or no way. *)

val access : t -> int -> is_write:bool -> int
(** [access t addr ~is_write] returns the total latency (own + recursive
    miss latency) and updates contents/stats. *)

val prefetch : t -> int -> unit
(** Fill the line without charging latency or demand-access stats (fills go
    through the parent silently). *)

val contains : t -> int -> bool
val stats : t -> stats
val name : t -> string
val miss_rate : t -> float

type persisted = {
  p_lines : (int * bool * bool * int) array array;
      (** per set, per way: (tag, valid, dirty, lru) *)
  p_tick : int;
  p_accesses : int;
  p_misses : int;
  p_writebacks : int;
  p_prefetch_fills : int;
}
(** Cache contents and statistics as plain data (the microarchitectural
    warm state a snapshot may carry). *)

val persist : t -> persisted

val apply : t -> persisted -> unit
(** Overwrite a freshly-created cache of the same geometry with persisted
    contents.  Raises [Invalid_argument], and changes nothing, when the
    set count or the way count of any set differs. *)
