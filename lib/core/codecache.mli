open Darco_host

(** The translation code cache: region registry, host code-address
    allocation, chaining management, the IBTC (indirect branch translation
    cache, after Scott et al.) and capacity-triggered full flushes.
    Publishes [Chain_made], [Ibtc_fill] and [Cache_flush] events. *)

type t

val create : ?bus:Darco_obs.Bus.t -> Config.t -> Tolmem.t -> Stats.t -> t

val ibtc_base : t -> int
(** Address of the IBTC table in TOL memory (inline probe sequences use
    it). *)

val insert : t -> Config.t -> Regionir.t -> Code.region
(** Lower the region IR (register allocation + code generation), allocate
    host code space, and register the region.  May trigger a full flush
    first if capacity would be exceeded (the new region always survives). *)

val find : t -> ?prefer_bb:bool -> int -> Code.region option
(** Translation for a guest PC.  Superblocks shadow BB translations unless
    [prefer_bb]. *)

val resolve_base : t -> int -> Code.region option
(** Region whose host base address is the given value (for [Jr]). *)

val compiled : t -> Code.region -> Threaded.compiled
(** The region's packed form, compiled on first request and memoized in an
    array indexed by region id (ids are dense), so a chained transfer costs
    one array load.  The form also keeps the region's timing descriptors
    once it has run with a retire sink.  Dropped on {!invalidate} and
    {!flush}; process state, never persisted: rebuilt (not restored) after
    {!unpersist}. *)

val chain : t -> Code.exit_info -> Code.region -> unit
val invalidate : t -> Code.region -> unit
(** Unlinks every chain into the region and purges its IBTC entries. *)

val ibtc_fill : t -> guest_pc:int -> Code.region -> unit
val flush : t -> unit
val region_count : t -> int
val total_host_insns : t -> int

type persisted = {
  p_regions : Code.region list;
      (** live regions, sorted by id; chain links and incoming lists are
          carried by the regions themselves *)
  p_by_pc : (int * int list) list;
      (** guest PC -> region ids, preserving lookup preference order *)
  p_next_id : int;
  p_next_base : int;
  p_total_insns : int;
  p_ibtc_base : int;
  p_ibtc_entries : int;
}
(** The code-cache registry as plain data, for snapshots.  Deterministic:
    persisting the same cache twice yields equal values. *)

val persist : t -> persisted

val unpersist : ?bus:Darco_obs.Bus.t -> Tolmem.t -> Stats.t -> persisted -> t
(** Rebuild the registry around restored regions.  Unlike {!create} this
    allocates nothing from TOL memory: the IBTC address comes from the
    persisted record (its contents travel with the memory image). *)
