(** The campaign service's crash-safe on-disk artifact library.

    The library persists the two artifact kinds a sweep produces, both
    content-addressed so sharing across campaigns and across server
    restarts is a lookup, never a guess:

    - {b window results}: the JSON text of one finished measurement
      window, keyed by (benchmark, config digest, snapshot digest,
      offset, window, warmup) — see {!key}.  A resubmitted sweep finds
      every window here and dispatches nothing; the stored text is
      returned verbatim, so the reassembled sweep document is
      byte-identical to the first run's.
    - {b checkpoint sets}: the functional snapshots of one fast-forward,
      as an index file mapping instruction counts to digests in the
      embedded checkpoint {!Darco_sampling.Store}.  A new campaign whose
      {!Campaign.ckpt_digest} matches restores these instead of
      re-running the functional fast-forward.

    Files are written whole to a temporary name and renamed into place;
    each is one {!Darco_sampling.Buf} frame (magic, length, CRC-32)
    carrying a content digest — so a torn write, bit flip or mismatched
    key on a cold read surfaces as {!Darco_sampling.Buf.Corrupt} (or a
    clean miss), never as a wrong result. *)

type t

(** The identity of one window result.  [snap] is the digest of the
    encoded snapshot the window starts from ({!Darco_sampling.Store.digest}),
    [cfg] is {!Campaign.config_digest} — together with the offset they
    pin the window's bytes completely. *)
type key = {
  bench : string;
  cfg : string;
  snap : string;
  offset : int;
  window : int;
  warmup : int;
}

val render : key -> string
(** Human form used in bus events and client frames:
    ["bench@offset/snap-prefix"]. *)

val key_id : key -> string
(** The key's content address (also the artifact's file name stem);
    what the server's in-flight table is keyed by. *)

val create :
  ?bus:Darco_obs.Bus.t -> ?max_bytes:int -> dir:string -> unit -> t
(** Open (creating if missing) the library rooted at [dir].  Window
    artifacts and checkpoint indexes live directly under [dir]; the
    checkpoint bytes live in an embedded store spilling to [dir/ckpt],
    with [max_bytes] as its LRU byte budget (evictions emit
    [Store_evict] on [bus]).  A checkpoint set whose snapshots were
    evicted is treated as absent — the next campaign fast-forwards and
    re-stores it. *)

val store : t -> Darco_sampling.Store.t
(** The embedded checkpoint store (for backends and pinning). *)

val find_window : t -> key -> string option
(** The stored JSON text for the key, or [None].  Cold reads re-verify
    framing, CRC, the embedded key and the content digest; corruption
    raises {!Darco_sampling.Buf.Corrupt}. *)

val put_window : t -> key -> string -> unit
(** Persist one window's JSON text (write-then-rename; idempotent). *)

val find_checkpoints :
  t -> bench:string -> ckpt:string -> (int * string) list option
(** The checkpoint set stored under {!Campaign.ckpt_digest} [ckpt]: its
    index's [(at, store digest)] pairs in ascending [at] order, each
    confirmed to resolve in {!store} (a cold entry is read back and
    re-verified against its digest).  A checkpoint's digest is its
    identity: the service builds work units and window keys from these
    pairs without decoding a snapshot.  [None] when the index is absent
    or any referenced snapshot has been evicted from the store. *)

val put_checkpoints :
  t -> bench:string -> ckpt:string -> (int * string) list -> unit
(** Persist a checkpoint index of [(at, store digest)] pairs.  The
    snapshot bytes themselves must already be in {!store}. *)
