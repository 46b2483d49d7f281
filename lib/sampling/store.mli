(** A content-addressed checkpoint store.

    Work units (version 2) no longer embed their starting snapshot; they
    carry the {e digest} of its encoded bytes and every executing party —
    an in-process backend, the dispatcher, a worker daemon — resolves the
    digest through a store.  A sweep of W windows sharing one checkpoint
    therefore holds (and ships) the snapshot bytes once, not W times.

    The store itself is format-agnostic: it maps [digest bytes] to
    [bytes].  An optional directory persists entries across daemon
    restarts ([darco worker --store DIR]); entries read back from disk are
    re-verified against their digest and refused ({!Buf.Corrupt}) on
    mismatch, inheriting the snapshot container's corruption discipline.

    Every operation is domain-safe: the table is guarded by a per-store
    mutex (I/O happens outside it), so a domain pool may put/get/spill
    concurrently, every domain reading each resident image by
    reference. *)

type t

val digest : string -> string
(** Content address of a byte string: 32 lowercase hex characters
    (MD5 via [Digest]).  Stable across processes and machines. *)

val is_digest : string -> bool
(** Shape check used by frame decoders: 32 chars, [0-9a-f]. *)

val digest_codec : string Buf.t
(** A digest as frames carry it: a {!Buf.str} refused unless {!is_digest}. *)

val create : ?bus:Darco_obs.Bus.t -> ?dir:string -> ?max_bytes:int -> unit -> t
(** An empty store.  With [dir], entries are also written to (and looked
    up in) [dir/<digest>.dsnp]; the directory is created if missing.

    [max_bytes] puts a byte budget on the spill directory (it has no
    effect without [dir]): after every add, least-recently-used unpinned
    entries are evicted — file and in-memory image both — until the
    directory fits, each eviction emitting [Store_evict] on [bus].  The
    entry just added is never the victim, and when only pinned entries
    remain the store runs over budget rather than dropping them.  A
    cold read of an evicted digest is a plain miss ([find] returns
    [None]).  Pre-existing spill files are picked up (oldest mtime =
    least recent) so the budget holds across restarts. *)

val pin : t -> string -> unit
(** Exempt the digest from LRU eviction (e.g. while units referencing it
    are in flight).  Pins nest: each [pin] needs one {!unpin}.  Pinning
    a digest not yet in the store sticks — it protects the entry from
    the moment it is added. *)

val unpin : t -> string -> unit

val spilled_bytes : t -> int
(** Bytes currently accounted to the spill directory (0 without [dir]). *)

val add : t -> string -> string
(** [add t bytes] stores [bytes] under its digest and returns the digest.
    Idempotent; re-adding existing content costs one hash. *)

val find : t -> string -> string option
(** Look the digest up in memory, then on disk.  Raises {!Buf.Corrupt} if
    a disk entry's content does not hash back to its name. *)

val mem : t -> string -> bool
val count : t -> int
(** Distinct checkpoints currently resident in memory. *)
