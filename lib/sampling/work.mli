(** A self-contained, portable sample work unit.

    One detailed measurement window, packaged so that {e any} process — a
    domain of this one, or a worker daemon on this machine or another — can
    execute it with no shared state beyond a checkpoint {!Store}.  The
    binary encoding is the magic, a version byte, then a {!Buf.sealed}
    payload (length, CRC-32), so a corrupted unit is rejected with
    {!Buf.Corrupt}, never mis-executed.

    Two format versions exist, both decoded forever (the compatibility
    policy of DESIGN.md §9 applies to work frames too):

    - {b version 1} embeds the starting snapshot's encoded bytes in every
      unit ({!Inline}) — self-contained but O(snapshot) on the wire for
      every window;
    - {b version 2} carries only the snapshot's content digest
      ({!Stored}); executing parties resolve it through a {!Store}, so a
      sweep ships each distinct checkpoint once.

    The writer emits the version matching the payload: inline units encode
    as version-1 bytes (bit-compatible with the original writer, pinned by
    the golden fixture), digest units as version 2. *)

type ckpt =
  | Inline of string  (** encoded functional snapshot ({!Snapshot.to_string}) *)
  | Stored of string  (** {!Store.digest} of those bytes *)

type t = {
  label : string;     (** human-readable sample name, e.g. ["429.mcf@70000"] *)
  ckpt : ckpt;        (** the snapshot this window starts from *)
  offset : int;       (** where the measurement window begins *)
  window : int;       (** guest instructions to measure *)
  warmup : int;       (** detailed warm-up instructions before the window *)
}

val version : int
(** Current (newest) work-frame version: 2. *)

val of_window :
  checkpoints:Driver.checkpoint list ->
  label:string ->
  offset:int ->
  window:int ->
  warmup:int ->
  t
(** Package one sample with the snapshot {e embedded} ({!Inline}): pick
    the nearest checkpoint at or before [offset - warmup] and inline its
    encoded bytes.  Executing the unit is then bit-identical to
    [Driver.detailed_window] over the full checkpoint list. *)

val of_window_stored :
  store:Store.t ->
  checkpoints:Driver.checkpoint list ->
  label:string ->
  offset:int ->
  window:int ->
  warmup:int ->
  t
(** Same window selection, but the snapshot bytes go into [store] and the
    unit carries only their digest ({!Stored}).  Results are byte-identical
    to the inline form — the store resolves to the exact same bytes. *)

val checkpoint_for : 'a Driver.index -> offset:int -> warmup:int -> 'a
(** The checkpoint a window starts from: {!Driver.nearest_ix} at its
    warm-up start, [max 0 (offset - warmup)]. *)

val of_window_digest :
  checkpoints:(int * string) Driver.index ->
  label:string ->
  offset:int ->
  window:int ->
  warmup:int ->
  t
(** The {!Stored} unit {!of_window_stored} builds, chosen among
    [(at, store digest)] entries whose bytes a store already holds: no
    snapshot is encoded, hashed or added. *)

val digest : t -> string option
(** The checkpoint digest of a {!Stored} unit; [None] for {!Inline}. *)

val exec : ?store:Store.t -> t -> Darco_obs.Jsonx.t
(** Decode the starting snapshot (the inline payload, or the [store]
    lookup for a digest unit) and run the detailed window
    ([Driver.detailed_window] under default configs), returning
    [Driver.window_json] of the result.  Raises {!Buf.Corrupt} if the
    snapshot bytes are corrupt, [Failure] when a digest unit has no
    store or the store lacks the checkpoint. *)

(** {1 Wire encoding} *)

val to_string : t -> string
val of_string : string -> t
(** Raises {!Buf.Corrupt} on bad magic, version, checksum or framing —
    including a version-2 frame whose digest is not 32 hex characters. *)
