(** A campaign: one sweep specification, as submitted to [darco serve].

    The record carries everything a sweep needs — which benchmark, the
    deterministic input, the checkpointing parameters and the measurement
    windows — so a server can reproduce the sweep bit-for-bit with no
    other context.  The binary encoding ([DCAM]: magic, version, fields)
    rides inside the wire protocol's [Submit] frame, whose CRC covers it;
    a malformed spec surfaces as {!Darco_sampling.Buf.Corrupt}, never as
    a crash or a silently different sweep.  A campaign without a confidence target encodes as
    version 1 — byte-identical to every pre-planner frame — and one with
    [ci_target] as version 2, which appends the target after the
    version-1 fields. *)

type t = {
  bench : string;  (** registry name (resolved via {!Darco_workloads.Registry.find}) *)
  scale : int;  (** hot-phase iteration multiplier *)
  seed : int;  (** deterministic input seed *)
  input : string option;  (** bytes fed to the guest's standard input *)
  interval : int;  (** guest instructions between functional checkpoints *)
  horizon : int;  (** span of guest execution covered by checkpoints *)
  offsets : int list;  (** measurement window start offsets *)
  window : int;  (** detailed window length *)
  warmup : int;  (** detailed warm-up before each window *)
  ci_target : float option;
      (** adaptive early exit: stop admitting rounds once the IPC CI95
          half-width is within this fraction of the mean.  [None] (the
          only spelling version-1 frames can express) sweeps every
          offset.  Must be positive when present. *)
}

val normalize : t -> t
(** Sort and deduplicate [offsets] and stretch [horizon] to cover the
    last window.  This is the one normalization of a sweep: [darco
    sample], [submit] and [fetch] build their sweep from the same flags
    through it, so a spec and the equivalent command line describe the
    same sweep.  Digests below are only meaningful on normalized specs;
    the server normalizes every submission on admission. *)

val to_string : t -> string

val of_string : string -> t
(** Raises {!Darco_sampling.Buf.Corrupt} on bad magic, version, framing
    or trailing bytes. *)

val config_digest : t -> string
(** Content address of everything that determines one {e window result}
    besides the starting snapshot and the offset: benchmark, scale, seed,
    input, window, warmup.  Two sweeps agreeing on this digest (and on a
    window's snapshot digest and offset) get byte-identical window JSON —
    whatever their checkpoint interval or horizon — which is what lets
    the artifact library share results across campaigns.  [ci_target] is
    deliberately excluded: an adaptive campaign's windows are a subset of
    the exhaustive campaign's, so both must hit the same library
    entries. *)

val ckpt_digest : t -> string
(** Content address of the checkpoint set the sweep fast-forwards
    through: benchmark, scale, seed, input, interval, horizon.  A
    campaign whose digest matches a library entry restores the stored
    snapshots instead of re-running the functional fast-forward. *)

val describe : t -> string
(** One human line, e.g. ["429.mcf seed 42, 3 windows of 25000"]. *)
