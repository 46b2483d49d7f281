open Darco_guest

(** Versioned, checksummed snapshots of the complete co-designed state.

    A snapshot serializes everything needed to continue a run bit-identically:
    the authoritative x86 component (guest CPU, memory image, OS-layer state),
    the co-designed component's software state (TOL configuration, profiler
    counters, code-cache contents including chain links, speculation
    bookkeeping, statistics), and optionally the microarchitectural state of a
    timing pipeline (cache/TLB/predictor/prefetcher contents).

    The binary format is sectioned: a fixed header (magic, version, kind)
    followed by tagged sections, each one {!Buf} frame with its own length
    and CRC-32.  The kind names exactly which sections follow.  A corrupted
    or truncated file raises {!Buf.Corrupt} — never a crash.

    Two kinds exist, mirroring the two uses in sampling-based simulation:
    - [Functional] captures only the x86 component.  Cheap, used for the
      fast-forward checkpoints of the sampling driver; restoring one
      initializes a {e cold} co-designed component ({!restore} behaves like
      [Controller.of_reference]).
    - [Full] additionally captures the co-designed component (and optionally
      timing state), so {!restore} continues the exact run: same retired
      instruction stream, same final statistics. *)

type kind = Functional | Full

type t

val version : int
(** Current format version; {!of_string} rejects other versions. *)

val capture : ?pipeline:Darco_timing.Pipeline.t -> Darco.Controller.t -> t
(** Capture a [Full] snapshot.  Call only at a synchronization boundary
    (before [Controller.run], or after it returned) — mid-slice speculative
    state is not captured.  The snapshot owns its encoded state: continuing
    the run afterwards does not disturb it. *)

val capture_reference : Interp_ref.t -> t
(** Capture a [Functional] snapshot of the x86 component alone. *)

val kind : t -> kind
val retired : t -> int
(** Retired guest instructions at capture time. *)

val guest_eip : t -> int
(** Guest program counter at capture time, decoded from the snapshot's
    guest-section prefix without materializing memory.  Cheap enough to
    call per checkpoint: the adaptive-sampling planner uses it as the
    phase marker of the region a checkpoint sits in (the same guest-PC
    keying {!Darco_obs.Prof} uses for hot regions). *)

(** {1 Encoding} *)

val to_string : t -> string
val of_string : string -> t
(** Raises {!Buf.Corrupt} on bad magic, version, checksum or framing, and
    on a section list other than the one its kind names. *)

val check_header : string -> unit
(** Accept an encoding's magic and version, its first five bytes, as
    {!of_string} would, reading no section.  Raises {!Buf.Corrupt}
    otherwise.  A cheap test that bytes are a snapshot this build reads,
    for a party that only passes them on by digest. *)

val write_file : string -> t -> unit
val read_file : string -> t
(** Raises {!Buf.Corrupt} (also on I/O errors reading the file). *)

(** {1 Restoring} *)

val restore_reference : t -> Interp_ref.t
(** Rebuild the x86 component; works for both kinds. *)

val restore : ?bus:Darco_obs.Bus.t -> t -> Darco.Controller.t
(** Rebuild a controller.  For a [Full] snapshot the co-designed component
    resumes exactly where it was captured; for a [Functional] one it is
    initialized cold from the reference state ([Controller.of_reference]).
    The bus is not part of a snapshot — attach sinks to [bus] before
    calling. *)

val restore_pipeline : t -> Darco_timing.Pipeline.t option
(** The warmed timing pipeline, when one was captured. *)

(** {1 Field codecs}

    Pieces the sections are built from, exposed so tests can apply the
    codec laws to generated values. *)

val insn : Darco_host.Code.insn Buf.t
val region : Darco_host.Code.region Buf.t
(** Chain links decode to placeholder regions; only a whole [CODE]
    section resolves them. *)

val tconfig : Darco_timing.Tconfig.t Buf.t
val stats : Darco_obs.Stats.t Buf.t

(** {1 Introspection} *)

val manifest : t -> Darco_obs.Jsonx.t
(** Kind, version, retired count and per-section sizes/checksums. *)

val memory_hash : Memory.t -> string
(** Hex digest of the materialized memory image (test/verification aid). *)
