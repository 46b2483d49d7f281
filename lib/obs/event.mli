(** The typed simulation-lifecycle event vocabulary.

    Core simulation events carry, at emission time, the
    retired-guest-instruction clock as their timestamp (the [~at]
    argument of {!Bus.emit}); dispatch-lifecycle and span events carry
    the strictly monotonic wall-clock microsecond stamp of {!Clock}
    instead (see below).  The taxonomy is complete with respect to
    {!Stats.t}: replaying a run's event stream through the test suite's
    fold ([test/agg.ml]) reproduces every counter exactly. *)

type rollback_kind = Rb_assert | Rb_alias
type deopt_kind = De_noassert | De_nomem

(** Why a co-designed execution slice returned to the controller. *)
type stop_reason = St_syscall | St_halt | St_page_fault | St_checkpoint

type validation_kind = V_syscall | V_halt | V_checkpoint | V_explicit

type t =
  | Init of { cost : int }  (** TOL initialization (charged to [Ov_other]) *)
  | Clock_sync of { retired : int }
      (** controller fast-forward: the co-designed clock starts at [retired] *)
  | Slice_start
  | Slice_end of { stop : stop_reason; overheads : (Stats.overhead * int) list }
      (** end of a dispatch slice; [overheads] batches the per-iteration
          dispatch/lookup/prologue/chaining/IBTC charges of the slice *)
  | Interp_block of { pc : int; insns : int; cost : int }
      (** one basic block interpreted in IM *)
  | Interp_step of { pc : int; cost : int }
      (** single-instruction safety-net interpretation (legacy; kept so
          recorded traces keep replaying — see {!Interp_exec}) *)
  | Interp_exec of { pc : int; cost : int }
      (** one dispatch through the [interpret_one] safety net (an
          [Exit_interp] region exit): the interpreter-only analogue of
          {!Region_exec}, so the profiler can count the dispatch as an
          execution rather than losing it *)
  | Bb_translated of { pc : int; guest_len : int; host_len : int; cost : int }
  | Sb_translated of {
      pc : int;
      guest_len : int;
      host_len : int;
      cost : int;
      unrolled : bool;
    }
  | Region_exec of {
      pc : int;
      guest_bb : int;
      guest_sb : int;
      host_bb : int;
      host_sb : int;
      chains_followed : int;
      wasted_host : int;
    }
      (** one host-emulator run entered at the translation of guest [pc]:
          retirement counts by mode *)
  | Chain_made of { pc : int }  (** exit patched to the translation of [pc] *)
  | Ibtc_miss of { pc : int }
  | Ibtc_fill of { pc : int }
  | Rollback of { kind : rollback_kind; pc : int }
  | Deopt_rebuild of { kind : deopt_kind; pc : int }
      (** speculation-failure limit hit: superblock rebuilt less aggressively *)
  | Cache_flush of { regions : int; host_insns : int }
      (** capacity flush; contents at the moment of the flush *)
  | Page_install of { index : int }  (** data request serviced *)
  | Syscall of { eip : int; cost : int }
  | Validation of { kind : validation_kind }
  | Divergence of { details : string list }
  | Halt
  (** Distributed-dispatch lifecycle ([Darco_dispatch]).  These events
      describe the sweep infrastructure, not the simulated machine; there
      is no meaningful retired-instruction clock across machines, so they
      are emitted with [at = Clock.ticks ()] — strictly monotonic
      wall-clock microseconds, preserving real-time order in a merged
      JSONL trace — and touch no {!Stats.t} counter. *)
  | Worker_up of { worker : string }  (** handshake with [worker] succeeded *)
  | Worker_lost of { worker : string; reason : string }
      (** connection refused/closed/timed out; the worker gets no more units *)
  | Dispatch_sent of {
      unit_label : string;
      worker : string;
      attempt : int;
      bytes : int;
    }  (** [bytes] is the size of the encoded work-unit frame payload *)
  | Dispatch_done of { unit_label : string; worker : string; ok : bool }
      (** a worker answered: a result ([ok]) or a per-unit failure *)
  | Dispatch_retry of { unit_label : string; attempt : int; delay : float }
      (** the unit's worker died mid-flight; requeued after [delay] seconds *)
  | Dispatch_fallback of { reason : string }
      (** no live workers; remaining units run on an in-process domain pool *)
  | Ckpt_push of { worker : string; digest : string; bytes : int }
      (** the worker asked for checkpoint [digest] ([NEED]) and the
          dispatcher shipped it ([CKPT], [bytes] snapshot bytes) *)
  | Ckpt_hit of { worker : string; digest : string }
      (** a unit needing [digest] was handed to a worker already holding
          it — the snapshot bytes were {e not} re-transferred *)
  | Steal of { unit_label : string; from_worker : string; to_worker : string }
      (** an idle worker speculatively duplicated a unit still in flight
          on a slower worker; the first result wins *)
  | Dispatch_inflight of { worker : string; in_flight : int }
      (** gauge: units currently in flight on [worker] (after a change) *)
  | Span_begin of {
      span : string;
      corr : int;
      host : string;
      wall_us : int;
      seq : int;
      detail : string;
    }
      (** a named interval opened on [host]: [corr] correlates the
          matching {!Span_end} (and is the Chrome-trace thread id);
          [wall_us]/[seq] are the {!Clock.stamp} taken where the span
          actually happened, preserved verbatim when a worker's span log
          is re-emitted by the dispatcher.  See {!Span}. *)
  | Span_end of {
      span : string;
      corr : int;
      host : string;
      wall_us : int;
      seq : int;
      ok : bool;
    }
  (** Campaign-service lifecycle ([Darco_serve]) and store-eviction
      events.  Like the dispatch events above they are wall-clock
      stamped ([at = Clock.ticks ()]) and touch no {!Stats.t}
      counter. *)
  | Submit of { client : string; submission : int; benchmark : string; units : int }
      (** a client submitted a sweep: [submission] is the server-assigned
          sequence number, [units] the number of requested windows *)
  | Admit of { submission : int; units : int; credit : int }
      (** fair-share admission: [units] work units of [submission] handed
          to free worker slots at once, with at most [credit] in flight *)
  | Artifact_hit of { key : string }
      (** a requested artifact (window result, or a ["ckpts:"]-prefixed
          checkpoint set) was served from the library — no work dispatched *)
  | Artifact_store of { key : string; bytes : int }
      (** a freshly computed artifact was persisted into the library *)
  | Store_evict of { digest : string; bytes : int }
      (** the byte-budget LRU policy of {!Darco_sampling.Store} dropped a
          spilled checkpoint ([bytes] on disk) to fit [max_bytes] *)
  | Plan_round of {
      round : int;
      chosen : int;
      completed : int;
      mean : float;
      ci95 : float;
    }
      (** Adaptive-sampling planner lifecycle ([Darco_sampling.Plan]):
          the planner opened dispatch round [round] with [chosen] windows
          selected this round, [completed] windows folded in so far, and
          the running IPC [mean]/[ci95] half-width those are based on.
          Like the other infrastructure events the three [Plan_*]
          constructors are wall-clock stamped ([at = Clock.ticks ()]) and
          touch no {!Stats.t} counter; together they make a sweep
          timeline show {e why} each window was chosen, not just when it
          ran. *)
  | Plan_predict of { offset : int; phase : int; ipc : float }
      (** the per-region predictor's IPC estimate for the window at
          [offset] (stratum [phase] — the hot-region guest PC its
          checkpoint sits in), emitted when the window is chosen *)
  | Plan_stop of { reason : string; windows : int; mean : float; ci95 : float }
      (** the planner stopped the benchmark: [reason] is ["ci_target"]
          (converged), ["budget"] ([--max-windows] exhausted) or
          ["exhausted"] (no candidate offsets left) *)
  | Straggler of { worker : string; ratio_pct : int }
      (** the dispatcher's straggler gauge: [worker] holds the oldest
          in-flight unit and [ratio_pct] is its age over the median
          in-flight age, in percent (100 = perfectly balanced).  Emitted
          only when the rounded percentage changes, so traces stay
          compact; requires at least two units in flight. *)

val name : t -> string
(** Stable machine-readable event name (the ["ev"] field of the trace). *)

val fields : t -> (string * Jsonx.t) list
(** The event's payload as named JSON fields, in declaration order: what
    {!to_json} writes after ["at"] and ["ev"]. *)

val to_json : at:int -> t -> Jsonx.t
(** One flat JSON object: [{"at": <clock>, "ev": <name>, ...fields}]. *)
