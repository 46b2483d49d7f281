(** A fixed pool of worker domains draining one thunk queue.

    The pool behind {!Sweep.Backend.domains} and the worker daemon's
    slots: submit tagged thunks, collect [(tag, result)] completions
    in finish order.  Thunks run on worker domains, so everything they
    close over must be domain-safe (per-unit state, or shared structures
    with their own locking such as {!Store.t}).  A raising thunk reports
    [Error exn] for its tag; it never kills the worker domain.

    Completions can be consumed three ways:

    - {!await}: block until one is ready (the sweep backend's loop);
    - {!try_next}: poll without blocking;
    - {!wake_fd}: a pipe read-end that becomes readable whenever
      completions are pending, for [select]-based event loops (the worker
      daemon).  Wakeups may be spurious (call {!try_next} until [None];
      it drains the pipe itself) but are never missed. *)

type 'b t

val create : jobs:int -> unit -> 'b t
(** Spawn worker domains for [jobs]-deep admission (raises
    [Invalid_argument] when [jobs < 1]).  The number of domains actually
    spawned is clamped to [Domain.recommended_domain_count ()]: domains
    share stop-the-world minor collections, so running more of them than
    there are cores makes every minor GC a cross-domain stall instead of
    a speedup.  Excess submissions simply queue. *)

val jobs : 'b t -> int
(** The requested [jobs] — the admission depth, not the domain count. *)

val size : 'b t -> int
(** Worker domains actually spawned ([<= jobs], see {!create}). *)

val submit : 'b t -> tag:int -> (unit -> 'b) -> unit
(** Enqueue one unit of work.  Tags are the caller's correlation ids and
    are returned verbatim; they need not be distinct. *)

val pending : 'b t -> int
(** Submitted units whose completions have not been consumed yet. *)

val try_next : 'b t -> (int * ('b, exn) result) option
(** Pop a completion if one is ready; never blocks. *)

val await : 'b t -> int * ('b, exn) result
(** Block until a completion is ready and pop it.  Raises
    [Invalid_argument] when {!pending} is [0] (it would block forever). *)

val wake_fd : 'b t -> Unix.file_descr
(** Readable whenever a completion may be pending.  Owned by the pool —
    select on it, read from it to drain, never close it. *)

val shutdown : 'b t -> unit
(** Stop the pool: each worker finishes the thunk it is running, queued
    thunks not yet started are discarded, domains are joined and the wake
    pipe is closed.  Pop any completions you still want with {!try_next}
    {e before} calling.  Idempotent. *)
