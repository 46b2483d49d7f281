open Darco_guest
open Darco_host

(** The Translation Optimization Layer runtime: the dispatch loop tying
    together the interpreter (IM), the basic-block translator (BBM), the
    superblock optimizer (SBM), the code cache and the host emulator.

    This is the software half of the co-designed component.  [run_slice]
    advances guest execution until an event only the controller can resolve
    (system call, page fault / data request, end of application) or a
    validation checkpoint.

    Observability: every lifecycle step (slice boundaries, translations,
    chain/IBTC activity, rollbacks, deopt rebuilds, page installs,
    syscalls) is published as a typed event on the bus passed to
    {!create}, and the retired host application stream flows in batches to
    the bus's retire subscriber (the timing simulator attaches there); the
    batches are flushed before [run_slice] returns.  With no sinks and no
    subscriber the bus costs nothing on the hot path. *)

type event =
  | Ev_syscall of int        (** EIP of the pending syscall instruction *)
  | Ev_halt
  | Ev_page_fault of int     (** data request for a page index *)
  | Ev_checkpoint            (** the guest-instruction slice budget elapsed *)

type t = {
  mutable cfg : Config.t;
      (** mutable so the warm-up methodology can downscale promotion
          thresholds mid-run *)
  stats : Stats.t;
  bus : Darco_obs.Bus.t;     (** the observability spine of this component *)
  cpu : Cpu.t;               (** emulated guest architectural state *)
  mem : Memory.t;            (** emulated guest memory (fault policy) *)
  machine : Machine.t;
  icache : Step.icache;
  profile : Profile.t;
  tolmem : Tolmem.t;
  codecache : Codecache.t;
  fails : (int, int) Hashtbl.t;
      (** speculation rollbacks per region id *)
  deopt : (int, bool * bool) Hashtbl.t;
      (** per-PC rebuild downgrades: (no asserts, no memory speculation) *)
}

val create : ?bus:Darco_obs.Bus.t -> Config.t -> Cpu.t -> t
(** [create cfg initial_state] — the initial architectural state comes from
    the controller (which received it from the x86 component).  Attach
    sinks to [bus] before calling to capture initialization events. *)

val retired : t -> int
(** Guest instructions retired by the co-designed component so far (the
    event timestamp clock). *)

val run_slice : t -> event

val service_complete_syscall : t -> Syscall.effect list -> len:int -> unit
(** Apply the effects of a syscall the x86 component executed, and advance
    EIP past the syscall instruction. *)

val install_page : t -> int -> Bytes.t -> unit
(** Satisfy a data request with a page image from the x86 component. *)
