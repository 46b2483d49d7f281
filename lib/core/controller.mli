open Darco_guest

(** The controller: DARCO's main user interface.

    Owns both components — the authoritative x86 component (reference
    interpreter) and the co-designed component (TOL + host emulator) — and
    implements the three-phase execution flow of the paper: initialization
    (ships the initial architectural state to the co-designed component),
    execution, and synchronization on the three events (data request,
    system call, end of application).  It also validates the emulated
    architectural and memory state against the authoritative one. *)

type divergence = {
  at_retired : int;        (** guest instructions retired when detected *)
  details : string list;   (** human-readable state differences *)
}

type t = {
  cfg : Config.t;
  reference : Interp_ref.t;
  co : Tol.t;
  mutable divergence : divergence option;
  mutable validate_at_checkpoints : bool;
  mutable validate_memory : bool;
}

val create :
  ?cfg:Config.t -> ?bus:Darco_obs.Bus.t -> ?input:string -> seed:int -> Program.t -> t
(** [bus] is the observability spine of the co-designed component: attach
    event sinks (trace writer, aggregator) and the retire subscriber
    (timing simulator) to it {e before} calling, so initialization events are
    captured too.  Defaults to a fresh bus with no sinks (zero overhead). *)

val create_at :
  ?cfg:Config.t ->
  ?bus:Darco_obs.Bus.t ->
  ?input:string ->
  seed:int ->
  Program.t ->
  start:int ->
  t
(** Like {!create}, but the x86 component first executes [start] guest
    instructions and the co-designed component is initialized from that
    architectural state — the fast-forward step of sampling-based
    simulation (the warm-up methodology study). *)

val of_reference : ?cfg:Config.t -> ?bus:Darco_obs.Bus.t -> Interp_ref.t -> t
(** Adopt an already-advanced x86 component (e.g. restored from a
    checkpoint, see [Darco_sampling]) and initialize a cold co-designed
    component from its architectural state.  [create_at ~start] is
    equivalent to booting a reference, running it to [start] and calling
    this. *)

val bus : t -> Darco_obs.Bus.t
(** The co-designed component's event bus. *)

val run : ?max_insns:int -> t -> [ `Done | `Diverged of divergence | `Limit ]
(** Drive the co-designed component to completion, servicing
    synchronization events.  [`Diverged] reports the first failed state
    validation (execution stops there). *)

val validate : t -> ?memory:bool -> unit -> divergence option
(** Synchronize the x86 component to the co-designed point and compare
    architectural state (and the co-designed memory image when
    [memory]). *)

val stats : t -> Stats.t
val output : t -> string
(** Guest program output (authoritative side). *)

val exit_code : t -> int option
