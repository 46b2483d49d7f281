open Darco_guest

(** §VI-A DARCO speed: emulation/simulation throughput for the guest and
    host ISAs, with and without the timing simulator. *)

type t = {
  guest_mips_emulated : float;   (** guest insns/s, functional only *)
  guest_mips_timing : float;     (** guest insns/s with timing enabled *)
  host_mips_emulated : float;    (** host insns/s, functional only *)
  host_mips_timing : float;
  minor_words_emulated : float;
      (** [Gc.minor_words] per guest insn across the functional run *)
  minor_words_timing : float;    (** the same, with timing enabled *)
}

val measure : ?insns:int -> Program.t -> seed:int -> t
(** Run the program (bounded by [insns] retired guest instructions) twice —
    functional and with the timing simulator attached — and report
    throughputs from wall-clock time, and the minor-heap words each run
    allocated per guest instruction (deterministic, unlike the speeds). *)

val pp : Format.formatter -> t -> unit
