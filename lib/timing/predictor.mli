(** Branch direction prediction (gshare, 2-bit counters) and a tagged,
    direct-mapped branch target buffer — the paper's stated front-end. *)

type t

type stats = {
  mutable branches : int;
  mutable mispredicts : int;
  mutable btb_misses : int;
}

val create : Tconfig.t -> t

val predict : t -> pc:int -> bool * int option
(** [(predicted taken, BTB target if any)]. *)

val update : t -> pc:int -> taken:bool -> target:int -> unit

val observe : t -> pc:int -> taken:bool -> target:int -> [ `Correct | `Mispredict ]
(** Predict, compare against the actual outcome, update, and record stats.
    A taken branch with a wrong or missing BTB target counts as a
    misprediction (the front-end fetched the wrong path). *)

val stats : t -> stats
val accuracy : t -> float

type persisted = {
  p_pht : int array;
  p_ghr : int;
  p_btb_tag : int array;
  p_btb_target : int array;
  p_branches : int;
  p_mispredicts : int;
  p_btb_misses : int;
}

val persist : t -> persisted

val apply : t -> persisted -> unit
(** Overwrite a freshly-created predictor of the same geometry.  Raises
    [Invalid_argument], and changes nothing, when the pattern table, the
    BTB tags or the BTB targets differ in size. *)
