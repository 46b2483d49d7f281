(** A minimal self-contained JSON representation, printer and parser
    (the toolchain image carries no JSON library; events and metrics
    snapshots only need this much). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact single-line rendering with full string escaping. *)

val parse : string -> t
(** Inverse of {!to_string} (raises {!Parse_error} on malformed input).
    Numbers without a fractional part parse as [Int]; [\u] escapes
    outside ASCII degrade to ['?']. *)

val member : string -> t -> t option
(** Object field lookup ([None] on non-objects and absent keys). *)

val to_int : t -> int option
val to_str : t -> string option

val to_float : t -> float option
(** A number as a float: a [Float], or an [Int] converted. *)
