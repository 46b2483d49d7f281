(** The JSON metrics snapshot exporter: every {!Stats.t} counter plus
    the derived figure metrics (mode fractions, SBM emulation cost,
    overhead fraction and per-category breakdown), grouped by subsystem.

    [hists] folds named {!Hist} distributions into the snapshot under a
    ["hists"] section, each under its name ({!Hist.to_json}); the section
    is absent when the list is empty, keeping historical snapshots
    byte-stable. *)

val to_json : ?hists:(string * Hist.t) list -> Stats.t -> Jsonx.t
val to_string : ?hists:(string * Hist.t) list -> Stats.t -> string

val write_file : ?hists:(string * Hist.t) list -> string -> Stats.t -> unit
(** Write the snapshot (one line of JSON) to [path]; the channel is
    closed even if rendering raises. *)
