(** ASCII rendering of result tables and stacked-percentage "figures".

    The bench harness uses this to print, for every figure in the paper, the
    same rows/series the paper plots. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays the rows out in a column-aligned grid with a
    separator under the header: the first column aligned left, the rest
    right. *)

val stacked_bars :
  labels:string list -> series:(string * float array) list -> string
(** [stacked_bars ~labels ~series] renders a horizontal 100%-stacked bar per
    label, in the manner of the paper's Figures 4, 6 and 7.  Each series is
    an array with one value per label; values are normalised per label. *)

val bar_chart : labels:string list -> values:float array -> unit:string -> string
(** Horizontal bar chart for a single series (Figure 5 style). *)
