(** Plain-text table rendering and the summary statistics the paper uses. *)

type align = L | R

val render :
  Format.formatter -> header:string list -> align:align list ->
  string list list -> unit
(** Renders rows with padded columns, a header rule, and a trailing rule. *)

val geomean : float list -> float
(** Geometric mean, ignoring non-positive entries (as the paper ignores the
    missing SFS datum for lynx). *)

val human_seconds : float -> string

val ratio : float -> float -> string
(** [ratio a b] is "a/b×" formatted like the paper's "diff" columns;
    "-" if undefined. *)
