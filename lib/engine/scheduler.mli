(** The fixpoint engine's two worklist orders.

    Each solver fixes its own order: SFS, VSFS, Naive and Unify run
    {!fifo}; Andersen and Dense run {!topo} over their constraint graph's
    or ICFG's SCC condensation. The order changes only the work done, never
    the fixpoint a monotone solver reaches. *)

type t

val fifo : unit -> t
(** Breadth-first: the classic pointer-analysis worklist. *)

val topo : rank:(int -> int) -> t
(** Smallest [rank] first. The rank is re-read at pop time, so a mutable
    ranking (Andersen's SCC collapses) is fine. *)

val push : t -> int -> bool
(** [false]: the item was already queued (a duplicate push). *)

val pop : t -> int option
val is_empty : t -> bool
