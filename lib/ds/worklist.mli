(** Deduplicating worklists over dense integer ids.

    {!Fifo} is the classic pointer-analysis worklist: FIFO order, an item
    already on the list is not enqueued twice. {!Prio} pops the item with
    the smallest priority first (used to process Andersen's constraint
    graph and Dense's ICFG in topological order of their SCCs).

    Every [push] returns [true] iff the item was newly enqueued ([false]: it
    was already queued — the engine's telemetry counts these as duplicate
    pushes). *)

module Fifo : sig
  type t

  val create : unit -> t
  val push : t -> int -> bool
  val pop : t -> int option
  val is_empty : t -> bool
  val length : t -> int
end

module Prio : sig
  type t

  val create : priority:(int -> int) -> unit -> t
  (** [priority] maps an item to its rank; smaller pops first. The rank is
      read both at push time and revalidated at pop time, so priorities may
      change while an item is queued: a re-[push] with an improved rank moves
      the item forward (decrease-key by duplication), and a rank that grew in
      the meantime is re-sunk at pop instead of being delivered early. This
      is what lets Andersen's online SCC collapses re-rank merged
      representatives mid-solve. *)

  val push : t -> int -> bool
  val pop : t -> int option
  val is_empty : t -> bool
  val length : t -> int
  (** Number of distinct queued items (duplicate rank entries not counted). *)
end
