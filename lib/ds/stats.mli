(** Named counters, one table per domain.

    The solvers bump counters for propagations, set unions, processed nodes,
    etc. The benchmark harness snapshots them to report the paper's
    "number of propagation constraints / points-to sets" style figures
    deterministically (unlike wall-clock time).

    The table is domain-local ([Domain.DLS]): worker domains of a parallel
    batch count into private tables with no locking, and a batch driver
    aggregates explicitly — {!snapshot} inside the task, {!merge} at the
    join. Counts never flow between domains implicitly. *)

val counter : string -> int ref
(** [counter name] returns the (shared) counter registered under [name],
    creating it at 0 on first use. Registrations live as long as the
    domain: the ref stays the one {!get} and {!snapshot} read, across
    {!reset_all} too, so hot loops may cache it instead of looking the name
    up on every increment. *)

val incr : string -> unit
val add : string -> int -> unit
val get : string -> int

val reset_all : unit -> unit
(** Zeroes every counter. Registrations (and refs held by callers) survive;
    since {!snapshot}/{!pp} omit zero counters, a dump after a reset still
    reports only counters touched since it (consumers that snapshot around
    a measured region rely on this). *)

val snapshot : unit -> (string * int) list
(** Every non-zero counter, sorted by name. *)

val merge : (string * int) list -> unit
(** Add a snapshot (typically taken on a worker domain at the end of a
    task) into the current domain's counters. [merge (snapshot ())] on the
    same domain doubles every counter — only merge snapshots carried over
    from elsewhere. *)

val pp : Format.formatter -> unit -> unit
