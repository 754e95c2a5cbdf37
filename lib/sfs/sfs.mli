(** Staged flow-sensitive points-to analysis (SFS, Hardekopf & Lin) — the
    paper's baseline.

    Works on the SVFG with an IN points-to set per (node, object) and an
    additional OUT set per (store node, object) (Eq. 6-7). Propagation along
    an indirect edge [ℓ --o--> ℓ'] unions the source's OUT (or pass-through)
    set for [o] into the destination's IN set — the per-node duplication of
    identical sets is the redundancy VSFS removes.

    IN and OUT are interned-set arrays indexed by the SVFG's slots (one per
    (node, object) with indirect edges, see {!Pta_svfg.Svfg}), with a byte
    per slot recording whether the entry was materialised: only
    materialised entries count as sets, and a store passes exactly its
    materialised INs through to OUT.

    The call graph is resolved on the fly from the flow-sensitive points-to
    sets; each newly discovered indirect call edge adds its interprocedural
    edges (the gray parts of Fig. 10) to a sorted per-slot row the solver
    keeps beside the SVFG's own, which it never writes.

    The solve runs on {!Pta_engine.Engine}, under its step/time budgets
    when given one. *)

open Pta_ir

type result

type seed = {
  seed_pt : (Inst.var * Pta_ds.Bitset.t) list;
      (** exact final points-to sets of top-level variables whose every
          producer is being reused *)
  seed_ins : (int * Inst.var * Pta_ds.Bitset.t) list;
      (** [(node, object, set)] IN entries: exact values for reused nodes,
          plus boundary injections — the values reused predecessors would
          have propagated into re-solved nodes *)
  seed_outs : (int * Inst.var * Pta_ds.Bitset.t) list;
      (** OUT entries of reused store nodes *)
  schedule : int list;
      (** the only nodes queued initially: everything being re-solved plus
          the boundary nodes of the reused region (call sites with a
          re-solved potential callee, producers of unseeded variables) *)
}

val solve :
  ?strong_updates:bool ->
  ?seed:seed ->
  ?budget:Pta_engine.Engine.budget ->
  Pta_svfg.Svfg.t ->
  result
(** The worklist is FIFO, the fastest of the orders measured on i3 and
    psql at scale 1.0 (SCC-topological took about twice as long).

    Without [seed], every node is queued over an empty state. With one, the
    solve runs to fixpoint from the pre-installed facts instead, queueing
    only [seed.schedule]. With sound seeds (see {!seed}) the result is
    bit-identical to an unseeded solve on the same graph; the caller
    ({!Pta_workload.Incr}) is responsible for seed soundness. An empty
    schedule returns immediately (0 engine pops).
    @raise Invalid_argument if a seed entry's [(node, object)] is not an
    SVFG slot.
    @raise Pta_engine.Engine.Exhausted if [budget] runs out before the
    fixpoint (default: unlimited). *)

val iter_ins : result -> (int -> Inst.var -> Pta_ds.Bitset.t -> unit) -> unit
(** Every materialised non-empty IN entry as [(node, object, set)], in
    deterministic (node, object) order. The sets are read-only views. *)

val iter_outs : result -> (int -> Inst.var -> Pta_ds.Bitset.t -> unit) -> unit
(** Same for the OUT entries of store nodes. *)

val pt : result -> Inst.var -> Pta_ds.Bitset.t
(** Final points-to set of a top-level variable. *)

val in_set : result -> int -> Inst.var -> Pta_ds.Bitset.t option
(** IN set of an SVFG node for an object, if one was materialised. *)

val object_pt : result -> Inst.var -> Pta_ds.Bitset.t
(** Flow-insensitive collapse: union of the object's IN/OUT sets over all
    program points. Scans every slot, so it suits one-off questions;
    for every object use {!object_pts}. *)

val object_pts : result -> Pta_ds.Bitset.t array
(** [object_pt] for every variable at once, indexed by variable id (empty
    for non-objects), in one pass over the slots. The sets are fresh. *)

val callgraph : result -> Callgraph.t
(** Flow-sensitively resolved call graph (subset of the auxiliary one). *)

val n_sets : result -> int
(** Number of points-to sets materialised (IN + OUT entries) — the storage
    column of the paper's Fig. 2(b). *)

val words : result -> int
(** Logical memory: machine words of the materialised sets with interning —
    each distinct set counted once, plus one word per (node, object)
    reference. *)

val unshared_words : result -> int
(** What the same sets would cost without interning: words summed over every
    (node, object) reference. *)

val n_unique_sets : result -> int
(** Number of distinct points-to sets among all IN/OUT entries. *)

val telemetry : result -> Pta_engine.Telemetry.phase
(** The solve's engine telemetry (phase ["sfs.solve"]). *)

val n_propagations : result -> int
(** Number of edge propagations executed ([A-PROP] firings). *)

val processed : result -> int
(** Worklist pops. *)
