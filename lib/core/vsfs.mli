(** Versioned staged flow-sensitive points-to analysis (VSFS) — the paper's
    contribution (Fig. 10).

    Identical precision to {!Pta_sfs.Sfs} with finer single-object sparsity:
    instead of IN/OUT points-to sets per (node, object), one global set per
    (object, version) is kept, with versions assigned by {!Versioning}.
    Memory nodes (MEMPHIs and call-boundary nodes) do no runtime work at
    all — their effect is precomputed as version reliances — so both
    propagation and storage shrink wherever SFS would have duplicated a set.

    On-the-fly call-graph resolution adds version reliances (and immediate
    propagation) for each newly discovered call edge; the δ prelabels placed
    by {!Versioning} guarantee soundness of those late arrivals. *)

open Pta_ir

type result

val solve :
  ?strong_updates:bool ->
  ?versioning:Versioning.t ->
  Pta_svfg.Svfg.t ->
  result
(** [versioning] defaults to [Versioning.compute svfg] (pass it explicitly
    to time the phases separately, as the paper's Table III does). The
    worklist is FIFO, as in {!Pta_sfs.Sfs}. *)

type paused
(** A budgeted solve stopped short of fixpoint: partial state plus the
    queued work. Resume with {!resume}; do not read results out of it. *)

type outcome = Done of result | Paused of paused

val solve_budgeted :
  ?strong_updates:bool ->
  ?versioning:Versioning.t ->
  budget:Pta_engine.Engine.budget ->
  Pta_svfg.Svfg.t ->
  outcome
(** Like {!solve} but stops when the engine budget is exhausted; a paused
    solve resumed to completion is bit-identical to an unbudgeted one. *)

val resume : budget:Pta_engine.Engine.budget -> paused -> outcome
(** Each resume grants a fresh budget allowance. *)

val pt : result -> Inst.var -> Pta_ds.Bitset.t

val pt_set : result -> Inst.var -> Pta_ds.Ptset.t
(** The interned points-to set itself (no copy; id-comparable with
    {!Pta_ds.Ptset.equal} in O(1)). Domain-local like every [Ptset.t] — do
    not ship across {!Pta_par.Pool} boundaries. *)

val pt_version : result -> Inst.var -> Version.t -> Pta_ds.Bitset.t option
(** pt_κ(o), if materialised. *)

val consumed_pt : result -> int -> Inst.var -> Pta_ds.Bitset.t option
(** The set a node reads for [o] ([pt_{C_n(o)}(o)]) — for the SFS
    equivalence tests. *)

val object_pt : result -> Inst.var -> Pta_ds.Bitset.t
(** Flow-insensitive collapse: the union of the object's points-to sets over
    all its versions — "what may this object ever contain". Scans the whole
    (object, version) table, so it suits one-off questions; for every
    object use {!object_pts}. *)

val object_pts : result -> Pta_ds.Bitset.t array
(** [object_pt] for every variable at once, indexed by variable id (empty
    for non-objects), in one pass over the table. The sets are fresh. *)

val callgraph : result -> Callgraph.t
val versioning : result -> Versioning.t

val n_sets : result -> int
(** Number of (object, version) points-to sets materialised. *)

val words : result -> int
(** Logical memory of the versioned sets (interned: each distinct set once,
    plus one word per (object, version) reference) plus the versioning
    maps. *)

val unshared_words : result -> int
(** What the same sets would cost without interning: words summed over every
    (object, version) reference, plus the versioning maps. *)

val n_unique_sets : result -> int
(** Number of distinct points-to sets among all (object, version) entries. *)

val telemetry : result -> Pta_engine.Telemetry.phase
(** The solve's engine telemetry (phase ["vsfs.solve"]). *)

val n_propagations : result -> int
val processed : result -> int

val collapsible_versions : result -> int * int
(** [(excess, total)]: how many materialised (object, version) sets turned
    out equal to another version of the same object — the avoidable
    versions §IV-C1 predicts from using imprecise auxiliary results for the
    prelabelling. *)
