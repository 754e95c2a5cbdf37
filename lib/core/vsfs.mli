(** Versioned staged flow-sensitive points-to analysis (VSFS) — the paper's
    contribution (Fig. 10).

    Identical precision to {!Pta_sfs.Sfs} with finer single-object sparsity:
    instead of IN/OUT points-to sets per (node, object), one global set per
    (object, version) is kept, with versions assigned by {!Versioning}.
    Memory nodes (MEMPHIs and call-boundary nodes) do no runtime work at
    all — their effect is precomputed as version reliances — so both
    propagation and storage shrink wherever SFS would have duplicated a set.

    Strong-update eligibility is static, so each χ object a store cannot
    strongly update gets the reliance C → Y before solving, and a store
    does only its GEN. On-the-fly call-graph resolution adds version
    reliances (and immediate propagation) for each newly discovered call
    edge, and leaves the SVFG as it found it; the δ prelabels placed by
    {!Versioning} guarantee soundness of those late arrivals. Solver state
    is indexed by version id. *)

open Pta_ir

type result

val solve :
  ?strong_updates:bool ->
  ?versioning:Versioning.t ->
  ?budget:Pta_engine.Engine.budget ->
  Pta_svfg.Svfg.t ->
  result
(** [versioning] defaults to [Versioning.compute svfg] (pass it explicitly
    to time the phases separately, as the paper's Table III does). The
    worklist is FIFO, as in {!Pta_sfs.Sfs}.
    @raise Pta_engine.Engine.Exhausted if [budget] runs out before the
    fixpoint (default: unlimited). *)

val pt : result -> Inst.var -> Pta_ds.Bitset.t

val pt_set : result -> Inst.var -> Pta_ds.Ptset.t
(** The interned points-to set itself (no copy; id-comparable with
    {!Pta_ds.Ptset.equal} in O(1)). Domain-local like every [Ptset.t] — do
    not ship across {!Pta_par.Pool} boundaries. *)

val pt_version : result -> Inst.var -> Version.t -> Pta_ds.Bitset.t option
(** pt_κ(o); [None] when κ is ε or is not a version of [o]. *)

val consumed_pt : result -> int -> Inst.var -> Pta_ds.Bitset.t option
(** The set a node reads for [o] ([pt_{C_n(o)}(o)]) — for the SFS
    equivalence tests. *)

val object_pt : result -> Inst.var -> Pta_ds.Bitset.t
(** Flow-insensitive collapse: the union of the object's points-to sets over
    all its versions — "what may this object ever contain". Scans every
    version, so it suits one-off questions; for every object use
    {!object_pts}. *)

val object_pts : result -> Pta_ds.Bitset.t array
(** [object_pt] for every variable at once, indexed by variable id (empty
    for non-objects), in one pass over the table. The sets are fresh. *)

val callgraph : result -> Callgraph.t
val iter_relied : result -> Version.t -> (Version.t -> unit) -> unit
(** Every version reliance of κ the solve ran on: {!Versioning}'s static
    ones, then the weak-update and call-edge reliances it added. *)

val n_sets : result -> int
(** Number of (object, version) points-to sets: the versions some slot
    consumes or yields. *)

val words : result -> int
(** Logical memory of the versioned sets (interned: each distinct set once,
    plus one word per (object, version) reference), plus the versioning
    arrays ({!Versioning.words}) and the solver's per-version lists. *)

val unshared_words : result -> int
(** What the same sets would cost without interning: words summed over every
    (object, version) reference, plus the same index words as {!words}. *)

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
