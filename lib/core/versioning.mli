(** Object versioning of the SVFG by meld labelling (§IV-C).

    Prelabelling (Fig. 6): every STORE yields a fresh version for each
    object it may define; every δ node — a node that may receive new
    incoming indirect edges during the flow-sensitive analysis because of
    on-the-fly call-graph resolution, i.e. the FormalIn nodes of potential
    indirect-call targets and the ActualOut nodes of indirect call sites —
    consumes a fresh version.

    Meld labelling (Fig. 8) propagates versions along object-labelled
    indirect edges: [EXTERNAL] melds a yielded version into the successor's
    consumed version (δ nodes excluded — their prelabels are frozen), and
    [INTERNAL] makes every non-store node yield what it consumes. Its least
    fixpoint is computed one object at a time: the labels of [o] flow only
    along o-labelled edges and meld is a join, so on [o]'s subgraph the
    stores (fixed yield) and δ nodes (frozen consume) are constants, each
    SCC of the remaining nodes (one iterative Tarjan, {!Pta_graph.Scc})
    receives the meld of its external inputs in one topological pass over
    the condensation, and each store consumes the meld of its
    predecessors. No node is visited twice.

    The result is exposed both as the consume/yield maps (C_ℓ(o), Y_ℓ(o))
    and as the two precomputed relations the solver runs on:
    - version reliance: (o, κ) → consumed versions κ' ≠ κ that must receive
      κ's points-to set ([A-PROP] where versions differ), computed in the
      same per-object pass;
    - statement reliance: (o, κ) → LOAD/STORE nodes consuming (o, κ) that
      must be re-processed when pt_κ(o) grows. *)

open Pta_ir

type t

val compute : ?release_labels:bool -> Pta_svfg.Svfg.t -> t
(** Requires direct-call interprocedural edges to be present, as
    {!Pta_svfg.Svfg.build} and {!Pta_svfg.Svfg.import} leave them.
    [release_labels] (default [true]) seals the version table after the
    fixpoint — the solver only compares version ids — reclaiming the label
    sets; pass [false] to keep them inspectable ({!Version.labels}). Adds
    the [vsfs.prelabels], [vsfs.versions], [vsfs.version_objects] (objects
    with an indirect edge), [vsfs.version_sccs] (non-trivial SCCs of the
    per-object subgraphs) and [vsfs.version_max_scc] (largest such SCC,
    kept as a maximum within one domain; merged snapshots add it up like
    every counter) counters to {!Pta_ds.Stats}. *)

val table : t -> Version.table
val svfg : t -> Pta_svfg.Svfg.t

val consume : t -> int -> Inst.var -> Version.t
(** C_node(o); ε if the node never consumes a version of [o]. *)

val yield : t -> int -> Inst.var -> Version.t
(** Y_node(o). *)

val is_delta : t -> int -> bool

val add_dynamic_edge : t -> int -> Inst.var -> int -> (Version.t * Version.t) option
(** Registers the version reliance of an interprocedural edge discovered by
    on-the-fly call-graph resolution. Returns [Some (y, c)] when propagation
    from [pt_y(o)] to [pt_c(o)] is required (y ≠ c, y ≠ ε). *)

val iter_relied : t -> Inst.var -> Version.t -> (Version.t -> unit) -> unit
val iter_subscribers : t -> Inst.var -> Version.t -> (int -> unit) -> unit

val subscribe : t -> Inst.var -> Version.t -> int -> unit
(** Used by the solver for loads/stores (statement reliance). *)

(* Diagnostics / bench metrics *)

val duration : t -> float
(** Wall-clock seconds spent versioning (the paper's "versioning" column). *)

val n_versions : t -> int

val n_reliances : t -> int

(** Average number of (node, object) consume-points sharing one distinct
    (object, version) pair — the single-object sparsity VSFS gains; SFS is
    1.0 by construction. *)
val sharing_factor : t -> float
val words : t -> int
(** Footprint of the versioning maps in machine words. *)

(* Serialization (Pta_store) ---------------------------------------------- *)

type raw = {
  raw_consume : (int * Version.t) array;
      (** [(Pta_ds.Pair_key.pack node obj, C)] bindings, sorted by key *)
  raw_store_yield : (int * Version.t) array;  (** store prelabels, sorted *)
  raw_delta : Pta_ds.Bitset.t;  (** δ node ids *)
  raw_reliance : (int * Pta_ds.Bitset.t) array;
      (** [(Pta_ds.Pair_key.pack obj κ, κ' set)] bindings, sorted *)
  raw_n_reliances : int;
  raw_n_prelabels : int;
  raw_n_versions : int;
}

val export : t -> raw
(** Deterministic snapshot of a computed (pre-solve) versioning: the
    consume/yield maps, δ set and static version reliances. Statement
    reliances (subscribers) are solver-side state and are not included —
    export before running {!Vsfs.solve} on this value. *)

val import : Pta_svfg.Svfg.t -> raw -> t
(** Rebuild onto an SVFG with the same node numbering the snapshot was taken
    from (imports of the {!Pta_svfg.Svfg.import} of the matching snapshot
    qualify — construction is deterministic). The version table is restored
    sealed; {!duration} reads 0. Each call owns fresh mutable state. *)
