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

    The result is read-only. Every non-ε version belongs to exactly one
    object, so it is laid out by SVFG slot and by version id: C_ℓ(o) and
    Y_ℓ(o) are int arrays indexed by the slot of (ℓ, o), and static version
    reliance (κ → the consumed versions κ' ≠ κ that must receive κ's set,
    [A-PROP] where versions differ) is a CSR over version ids. What grows
    while solving lives in {!Vsfs}: call-edge and weak-update reliances,
    and the loads subscribed to a version (stores never subscribe). *)

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

val consume : t -> int -> Inst.var -> Version.t
(** C_node(o); ε if the node never consumes a version of [o]. *)

val yield : t -> int -> Inst.var -> Version.t
(** Y_node(o). *)

val consume_slot : t -> int -> Version.t
(** [consume] by SVFG slot ({!Pta_svfg.Svfg.slot_of}). *)

val yield_slot : t -> int -> Version.t

val is_delta : t -> int -> bool

val owner : t -> Version.t -> Inst.var
(** The object a version belongs to; [-1] for ε and for the transient melds
    no slot consumes or yields. [v] must be below {!n_versions}. *)

val iter_relied : t -> Version.t -> (Version.t -> unit) -> unit
(** The static reliances of a version, ascending. *)

(* Diagnostics / bench metrics *)

val duration : t -> float
(** Wall-clock seconds spent versioning (the paper's "versioning" column). *)

val n_versions : t -> int

val n_reliances : t -> int
(** Static version reliances. *)

(** Average number of (node, object) consume-points sharing one distinct
    (object, version) pair — the single-object sparsity VSFS gains; SFS is
    1.0 by construction. *)
val sharing_factor : t -> float
val words : t -> int
(** Footprint of the versioning arrays in machine words: two per slot
    (C, Y), two per version (owner, CSR row start), one per static
    reliance, plus the δ set and the version table. *)

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
    reliances and the reliances added while solving are solver-side state,
    so exporting before or after {!Vsfs.solve} gives the same bytes. *)

val import : Pta_svfg.Svfg.t -> raw -> t
(** Rebuild onto an SVFG with the same node numbering the snapshot was taken
    from (imports of the {!Pta_svfg.Svfg.import} of the matching snapshot
    qualify — construction is deterministic). The version table is restored
    sealed; {!duration} reads 0.
    @raise Invalid_argument if an entry names no slot or an unknown
    version. *)
