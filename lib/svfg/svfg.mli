(** The sparse value-flow graph (§II-B).

    Nodes are the program's instructions plus the memory-SSA nodes: MEMPHIs
    at control-flow joins, and the four call-boundary node kinds that keep a
    call site's μ and χ channels separate (SVF's ActualIn/ActualOut/
    FormalIn/FormalOut; the paper folds these into CALL/FUNENTRY/FUNEXIT).

    Indirect edges [ℓ --o--> ℓ'] are labelled with an address-taken object
    and connect a definition of [o] to a use; they are produced here by a
    per-function SSA renaming over the dominator tree (χ/μ sites from
    {!Pta_memssa.Annot}, MEMPHI placement at iterated dominance frontiers).
    Direct edges connect the unique definition of each top-level variable to
    its uses.

    Interprocedural indirect edges (ActualIn → FormalIn, FormalOut →
    ActualOut) of direct calls are part of the graph. Those of an indirect
    call are not: its targets are known only while solving, so each solver
    keeps the edges of the call edges it discovers in its own state, from
    {!iter_call_edges} (the paper's δ nodes account for them in
    versioning).

    A graph is read-only once {!build} or {!import} returns, so one graph
    serves every solver of a program, one after another.

    Each node owns a contiguous run of {e slots}, one per object it carries
    indirect edges for (a load's μ, a store's χ, a memory node's own
    object), numbered by node, then by ascending object; an edge
    [ℓ --o--> ℓ'] joins slot [(ℓ, o)] to slot [(ℓ', o)]. {!build} and
    {!import} seal the edges into sorted per-slot successor arrays. Solvers
    index their per-(node, object) state by slot.

    Call-boundary nodes form one block of contiguous runs, each by
    ascending object: per function its FormalIns (entry χ) then FormalOuts
    (exit μ), then per call its ActualIns (μ) then ActualOuts (χ). The
    boundary lookups binary-search a run, and a call edge's interprocedural
    edges are a merge walk of two runs; no hash table is involved. *)

type nkind =
  | NInst of { f : Pta_ir.Inst.func_id; i : int }
  | NMemPhi of { f : Pta_ir.Inst.func_id; at : int; obj : Pta_ir.Inst.var }
  | NFormalIn of { f : Pta_ir.Inst.func_id; obj : Pta_ir.Inst.var }
  | NFormalOut of { f : Pta_ir.Inst.func_id; obj : Pta_ir.Inst.var }
  | NActualIn of { f : Pta_ir.Inst.func_id; call : int; obj : Pta_ir.Inst.var }
  | NActualOut of { f : Pta_ir.Inst.func_id; call : int; obj : Pta_ir.Inst.var }

type t

val build : Pta_ir.Prog.t -> Pta_memssa.Modref.aux -> t
(** Builds nodes, all intraprocedural indirect edges, the interprocedural
    indirect edges of direct calls, and all direct edges. Indirect-call
    edges are not added (see above). *)

(* Structure access ------------------------------------------------------- *)

val prog : t -> Pta_ir.Prog.t
val aux : t -> Pta_memssa.Modref.aux
val modref : t -> Pta_memssa.Modref.t
val annot : t -> Pta_memssa.Annot.t

val n_nodes : t -> int
val kind : t -> int -> nkind
val inst_of : t -> int -> Pta_ir.Inst.t
(** @raise Invalid_argument if the node is not an instruction node. *)

val node_of_inst : t -> Pta_ir.Inst.func_id -> int -> int
(** Node id of an instruction ([-1] for control-flow-only instructions). *)

val entry_node : t -> Pta_ir.Inst.func_id -> int
val exit_node : t -> Pta_ir.Inst.func_id -> int
val formal_in : t -> Pta_ir.Inst.func_id -> Pta_ir.Inst.var -> int option
val formal_out : t -> Pta_ir.Inst.func_id -> Pta_ir.Inst.var -> int option
val actual_in : t -> Pta_ir.Callgraph.callsite -> Pta_ir.Inst.var -> int option
val actual_out : t -> Pta_ir.Callgraph.callsite -> Pta_ir.Inst.var -> int option

(* Indirect edges --------------------------------------------------------- *)

val iter_ind_succs : t -> int -> Pta_ir.Inst.var -> (int -> unit) -> unit
(** [iter_ind_succs t n o f]: the successors of [n] along [o]-edges, in
    ascending node order. *)

val iter_ind_all : t -> int -> (Pta_ir.Inst.var -> int -> unit) -> unit
(** All outgoing indirect edges of a node, by ascending object, then
    ascending successor. *)

val iter_call_edges : t -> Pta_ir.Callgraph.callsite -> Pta_ir.Inst.func_id ->
  (int -> Pta_ir.Inst.var -> int -> unit) -> unit
(** [iter_call_edges t cs g f]: [f src o dst] for each interprocedural edge
    of the call edge [cs -> g]: ActualIn → FormalIn by ascending object,
    then FormalOut → ActualOut by ascending object. For a direct call these
    edges are in the graph; for an indirect one they are what a solver
    wires when it resolves [g] as a target of [cs]. *)

(* Slots ------------------------------------------------------------------ *)

val n_slots : t -> int

val first_slot : t -> int -> int
(** Node [n]'s slots are [first_slot t n .. first_slot t (n + 1) - 1];
    [first_slot t (n_nodes t)] is [n_slots t]. *)

val slot_of : t -> int -> Pta_ir.Inst.var -> int
(** The slot of [(node, object)], or [-1] if the node has none for it. *)

val slot_obj : t -> int -> Pta_ir.Inst.var
val slot_node : t -> int -> int

val iter_slot_succs : t -> int -> (int -> unit) -> unit
(** Successor slots of a slot, ascending (and so by ascending node). *)

(* Direct edges ----------------------------------------------------------- *)

val def_node : t -> Pta_ir.Inst.var -> int
(** Node defining the top-level variable ([-1] if none): its defining
    instruction, or the function entry node for parameters. *)

val users : t -> Pta_ir.Inst.var -> int list
(** Instruction nodes that use the variable (function-exit nodes use the
    returned variable). *)

(* Statistics (Table II) -------------------------------------------------- *)

val n_indirect_edges : t -> int
(** Indirect edges in the graph: intraprocedural and direct-call ones. *)

val n_direct_edges : t -> int

val to_digraph : t -> Pta_graph.Digraph.t
(** The adjacency (direct + indirect edges, labels dropped). *)

val pp_node : t -> Format.formatter -> int -> unit

(* Serialization (Pta_store) ---------------------------------------------- *)

type raw = {
  raw_kinds : nkind array;  (** node id -> kind *)
  raw_ind : (int * int * int array) array;
      (** indirect edges as [(src, obj, dsts)], sorted by [(src, obj)] *)
  raw_mods : Pta_ds.Bitset.t array;
  raw_refs : Pta_ds.Bitset.t array;
  raw_mu : Pta_ds.Bitset.t array array;
  raw_chi : Pta_ds.Bitset.t array array;
  raw_entry_chis : Pta_ds.Bitset.t array;
  raw_exit_mus : Pta_ds.Bitset.t array;
}
(** Everything {!import} needs that is not derivable in linear time from the
    program: node kinds, indirect edges, and the mod/ref and χ/μ tables the
    solvers' on-the-fly call-graph resolution reads. Instruction-node maps,
    call-boundary lookup tables and direct def-use edges are rebuilt. *)

val export : t -> raw
(** Deterministic snapshot of the graph. *)

val import : Pta_ir.Prog.t -> Pta_memssa.Modref.aux -> raw -> t
(** Rebuild a graph from a snapshot in time linear in nodes + edges —
    skipping mod/ref and χ/μ fixpoints, dominance frontiers and SSA renaming.
    @raise Invalid_argument on malformed snapshots, including call-boundary
    nodes that are not laid out as {!build} lays them out. *)
