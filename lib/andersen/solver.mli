(** Andersen's inclusion-based points-to analysis.

    This is the auxiliary analysis of the paper (§II-B): sound,
    flow-insensitive, field-sensitive, with an on-the-fly call graph. Its
    results drive memory-SSA construction, SVFG building, mod/ref summaries
    and the δ-node classification; the flow-sensitive solvers then compute
    strictly more precise points-to sets.

    The implementation is wave propagation: repeat (collapse copy-edge SCCs
    with a union-find; propagate difference sets on {!Pta_engine.Engine};
    expand complex constraints — loads, stores, field address-of, indirect
    calls) until fixpoint. The default [`Topo] strategy ranks each node by
    the SCC-condensation rank of its current representative, refreshed after
    every collapse — the worklist's rank-at-pop revalidation makes mid-solve
    merges re-prioritise queued nodes in place. *)

type result

val solve :
  ?strategy:Pta_engine.Scheduler.strategy -> ?pre:Unify.partition ->
  Pta_ir.Prog.t -> result
(** [pre] seeds the union-find with a {!Unify.seed_partition}: the
    partition's classes start merged (leader as representative), so
    intra-class copy edges are never inserted and wave 1 skips their
    collapse. The partition is exactness-preserving by construction —
    results are bit-identical with and without it. *)

val pts : result -> Pta_ir.Inst.var -> Pta_ds.Bitset.t
(** Points-to set (object ids) of a variable. Do not mutate. *)

val points_to : result -> Pta_ir.Inst.var -> Pta_ir.Inst.var -> bool

val callgraph : result -> Pta_ir.Callgraph.t
(** On-the-fly call graph (direct edges included). *)

val rep : result -> Pta_ir.Inst.var -> Pta_ir.Inst.var
(** Cycle-collapsing representative (exposed for tests/diagnostics). *)

val n_waves : result -> int

val pre_merged : result -> int
(** Constraint-graph nodes merged by the [pre] seed (0 without one). *)

val telemetry : result -> Pta_engine.Telemetry.phase
(** Engine telemetry (phase ["andersen.solve"]; extras [waves],
    [scc_merges], [propagated]). *)
