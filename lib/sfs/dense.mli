(** Dense (ICFG-based) flow-sensitive points-to analysis.

    The traditional formulation (Eq. 4-5): IN/OUT maps from objects to
    points-to sets at every ICFG node, propagated along control-flow edges —
    no memory SSA, no SVFG. Top-level variables still use global sets
    (partial SSA), and call/return edges carry the same per-object filters
    the SVFG encodes with its call-boundary nodes (inflow into callees, mods
    out of callees, everything across the call site weakly).

    Because it shares no construction code with {!Sfs} beyond the top-level
    rules, agreement between the two on arbitrary programs is a strong
    differential test of memory-SSA and SVFG construction. It is quadratic-
    ish and only used on test-sized programs and in benchmarks as the
    "traditional analysis" ablation. Runs on {!Pta_engine.Engine} (phase
    ["dense.solve"]; the worklist pops ICFG nodes in topological order of
    the static graph's SCC condensation). *)

open Pta_ir

type result

val solve : Pta_ir.Prog.t -> Pta_memssa.Modref.aux -> result
(** [aux] supplies the auxiliary mod/ref used for call-edge filtering (the
    call graph itself is re-resolved flow-sensitively). *)

val pt : result -> Inst.var -> Pta_ds.Bitset.t
val object_pts : result -> Pta_ds.Bitset.t array
(** Flow-insensitive collapse of every object, indexed by variable id
    (empty for non-objects): the union of its IN and OUT sets over all ICFG
    nodes, in one pass over both tables. The sets are fresh. *)

val callgraph : result -> Callgraph.t
val n_sets : result -> int
val words : result -> int
val telemetry : result -> Pta_engine.Telemetry.phase
val processed : result -> int
