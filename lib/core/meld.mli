(** Generic meld labelling on directed graphs (§IV-B, Fig. 3).

    Extends a prelabelling by repeatedly melding each node's label with its
    incoming neighbours' labels until fixpoint. Nodes unreachable from any
    prelabelled node finish with ε. The [frozen] predicate reproduces the
    versioning variant where prelabelled nodes never change (δ nodes and
    store yields); the plain Fig. 3 process passes [frozen = fun _ -> false].

    This module is the abstract algorithm used in the paper's Fig. 4 example
    and in property tests; {!Versioning} computes the same fixpoint on the
    SVFG one object at a time, in a single pass over each object's SCC
    condensation. *)

val run :
  ?frozen:(int -> bool) ->
  Version.table ->
  Pta_graph.Digraph.t ->
  prelabels:(int * Version.t) list ->
  Version.t array
(** [run table g ~prelabels] returns the fixpoint label of every node.
    Unlisted nodes start at ε. *)
