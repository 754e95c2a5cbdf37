(** Strongly connected components (iterative Tarjan).

    The solvers rely on two facts about the result: component ids partition
    the nodes, and [topo_rank] is a valid topological order of the
    condensation (sources first). Processing SVFG nodes by increasing rank is
    the scheduling SVF uses for the flow-sensitive solvers and for meld
    labelling. *)

type result = {
  comp : int array;  (** node -> component id *)
  n_comps : int;
  topo_rank : int array;
      (** component id -> rank; [topo_rank c < topo_rank c'] whenever there
          is an edge from component [c] to component [c'] *)
  sizes : int array;  (** component id -> number of member nodes *)
}

val compute : Digraph.t -> result

val compute_succs : n:int -> (int -> int list) -> result
(** The same over nodes [0 .. n - 1] whose successors [succs v] lists, in
    visiting order; [succs] is called once per node. {!compute} is this
    over the digraph's ascending successor sets. *)

val rank_of_node : result -> int -> int
(** [rank_of_node r v] is [r.topo_rank.(r.comp.(v))]. *)

val is_trivial : Digraph.t -> result -> int -> bool
(** A component is trivial if it has one node and no self loop. Nodes in
    non-trivial components are "in a cycle" (used e.g. to rule out strong
    updates on objects allocated in recursion-reachable code). *)

val members : result -> int -> int list
(** Nodes of a component (linear scan; for tests and small graphs). *)
