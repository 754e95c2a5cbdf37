(* Tests for pta_graph: digraphs, SCC against a brute-force reachability
   oracle, dominators against the naive O(n^2) definition, and dominance
   frontiers / iterated frontiers. *)

open Pta_graph

(* ---------- random graph generator ---------- *)

let gen_graph =
  QCheck2.Gen.(
    bind (2 -- 24) (fun n ->
        bind (list_size (0 -- 60) (pair (0 -- (n - 1)) (0 -- (n - 1))))
          (fun edges -> return (n, edges))))

let build (n, edges) =
  let g = Digraph.create ~n () in
  List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
  g

(* ---------- digraph unit tests ---------- *)

let test_digraph_basic () =
  let g = Digraph.create ~n:3 () in
  Alcotest.(check bool) "new edge" true (Digraph.add_edge g 0 1);
  Alcotest.(check bool) "dup edge" false (Digraph.add_edge g 0 1);
  Alcotest.(check int) "edges" 1 (Digraph.n_edges g);
  Alcotest.(check bool) "has" true (Digraph.has_edge g 0 1);
  Alcotest.(check bool) "not has" false (Digraph.has_edge g 1 0);
  Alcotest.(check int) "out" 1 (Digraph.out_degree g 0);
  Alcotest.(check int) "in" 1 (Digraph.in_degree g 1);
  Alcotest.(check bool) "removed" true (Digraph.remove_edge g 0 1);
  Alcotest.(check bool) "remove missing" false (Digraph.remove_edge g 0 1);
  Alcotest.(check int) "edges back to 0" 0 (Digraph.n_edges g)

let test_digraph_grow () =
  let g = Digraph.create () in
  ignore (Digraph.add_edge g 5 9);
  Alcotest.(check int) "auto-grown" 10 (Digraph.n_nodes g);
  let id = Digraph.add_node g in
  Alcotest.(check int) "next id" 10 id

let test_transpose () =
  let g = build (4, [ (0, 1); (1, 2); (2, 3); (3, 0) ]) in
  let t = Digraph.transpose g in
  Alcotest.(check bool) "reversed" true (Digraph.has_edge t 1 0);
  Alcotest.(check bool) "no forward" false (Digraph.has_edge t 0 1);
  Alcotest.(check int) "same count" (Digraph.n_edges g) (Digraph.n_edges t)

(* ---------- SCC ---------- *)

let reach g =
  let n = Digraph.n_nodes g in
  let r = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    r.(i).(i) <- true;
    Digraph.iter_succs g i (fun j -> r.(i).(j) <- true)
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if r.(i).(k) && r.(k).(j) then r.(i).(j) <- true
      done
    done
  done;
  r

let test_scc_simple () =
  (* 0 -> 1 <-> 2 -> 3, 3 -> 3 *)
  let g = build (4, [ (0, 1); (1, 2); (2, 1); (2, 3); (3, 3) ]) in
  let scc = Scc.compute g in
  Alcotest.(check int) "three comps" 3 scc.Scc.n_comps;
  Alcotest.(check bool) "1 and 2 together" true
    (scc.Scc.comp.(1) = scc.Scc.comp.(2));
  Alcotest.(check bool) "0 alone" true (scc.Scc.comp.(0) <> scc.Scc.comp.(1));
  Alcotest.(check bool) "0 trivial" true (Scc.is_trivial g scc 0);
  Alcotest.(check bool) "1 not trivial" false (Scc.is_trivial g scc 1);
  Alcotest.(check bool) "3 self-loop not trivial" false (Scc.is_trivial g scc 3);
  Alcotest.(check (list int)) "members" [ 1; 2 ] (Scc.members scc scc.Scc.comp.(1))

let prop_scc_equiv =
  QCheck2.Test.make ~name:"SCC = mutual reachability" ~count:200 gen_graph
    (fun spec ->
      let g = build spec in
      let scc = Scc.compute g in
      let r = reach g in
      let n = Digraph.n_nodes g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let together = scc.Scc.comp.(i) = scc.Scc.comp.(j) in
          let mutual = r.(i).(j) && r.(j).(i) in
          if together <> mutual then ok := false
        done
      done;
      !ok)

let prop_scc_topo =
  QCheck2.Test.make ~name:"SCC topo_rank respects edges" ~count:200 gen_graph
    (fun spec ->
      let g = build spec in
      let scc = Scc.compute g in
      let ok = ref true in
      Digraph.iter_edges g (fun u v ->
          if scc.Scc.comp.(u) <> scc.Scc.comp.(v) then
            if Scc.rank_of_node scc u >= Scc.rank_of_node scc v then ok := false);
      !ok)

(* ---------- dominators ---------- *)

(* Naive dominators: a dominates b (both reachable) iff removing a makes b
   unreachable from the entry. *)
let naive_dominates g entry a b =
  if a = b then true
  else begin
    let n = Digraph.n_nodes g in
    let without_a = Array.make n false in
    let rec dfs v =
      if (not without_a.(v)) && v <> a then begin
        without_a.(v) <- true;
        Digraph.iter_succs g v (fun w -> dfs w)
      end
    in
    if entry <> a then dfs entry;
    let reachable = Array.make n false in
    let rec dfs2 v =
      if not reachable.(v) then begin
        reachable.(v) <- true;
        Digraph.iter_succs g v (fun w -> dfs2 w)
      end
    in
    dfs2 entry;
    reachable.(b) && not without_a.(b)
  end

let gen_rooted_graph =
  (* A spine from 0 guarantees everything is reachable; extra random edges
     create joins and loops. *)
  QCheck2.Gen.(
    bind (2 -- 16) (fun n ->
        bind (list_size (0 -- 40) (pair (0 -- (n - 1)) (0 -- (n - 1))))
          (fun extra ->
            let spine = List.init (n - 1) (fun i -> (i, i + 1)) in
            return (n, spine @ extra))))

let prop_dominators =
  QCheck2.Test.make ~name:"CHK dominators = naive dominators" ~count:120
    gen_rooted_graph (fun spec ->
      let g = build spec in
      let dom = Dom.compute g ~entry:0 in
      let n = Digraph.n_nodes g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Dom.dominates dom a b <> naive_dominates g 0 a b then ok := false
        done
      done;
      !ok)

let test_dom_diamond () =
  let g = build (4, [ (0, 1); (0, 2); (1, 3); (2, 3) ]) in
  let dom = Dom.compute g ~entry:0 in
  Alcotest.(check int) "idom 3 = 0" 0 dom.Dom.idom.(3);
  Alcotest.(check int) "idom 1 = 0" 0 dom.Dom.idom.(1);
  let df = Dom.dom_frontier g dom in
  Alcotest.(check (list int)) "df(1) = {3}" [ 3 ] (Pta_ds.Bitset.elements df.(1));
  Alcotest.(check (list int)) "df(2) = {3}" [ 3 ] (Pta_ds.Bitset.elements df.(2));
  Alcotest.(check (list int)) "df(0) empty" [] (Pta_ds.Bitset.elements df.(0))

let test_dom_loop () =
  let g = build (4, [ (0, 1); (1, 2); (2, 1); (2, 3) ]) in
  let dom = Dom.compute g ~entry:0 in
  let df = Dom.dom_frontier g dom in
  Alcotest.(check (list int)) "df(2) = {1}" [ 1 ] (Pta_ds.Bitset.elements df.(2));
  Alcotest.(check (list int)) "df(1) = {1}" [ 1 ] (Pta_ds.Bitset.elements df.(1));
  let idf = Dom.iterated_frontier df [ 2 ] in
  Alcotest.(check (list int)) "DF+(2) = {1}" [ 1 ] (Pta_ds.Bitset.elements idf)

let test_iterated_frontier_chain () =
  (* An inner diamond joining at 5, whose result joins 2's path at 6: a def
     at 3 needs phis at both joins. *)
  let g =
    build
      (7, [ (0, 1); (0, 2); (1, 3); (1, 4); (3, 5); (4, 5); (5, 6); (2, 6) ])
  in
  let dom = Dom.compute g ~entry:0 in
  let df = Dom.dom_frontier g dom in
  let idf = Dom.iterated_frontier df [ 3 ] in
  Alcotest.(check (list int)) "DF+(3) = {5,6}" [ 5; 6 ]
    (Pta_ds.Bitset.elements idf)

let test_dom_tree_children () =
  let g = build (4, [ (0, 1); (0, 2); (1, 3); (2, 3) ]) in
  let dom = Dom.compute g ~entry:0 in
  let children = Dom.dom_tree_children dom in
  Alcotest.(check (list int)) "children of 0" [ 1; 2; 3 ]
    (List.sort Int.compare children.(0));
  Alcotest.(check (list int)) "leaf" [] children.(3)

let test_unreachable () =
  let g = build (4, [ (0, 1); (2, 3) ]) in
  let dom = Dom.compute g ~entry:0 in
  Alcotest.(check int) "unreachable idom" (-1) dom.Dom.idom.(2);
  let order = Order.dfs g ~entry:0 in
  Alcotest.(check bool) "0 reachable" true (Order.reachable order 0);
  Alcotest.(check bool) "3 unreachable" false (Order.reachable order 3)

(* ---------- orders ---------- *)

let prop_rpo_wellformed =
  QCheck2.Test.make ~name:"RPO covers each reachable node once" ~count:200
    gen_rooted_graph (fun spec ->
      let g = build spec in
      let order = Order.dfs g ~entry:0 in
      let rpo = Order.reverse_postorder order in
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun v ->
          if Hashtbl.mem seen v then failwith "duplicate in RPO";
          Hashtbl.add seen v ())
        rpo;
      Array.length rpo = Digraph.n_nodes g
      && Array.for_all (fun v -> Order.reachable order v) rpo)

let () =
  Alcotest.run "pta_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "grow" `Quick test_digraph_grow;
          Alcotest.test_case "transpose" `Quick test_transpose;
        ] );
      ( "scc",
        [
          Alcotest.test_case "simple" `Quick test_scc_simple;
          QCheck_alcotest.to_alcotest prop_scc_equiv;
          QCheck_alcotest.to_alcotest prop_scc_topo;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dom_diamond;
          Alcotest.test_case "loop" `Quick test_dom_loop;
          Alcotest.test_case "nested diamonds" `Quick test_iterated_frontier_chain;
          Alcotest.test_case "dom-tree children" `Quick test_dom_tree_children;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          QCheck_alcotest.to_alcotest prop_dominators;
        ] );
      ("orders", [ QCheck_alcotest.to_alcotest prop_rpo_wellformed ]);
    ]
