(* Regenerates the paper's illustrative figures:

     dune exec examples/motivating.exe -- fig1   IR with χ/μ + indirect edges
     dune exec examples/motivating.exe -- fig2   SFS vs VSFS on the motivating fragment
     dune exec examples/motivating.exe -- fig4   meld labelling on an abstract graph
     dune exec examples/motivating.exe -- fig9   prelabelling + versioning states
     (no argument: print all) *)

open Pta_ir
module Svfg = Pta_svfg.Svfg
module V = Vsfs_core.Version

(* ---------- Fig. 1: C code -> IR with annotations and indirect edges ----- *)

let fig1 () =
  Format.printf "=== Fig. 1: IR with χ/μ annotations and indirect edges ===@.";
  (* In the paper's spirit: one address-taken slot written through a pointer
     and read back, yielding indirect value-flow edges. *)
  let source =
    {|
    func main() {
      var a, p, q, x;
      p = &a;            // pt(p) = {a}
      q = p;             // pt(q) = {a}
      *p = q;            // store, chi(a)
      x = *q;            // load, mu(a)
    }
    |}
  in
  let built = Pta_workload.Pipeline.build_source source in
  let prog = built.Pta_workload.Pipeline.prog in
  let svfg = Pta_workload.Pipeline.fresh_svfg built in
  let annot = Svfg.annot svfg in
  let name v = Prog.name prog v in
  Prog.iter_funcs prog (fun fn ->
      Format.printf "func %s:@." fn.Prog.fname;
      for i = 0 to Prog.n_insts fn - 1 do
        match Prog.inst fn i with
        | Inst.Branch -> ()
        | ins ->
          Format.printf "  L%d: %a" i (Printer.pp_inst prog) ins;
          let mu = Pta_memssa.Annot.mu annot fn.Prog.id i in
          let chi = Pta_memssa.Annot.chi annot fn.Prog.id i in
          Pta_ds.Bitset.iter (fun o -> Format.printf "   μ(%s)" (name o)) mu;
          Pta_ds.Bitset.iter
            (fun o -> Format.printf "   %s = χ(%s)" (name o) (name o))
            chi;
          Format.printf "@."
      done);
  Format.printf "indirect value-flow edges:@.";
  for n = 0 to Svfg.n_nodes svfg - 1 do
    Svfg.iter_ind_all svfg n (fun o m ->
        Format.printf "  %a --%s--> %a@." (Svfg.pp_node svfg) n (name o)
          (Svfg.pp_node svfg) m)
  done;
  Format.printf "@."

(* ---------- Figs. 2/5/7/9: the motivating fragment ---------------------- *)

(* The abstract SVFG fragment of Fig. 2a: two stores and three loads of the
   same object o, with the def-use edges
     l1 -> l2, l1 -> l3, l1 -> l4, l1 -> l5, l2 -> l4, l2 -> l5.
   SFS stores an IN set at l2..l5 and an OUT set at l1, l2 (6 sets, 6 edge
   propagations); versioning shares them into 3 global sets with 2 version
   propagations. *)

type frag_node = { fid : int; fname : string; is_store : bool }

let fragment =
  ( [
      { fid = 1; fname = "l1"; is_store = true };
      { fid = 2; fname = "l2"; is_store = true };
      { fid = 3; fname = "l3"; is_store = false };
      { fid = 4; fname = "l4"; is_store = false };
      { fid = 5; fname = "l5"; is_store = false };
    ],
    [ (1, 2); (1, 3); (1, 4); (1, 5); (2, 4); (2, 5) ] )

let version_fragment () =
  let nodes, edges = fragment in
  let table = V.create () in
  (* Prelabelling (Fig. 5): stores yield fresh versions. *)
  let yield0 = Hashtbl.create 8 and consume = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if n.is_store then
        Hashtbl.replace yield0 n.fid (V.fresh table))
    nodes;
  let yield_of n =
    match Hashtbl.find_opt yield0 n.fid with
    | Some v -> v
    | None -> ( (* non-store: yields what it consumes *)
      match Hashtbl.find_opt consume n.fid with Some v -> v | None -> V.epsilon)
  in
  let consume_of fid =
    match Hashtbl.find_opt consume fid with Some v -> v | None -> V.epsilon
  in
  (* Meld labelling (Figs. 7/9) to fixpoint. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (src, dst) ->
        let n = List.find (fun x -> x.fid = src) nodes in
        let y = yield_of n in
        let c = consume_of dst in
        let merged = V.meld table c y in
        if merged <> c then begin
          Hashtbl.replace consume dst merged;
          changed := true
        end)
      edges
  done;
  (table, nodes, edges, consume_of, yield_of)

let fig9 () =
  Format.printf
    "=== Figs. 5/7/9: prelabelling and versioning of the fragment ===@.";
  let table, nodes, _, consume_of, yield_of = version_fragment () in
  Format.printf "%-6s %-10s %-10s@." "node" "consume" "yield";
  List.iter
    (fun n ->
      Format.printf "%-6s %-10s %-10s@." n.fname
        (Format.asprintf "%a" (V.pp table) (consume_of n.fid))
        (Format.asprintf "%a" (V.pp table) (yield_of n)))
    nodes;
  Format.printf "@."

let fig2 () =
  Format.printf "=== Fig. 2(b): SFS vs VSFS on the motivating fragment ===@.";
  let _, nodes, edges, consume_of, yield_of = version_fragment () in
  (* SFS: one IN set per node with incoming edges, one OUT per store. *)
  let sfs_sets =
    List.length (List.filter (fun n -> n.is_store) nodes)
    + List.length
        (List.sort_uniq compare (List.map (fun (_, dst) -> dst) edges))
  in
  let sfs_props = List.length edges in
  (* VSFS: one set per distinct non-ε version; one propagation per edge
     whose yield and consume differ. *)
  let versions =
    List.sort_uniq compare
      (List.concat_map
         (fun n -> [ consume_of n.fid; yield_of n ])
         nodes)
  in
  let vsfs_sets =
    List.length (List.filter (fun v -> not (V.is_epsilon v)) versions)
  in
  (* VSFS propagates between *versions*, so several edges with the same
     (yield, consume) pair are a single propagation constraint. *)
  let vsfs_props =
    List.length
      (List.sort_uniq compare
         (List.filter_map
            (fun (src, dst) ->
              let n = List.find (fun x -> x.fid = src) nodes in
              let y = yield_of n and c = consume_of dst in
              if y <> c then Some (y, c) else None)
            edges))
  in
  Format.printf "%-22s %6s %6s@." "" "SFS" "VSFS";
  Format.printf "%-22s %6d %6d@." "points-to sets" sfs_sets vsfs_sets;
  Format.printf "%-22s %6d %6d@." "propagation constraints" sfs_props vsfs_props;
  Format.printf
    "(paper: 6 sets -> 3 sets, 6 propagation constraints -> 2)@.@."

(* ---------- Fig. 4: meld labelling on an abstract digraph --------------- *)

let fig4 () =
  Format.printf "=== Fig. 4: meld labelling of a prelabelled digraph ===@.";
  let g = Pta_graph.Digraph.create ~n:9 () in
  List.iter
    (fun (u, v) -> ignore (Pta_graph.Digraph.add_edge g u v))
    [ (0, 3); (1, 3); (0, 4); (3, 5); (4, 5); (1, 6); (3, 7); (6, 7); (5, 8) ];
  let table = V.create () in
  let circle = V.fresh table in
  let star = V.fresh table in
  let labels = Vsfs_core.Meld.run table g ~prelabels:[ (0, circle); (1, star) ] in
  let show v =
    if v = circle then "●"
    else if v = star then "★"
    else if V.is_epsilon v then "ε"
    else "●★"
  in
  Array.iteri (fun i v -> Format.printf "node %d: %s@." i (show v)) labels;
  Format.printf
    "(nodes with the same label rely on the same prelabelled sources)@.@."

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let run = function
    | "fig1" -> fig1 ()
    | "fig2" -> fig2 ()
    | "fig4" -> fig4 ()
    | "fig5" | "fig7" | "fig9" -> fig9 ()
    | other -> Format.printf "unknown figure %s@." other
  in
  if which = "all" then List.iter run [ "fig1"; "fig2"; "fig4"; "fig9" ]
  else run which
