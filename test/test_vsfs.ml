(* Tests for the paper's core contribution: hash-consed versions and the
   meld operator laws (§IV-B), generic meld labelling, SVFG versioning
   invariants (§IV-C), and VSFS itself — including the precision-equality
   theorem (§IV-E) checked differentially against SFS on random programs. *)

open Pta_ir
module Svfg = Pta_svfg.Svfg
module V = Vsfs_core.Version
module Meld = Vsfs_core.Meld
module Versioning = Vsfs_core.Versioning
module Vsfs = Vsfs_core.Vsfs
module Equiv = Vsfs_core.Equiv

(* ---------- meld operator laws ---------- *)

(* random version expressions over a pool of prelabels *)
let gen_three_versions =
  QCheck2.Gen.(
    bind (list_size (3 -- 12) (0 -- 5)) (fun picks ->
        return picks))

let versions_from_picks table picks =
  let pool = Array.init 6 (fun i -> V.fresh table ~table_label:(string_of_int i)) in
  let rec build acc = function
    | [] -> acc
    | p :: rest -> build (V.meld table acc pool.(p)) rest
  in
  match picks with
  | a :: b :: c :: rest ->
    let k1 = pool.(a) and k2 = pool.(b) in
    let k3 = build pool.(c) rest in
    (k1, k2, k3)
  | _ -> (V.epsilon, V.epsilon, V.epsilon)

let prop_meld_laws =
  QCheck2.Test.make ~name:"meld is ACI with identity ε" ~count:300
    gen_three_versions (fun picks ->
      let table = V.create () in
      let k1, k2, k3 = versions_from_picks table picks in
      let ( @. ) = V.meld table in
      k1 @. k2 = k2 @. k1
      && k1 @. (k2 @. k3) = (k1 @. k2) @. k3
      && k1 @. k1 = k1
      && k1 @. V.epsilon = k1
      && V.epsilon @. k1 = k1)

let prop_meld_is_label_union =
  QCheck2.Test.make ~name:"meld = union of prelabel sets" ~count:300
    gen_three_versions (fun picks ->
      let table = V.create () in
      let k1, k2, _ = versions_from_picks table picks in
      let m = V.meld table k1 k2 in
      V.labels table m
      = List.sort_uniq Int.compare (V.labels table k1 @ V.labels table k2))

let test_version_hashconsing () =
  let table = V.create () in
  let a = V.fresh table ~table_label:"a" in
  let b = V.fresh table ~table_label:"b" in
  let ab = V.meld table a b in
  let ba = V.meld table b a in
  Alcotest.(check int) "structural sharing" ab ba;
  Alcotest.(check bool) "distinct from parts" true (ab <> a && ab <> b);
  Alcotest.(check int) "n_prelabels" 2 (V.n_prelabels table);
  (* ε, a, b, ab *)
  Alcotest.(check int) "n_versions" 4 (V.n_versions table);
  Alcotest.(check bool) "epsilon" true (V.is_epsilon V.epsilon)

let test_seal () =
  let table = V.create () in
  let a = V.fresh table ~table_label:"a" in
  let b = V.fresh table ~table_label:"b" in
  let ab = V.meld table a b in
  let n = V.n_versions table in
  V.seal table;
  Alcotest.(check int) "count survives seal" n (V.n_versions table);
  Alcotest.(check bool) "words reclaimed" true (V.words table < 16);
  Alcotest.check_raises "meld after seal"
    (Invalid_argument "Version.meld: table sealed") (fun () ->
      ignore (V.meld table a b));
  Alcotest.check_raises "labels after seal"
    (Invalid_argument "Version.labels: table sealed") (fun () ->
      ignore (V.labels table ab));
  Alcotest.(check bool) "ids still comparable" true (a <> b && ab <> a);
  V.seal table (* idempotent *)

(* ---------- generic meld labelling (Fig. 3 / Fig. 4) ---------- *)

let test_meld_labelling_fig4_style () =
  (* Two prelabelled sources; nodes reachable from both get the melded
     label; unreachable nodes stay ε; nodes with the same reaching prelabel
     set share a label even with different predecessors. *)
  let g = Pta_graph.Digraph.create ~n:9 () in
  List.iter
    (fun (u, v) -> ignore (Pta_graph.Digraph.add_edge g u v))
    [ (0, 3); (1, 3); (0, 4); (3, 5); (4, 5); (1, 6); (3, 7); (6, 7) ];
  (* node 8 unreachable *)
  let table = V.create () in
  let circle = V.fresh table ~table_label:"circle" in
  let star = V.fresh table ~table_label:"star" in
  let labels = Meld.run table g ~prelabels:[ (0, circle); (1, star) ] in
  Alcotest.(check int) "node 4 sees circle" circle labels.(4);
  let melded = V.meld table circle star in
  Alcotest.(check int) "node 3 melds both" melded labels.(3);
  Alcotest.(check int) "node 5 melds both" melded labels.(5);
  Alcotest.(check int) "node 6 sees star" star labels.(6);
  (* 7 reached by 3 (melded) and 6 (star): meld = melded *)
  Alcotest.(check int) "node 7 same class as 3 and 5" melded labels.(7);
  Alcotest.(check int) "unreachable stays ε" V.epsilon labels.(8)

let test_meld_labelling_frozen () =
  (* frozen prelabelled nodes never change even with incoming edges *)
  let g = Pta_graph.Digraph.create ~n:3 () in
  ignore (Pta_graph.Digraph.add_edge g 0 1);
  ignore (Pta_graph.Digraph.add_edge g 1 2);
  ignore (Pta_graph.Digraph.add_edge g 2 0);
  let table = V.create () in
  let a = V.fresh table ~table_label:"a" in
  let b = V.fresh table ~table_label:"b" in
  let labels =
    Meld.run table g ~frozen:(fun n -> n = 0) ~prelabels:[ (0, a); (1, b) ]
  in
  Alcotest.(check int) "frozen node keeps prelabel" a labels.(0);
  Alcotest.(check int) "node 1 melds" (V.meld table a b) labels.(1)

let test_meld_labelling_cycle () =
  (* all nodes of a cycle fed by one prelabel converge to the same label *)
  let g = Pta_graph.Digraph.create ~n:4 () in
  List.iter
    (fun (u, v) -> ignore (Pta_graph.Digraph.add_edge g u v))
    [ (0, 1); (1, 2); (2, 3); (3, 1) ];
  let table = V.create () in
  let a = V.fresh table ~table_label:"a" in
  let labels = Meld.run table g ~prelabels:[ (0, a) ] in
  Alcotest.(check int) "cycle node 1" a labels.(1);
  Alcotest.(check int) "cycle node 2" a labels.(2);
  Alcotest.(check int) "cycle node 3" a labels.(3)

let prop_meld_equals_reachability =
  (* Oracle: the fixpoint label of a node is exactly the meld (set union) of
     the prelabels of all prelabelled nodes that reach it. *)
  QCheck2.Test.make ~name:"meld labelling = reachability label union" ~count:150
    QCheck2.Gen.(
      bind (2 -- 14) (fun n ->
          bind (list_size (0 -- 30) (pair (0 -- (n - 1)) (0 -- (n - 1))))
            (fun edges ->
              bind (list_size (1 -- 3) (0 -- (n - 1))) (fun pre ->
                  return (n, edges, List.sort_uniq Int.compare pre)))))
    (fun (n, edges, pre) ->
      let g = Pta_graph.Digraph.create ~n () in
      List.iter (fun (u, v) -> ignore (Pta_graph.Digraph.add_edge g u v)) edges;
      let table = V.create () in
      let prelabels =
        List.map (fun node -> (node, V.fresh table ~table_label:"p")) pre
      in
      let labels = Meld.run table g ~prelabels in
      (* reachability closure *)
      let reaches src =
        let seen = Array.make n false in
        let rec dfs v =
          if not seen.(v) then begin
            seen.(v) <- true;
            Pta_graph.Digraph.iter_succs g v dfs
          end
        in
        dfs src;
        seen
      in
      let expected = Array.make n V.epsilon in
      List.iter
        (fun (src, k) ->
          let r = reaches src in
          Array.iteri
            (fun v hit -> if hit then expected.(v) <- V.meld table expected.(v) k)
            r)
        prelabels;
      (* prelabelled nodes themselves keep at least their own prelabel; the
         unfrozen Fig. 3 process may meld more into them, which the oracle
         already accounts for via self-reachability *)
      expected = labels)

(* ---------- pipeline helpers ---------- *)

let prepare src =
  let p = Pta_cfront.Lower.compile src in
  Validate.check_exn p;
  let r = Pta_andersen.Solver.solve p in
  let aux =
    { Pta_memssa.Modref.pt = Pta_andersen.Solver.pts r;
      cg = Pta_andersen.Solver.callgraph r }
  in
  Pta_memssa.Singleton.refine p ~cg:aux.Pta_memssa.Modref.cg;
  (p, aux)

let fresh_svfg (p, aux) = Svfg.build p aux

(* ---------- versioning invariants ---------- *)

let versioning_of src =
  let pa = prepare src in
  let svfg = fresh_svfg pa in
  (fst pa, svfg, Versioning.compute ~release_labels:false svfg)

let redundancy_src =
  {|
  global g0, g1, fp;
  func build(x) { var n; n = malloc(); *x = n; n->next = x; return n; }
  func walk(x) { var c; c = x; while (c != null) { c = c->next; } return c; }
  func dispatch(x) { var r; r = (*fp)(x); return r; }
  func main() {
    var a, b, r;
    fp = &walk;
    a = malloc();
    b = build(a);
    g0 = b;
    r = walk(a);
    r = dispatch(b);
    g1 = r;
  }
  |}

let test_versioning_invariants () =
  let _, svfg, ver = versioning_of redundancy_src in
  let table = Versioning.table ver in
  let ok_subset = ref true and ok_internal = ref true and ok_delta = ref true in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    (* INTERNAL: non-store nodes yield what they consume *)
    (match Svfg.kind svfg n with
    | Svfg.NInst _ when Inst.is_store (Svfg.inst_of svfg n) -> ()
    | _ ->
      Svfg.iter_ind_all svfg n (fun o _ ->
          if Versioning.yield ver n o <> Versioning.consume ver n o then
            ok_internal := false));
    (* EXTERNAL: along each edge, the target's consumed version contains the
       source's yielded labels (unless the target is δ) *)
    Svfg.iter_ind_all svfg n (fun o m ->
        let y = Versioning.yield ver n o in
        if (not (V.is_epsilon y)) && not (Versioning.is_delta ver m) then begin
          let c = Versioning.consume ver m o in
          let sub a b =
            List.for_all (fun l -> List.mem l (V.labels table b)) (V.labels table a)
          in
          if not (sub y c) then ok_subset := false
        end);
    (* δ nodes carry a fresh prelabel: a singleton label set *)
    if Versioning.is_delta ver n then begin
      match Svfg.kind svfg n with
      | Svfg.NFormalIn { obj; _ } | Svfg.NActualOut { obj; _ } ->
        if List.length (V.labels table (Versioning.consume ver n obj)) <> 1 then
          ok_delta := false
      | _ -> ok_delta := false
    end
  done;
  Alcotest.(check bool) "INTERNAL rule" true !ok_internal;
  Alcotest.(check bool) "EXTERNAL subset" true !ok_subset;
  Alcotest.(check bool) "δ prelabels singleton" true !ok_delta

let test_versioning_counts () =
  let _, _, ver = versioning_of redundancy_src in
  Alcotest.(check bool) "some versions" true (Versioning.n_versions ver > 1);
  Alcotest.(check bool) "some reliances" true (Versioning.n_reliances ver > 0);
  Alcotest.(check bool) "versioning fast" true (Versioning.duration ver < 5.0)

let test_static_reliance_acyclic () =
  (* Static reliances go from smaller to strictly larger label sets, so the
     static reliance relation is acyclic (dynamic OTF edges may close
     cycles; staticly there must be none). *)
  let _, svfg, ver = versioning_of redundancy_src in
  (* collect static reliance edges *)
  let edges = ref [] in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    Svfg.iter_ind_all svfg n (fun o m ->
        let y = Versioning.yield ver n o in
        let c = Versioning.consume ver m o in
        if (not (V.is_epsilon y)) && y <> c then edges := (o, y, c) :: !edges)
  done;
  (* detect cycles per object with DFS over version graph *)
  let by_obj = Hashtbl.create 16 in
  List.iter
    (fun (o, y, c) ->
      Hashtbl.replace by_obj o
        ((y, c) :: Option.value ~default:[] (Hashtbl.find_opt by_obj o)))
    !edges;
  let acyclic = ref true in
  Hashtbl.iter
    (fun _ es ->
      let succs v = List.filter_map (fun (y, c) -> if y = v then Some c else None) es in
      let rec dfs path v =
        if List.mem v path then acyclic := false
        else List.iter (dfs (v :: path)) (succs v)
      in
      List.iter (fun (y, _) -> dfs [] y) es)
    by_obj;
  Alcotest.(check bool) "static reliance acyclic" true !acyclic

let test_sharing_factor () =
  let _, _, ver = versioning_of redundancy_src in
  Alcotest.(check bool) "sharing >= 1" true (Versioning.sharing_factor ver >= 1.0)

let test_key_overflow () =
  (* Every (node, object) table is keyed by the shared checked packer: an
     operand beyond the 31-bit half width must raise, not collide. *)
  let lim = Pta_ds.Pair_key.limit in
  let _, _, ver = versioning_of redundancy_src in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "node at limit rejected" true
    (raises (fun () -> Versioning.consume ver lim 0));
  Alcotest.(check bool) "object at limit rejected" true
    (raises (fun () -> Versioning.consume ver 0 lim));
  Alcotest.(check bool) "negative rejected" true
    (raises (fun () -> Versioning.consume ver (-1) 0));
  Alcotest.(check bool) "just below the limit is a plain miss" true
    (Vsfs_core.Version.is_epsilon (Versioning.consume ver (lim - 1) (lim - 1)))

(* ---------- per-object labelling vs. the Fig. 8 worklist ---------- *)

(* Test-only reference for [Versioning.compute]: the same prelabelling, then
   Fig. 8's rules run to their fixpoint by a FIFO worklist over (node,
   object) pairs, then the static reliances. Versions are compared as label
   sets, so the two numberings may differ. *)
let reference_labelling svfg =
  let module Tbl = Pta_ds.Pair_key.Tbl in
  let pack = Pta_ds.Pair_key.pack in
  let prog = Svfg.prog svfg and annot = Svfg.annot svfg in
  let cg = (Svfg.aux svfg).Pta_memssa.Modref.cg in
  let vt = V.create () in
  let consume = Tbl.create 256 and store_yield = Tbl.create 256 in
  let delta = Hashtbl.create 16 and wl = Queue.create () in
  let fresh tbl n o =
    Tbl.replace tbl (pack n o) (V.fresh vt ~table_label:"p");
    Queue.push (n, o) wl
  in
  let is_store n =
    match Svfg.kind svfg n with
    | Svfg.NInst _ -> Inst.is_store (Svfg.inst_of svfg n)
    | _ -> false
  in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    match Svfg.kind svfg n with
    | Svfg.NInst { f; i } when is_store n ->
      Pta_ds.Bitset.iter (fresh store_yield n) (Pta_memssa.Annot.chi annot f i)
    | Svfg.NFormalIn { f; obj } when Callgraph.is_indirect_target cg f ->
      Hashtbl.replace delta n ();
      fresh consume n obj
    | Svfg.NActualOut { f; call; obj } -> (
      match Prog.inst (Prog.func prog f) call with
      | Inst.Call { callee = Inst.Indirect _; _ } ->
        Hashtbl.replace delta n ();
        fresh consume n obj
      | _ -> ())
    | _ -> ()
  done;
  let get tbl n o =
    Option.value ~default:V.epsilon (Tbl.find_opt tbl (pack n o))
  in
  let yield n o = if is_store n then get store_yield n o else get consume n o in
  while not (Queue.is_empty wl) do
    let n, o = Queue.pop wl in
    let y = yield n o in
    Svfg.iter_ind_succs svfg n o (fun m ->
        if not (Hashtbl.mem delta m) then begin
          let c = get consume m o in
          let c' = V.meld vt c y in
          if c' <> c then begin
            Tbl.replace consume (pack m o) c';
            if not (is_store m) then Queue.push (m, o) wl
          end
        end)
  done;
  let reliance = Hashtbl.create 256 in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    Svfg.iter_ind_all svfg n (fun o m ->
        let y = yield n o and c = get consume m o in
        if (not (V.is_epsilon y)) && y <> c then
          Hashtbl.replace reliance (o, V.labels vt y, V.labels vt c) ())
  done;
  let bindings tbl =
    List.sort compare
      (Tbl.fold (fun k v acc -> (k, V.labels vt v) :: acc) tbl [])
  in
  ( bindings consume,
    bindings store_yield,
    List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) reliance []),
    V.n_prelabels vt,
    V.n_versions vt )

(* The per-object labelling must assign every (node, object) the label set
   the worklist fixpoint does, with the same reliances. Both intern some
   transient melds besides the final labels, in different orders: on the
   fixed programs below the per-object pass interns fewer versions, but on
   about five random programs in a thousand it interns a few more, so the
   random property leaves the version count out. *)
let labelling_matches_reference ?(check_versions = true) svfg =
  let ver = Versioning.compute ~release_labels:false svfg in
  let r_consume, r_yield, r_reliance, r_prelabels, r_versions =
    reference_labelling svfg
  in
  let vt = Versioning.table ver and raw = Versioning.export ver in
  let labelled =
    Array.fold_right (fun (k, v) acc -> (k, V.labels vt v) :: acc)
  in
  let reliance =
    Array.fold_right
      (fun (k, cs) acc ->
        let o = Pta_ds.Pair_key.hi k and y = Pta_ds.Pair_key.lo k in
        Pta_ds.Bitset.fold
          (fun c acc -> (o, V.labels vt y, V.labels vt c) :: acc)
          cs acc)
      raw.Versioning.raw_reliance []
  in
  labelled raw.Versioning.raw_consume [] = r_consume
  && labelled raw.Versioning.raw_store_yield [] = r_yield
  && List.sort compare reliance = r_reliance
  && raw.Versioning.raw_n_reliances = List.length r_reliance
  && raw.Versioning.raw_n_prelabels = r_prelabels
  && ((not check_versions) || Versioning.n_versions ver <= r_versions)

let check_labelling what src =
  Alcotest.(check bool) what true
    (labelling_matches_reference (fresh_svfg (prepare src)))

(* Every suite program has cycles in some object's subgraph, so these runs
   take the condensation path, not only chains. *)
let test_labelling_suite () =
  List.iter
    (fun (name, scale) ->
      let e = Option.get (Pta_workload.Suite.find ~scale name) in
      let what = Printf.sprintf "%s %.1f" name scale in
      let sccs = Pta_ds.Stats.get "vsfs.version_sccs" in
      check_labelling what (Pta_workload.Gen.source e.Pta_workload.Suite.cfg);
      Alcotest.(check bool) (what ^ " has non-trivial SCCs") true
        (Pta_ds.Stats.get "vsfs.version_sccs" > sccs))
    [ ("psql", 0.2); ("mruby", 0.2); ("astyle", 0.2); ("bash", 0.2);
      ("hyriseConsole", 0.2); ("lynx", 0.2); ("lynx", 0.4) ]

let test_labelling_corpus () =
  List.iter (fun (name, src) -> check_labelling name src)
    Pta_workload.Corpus.programs

let prop_labelling_random =
  QCheck2.Test.make ~name:"per-object labelling = Fig. 8 worklist" ~count:40
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (50_000 -- 60_000) (1 -- 3))
    (fun (seed, depth) ->
      let cfg =
        { (Pta_workload.Gen.small_random seed) with
          Pta_workload.Gen.max_depth = depth;
          recursion_ratio = 0.3;
          mutual_recursion_ratio = 0.2 }
      in
      labelling_matches_reference ~check_versions:false
        (fresh_svfg (prepare (Pta_workload.Gen.source cfg))))

(* ---------- VSFS precision equality ---------- *)

let equal_on src =
  let pa = prepare src in
  let svfg1 = fresh_svfg pa in
  let sfs = Pta_sfs.Sfs.solve svfg1 in
  let svfg2 = fresh_svfg pa in
  let vsfs = Vsfs.solve svfg2 in
  let report = Equiv.compare sfs vsfs svfg2 in
  if not (Equiv.is_equal report) then
    Format.eprintf "%a@." (Equiv.pp_report (fst pa)) report;
  Equiv.is_equal report

let test_equal_handwritten () =
  Alcotest.(check bool) "redundancy program" true (equal_on redundancy_src)

let test_equal_strong_updates () =
  Alcotest.(check bool) "strong updates" true
    (equal_on
       {|
       global g;
       func main() {
         var a, p1, h1, h2, r;
         p1 = &a;
         h1 = malloc();
         h2 = malloc();
         *p1 = h1;
         *p1 = h2;
         r = *p1;
         g = r;
       }
       |})

(* The unequal path: force a genuine precision divergence by running SFS
   with strong updates and VSFS without them. On a program where the second
   store kills the first, the solvers then really disagree, and the report
   must flag it and name the offending variable, sets, and load site. *)
let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_unequal_report () =
  let src =
    {|
    global g;
    func main() {
      var a, p1, h1, h2, r;
      p1 = &a;
      h1 = malloc();
      h2 = malloc();
      *p1 = h1;
      *p1 = h2;
      r = *p1;
      g = r;
    }
    |}
  in
  (* no mem2reg: keep the source names so the report is checkable *)
  let p = Pta_cfront.Lower.compile ~promote:false src in
  Validate.check_exn p;
  let r = Pta_andersen.Solver.solve p in
  let aux =
    { Pta_memssa.Modref.pt = Pta_andersen.Solver.pts r;
      cg = Pta_andersen.Solver.callgraph r }
  in
  Pta_memssa.Singleton.refine p ~cg:aux.Pta_memssa.Modref.cg;
  let pa = (p, aux) in
  let sfs = Pta_sfs.Sfs.solve ~strong_updates:true (fresh_svfg pa) in
  let svfg2 = fresh_svfg pa in
  let vsfs = Vsfs.solve ~strong_updates:false svfg2 in
  let report = Equiv.compare sfs vsfs svfg2 in
  Alcotest.(check bool) "divergence detected" false (Equiv.is_equal report);
  Alcotest.(check bool) "top-level mismatch recorded" true
    (report.Equiv.top_level_mismatches <> []);
  Alcotest.(check bool) "load mismatch recorded" true
    (report.Equiv.load_mismatches <> []);
  let text = Format.asprintf "%a" (Equiv.pp_report (fst pa)) report in
  Alcotest.(check bool) "report names a diverging variable" true
    (contains ~needle:"top-level main.l" text);
  Alcotest.(check bool) "report names the killed-store object" true
    (contains ~needle:"object main.a" text);
  Alcotest.(check bool) "report names the reloaded local" true
    (contains ~needle:"object main.r" text);
  Alcotest.(check bool) "report shows both sides' sets" true
    (contains ~needle:"sfs={" text && contains ~needle:"vsfs={" text)

let test_equal_indirect_recursion () =
  Alcotest.(check bool) "indirect recursion" true
    (equal_on
       {|
       global fp, g;
       func even(x) { var r; if (x == null) { return x; } r = (*fp)(x); return r; }
       func odd(x) { var r; r = even(x); g = r; return r; }
       func main() {
         var h;
         fp = &odd;
         h = malloc();
         odd(h);
       }
       |})

let prop_vsfs_equals_sfs =
  QCheck2.Test.make ~name:"VSFS = SFS on random programs (precision equality)"
    ~count:40
    QCheck2.Gen.(0 -- 5_000)
    (fun seed ->
      equal_on (Pta_workload.Gen.source (Pta_workload.Gen.small_random seed)))

let prop_vsfs_equals_dense =
  QCheck2.Test.make ~name:"VSFS = dense on random programs" ~count:25
    QCheck2.Gen.(20_000 -- 25_000)
    (fun seed ->
      let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random seed) in
      let ((p, aux) as pa) = prepare src in
      let vsfs = Vsfs.solve (fresh_svfg pa) in
      let dense = Pta_sfs.Dense.solve p aux in
      let ok = ref true in
      Prog.iter_vars p (fun v ->
          if Prog.is_top p v then
            if
              not
                (Pta_ds.Bitset.equal (Vsfs.pt vsfs v) (Pta_sfs.Dense.pt dense v))
            then ok := false);
      !ok)

let prop_version_sharing_theorem =
  (* The paper's Eq. (1)-(3): equal consumed versions imply equal points-to
     sets — checked against SFS's independently computed IN sets. For every
     object, all SVFG nodes with the same consumed version must have equal
     SFS IN sets for that object. *)
  QCheck2.Test.make ~name:"C_l(o) = C_l'(o) implies equal SFS IN sets"
    ~count:25
    QCheck2.Gen.(40_000 -- 42_000)
    (fun seed ->
      let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random seed) in
      let pa = prepare src in
      let sfs = Pta_sfs.Sfs.solve (fresh_svfg pa) in
      let svfg = fresh_svfg pa in
      let ver = Versioning.compute svfg in
      (* run VSFS so that dynamic (on-the-fly) reliances exist too; versions
         are not changed by solving, only reliances are added *)
      ignore (Vsfs.solve ~versioning:ver svfg);
      let empty = Pta_ds.Bitset.create () in
      let groups : (int * int, Pta_ds.Bitset.t) Hashtbl.t = Hashtbl.create 64 in
      let ok = ref true in
      for n = 0 to Svfg.n_nodes svfg - 1 do
        (* consider consumed versions at every node/object with an in-edge *)
        Svfg.iter_ind_all svfg n (fun o m ->
            let c = Versioning.consume ver m o in
            if not (V.is_epsilon c) then begin
              let in_set =
                Option.value ~default:empty (Pta_sfs.Sfs.in_set sfs m o)
              in
              match Hashtbl.find_opt groups (o, c) with
              | Some expected ->
                if not (Pta_ds.Bitset.equal expected in_set) then ok := false
              | None -> Hashtbl.add groups (o, c) in_set
            end)
      done;
      !ok)

(* ---------- sharing actually happens ---------- *)

let test_fewer_sets_than_sfs () =
  let pa = prepare redundancy_src in
  let sfs = Pta_sfs.Sfs.solve (fresh_svfg pa) in
  let vsfs = Vsfs.solve (fresh_svfg pa) in
  Alcotest.(check bool) "vsfs stores fewer sets" true
    (Vsfs.n_sets vsfs < Pta_sfs.Sfs.n_sets sfs);
  Alcotest.(check bool) "vsfs propagates less" true
    (Vsfs.n_propagations vsfs < Pta_sfs.Sfs.n_propagations sfs)

let test_version_sharing_soundness () =
  (* along every edge, pt of the yielded version is contained in pt of the
     consumed version at the target (or they are the same version) *)
  let pa = prepare redundancy_src in
  let svfg = fresh_svfg pa in
  let ver = Versioning.compute svfg in
  let vsfs = Vsfs.solve ~versioning:ver svfg in
  let empty = Pta_ds.Bitset.create () in
  let ok = ref true in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    Svfg.iter_ind_all svfg n (fun o m ->
        let y = Versioning.yield ver n o in
        let c = Versioning.consume ver m o in
        if y <> c then begin
          let py = Option.value ~default:empty (Vsfs.pt_version vsfs o y) in
          let pc = Option.value ~default:empty (Vsfs.pt_version vsfs o c) in
          if not (Pta_ds.Bitset.subset py pc) then ok := false
        end)
  done;
  Alcotest.(check bool) "pt_Y ⊆ pt_C along edges" true !ok

(* ---------- worklist strategies agree ---------- *)

let test_dynamic_reliance_registered () =
  (* After solving a program with an indirect call, the on-the-fly edge's
     version reliance must have been registered: the ActualIn's yielded
     version relies into the δ FormalIn prelabel. *)
  let pa = prepare {|
    global fp, g;
    func sink(x) { g = *x; }
    func main() {
      var a, h;
      fp = &sink;
      a = malloc();
      *a = a;
      (*fp)(a);
    }
  |} in
  let svfg = fresh_svfg pa in
  let ver = Versioning.compute svfg in
  ignore (Vsfs.solve ~versioning:ver svfg);
  let p = fst pa in
  let sink = (Option.get (Prog.func_by_name p "sink")).Prog.id in
  let heap = ref (-1) in
  Prog.iter_objects p (fun o -> if Prog.name p o = "main.heap1" then heap := o);
  match Svfg.formal_in svfg sink !heap with
  | None -> Alcotest.fail "formal-in missing"
  | Some fi ->
    Alcotest.(check bool) "formal-in is delta" true (Versioning.is_delta ver fi);
    let c = Versioning.consume ver fi !heap in
    (* some version relies into the δ prelabel *)
    let found = ref false in
    for n = 0 to Svfg.n_nodes svfg - 1 do
      Svfg.iter_ind_all svfg n (fun o _ ->
          if o = !heap then begin
            let y = Versioning.yield ver n o in
            Versioning.iter_relied ver o y (fun v -> if v = c then found := true)
          end)
    done;
    Alcotest.(check bool) "dynamic reliance into δ" true !found

let test_collapsible_versions () =
  let pa = prepare redundancy_src in
  let vsfs = Vsfs.solve (fresh_svfg pa) in
  let excess, total = Vsfs.collapsible_versions vsfs in
  Alcotest.(check bool) "bounded" true (excess >= 0 && excess < total)

(* Both solvers wire a call edge's memory edges once, on its first
   discovery: the [call_edges] counter must equal the flow-sensitive call
   graph's edge count. A solver that rescans the callee's mod/ref on every
   pop of the call node counts more. *)
let test_call_edges_wired_once () =
  let e = Option.get (Pta_workload.Suite.find ~scale:0.2 "bash") in
  let pa = prepare (Pta_workload.Gen.source e.Pta_workload.Suite.cfg) in
  let check what cg tel =
    let n = Callgraph.n_edges cg in
    Alcotest.(check bool) (what ^ " has call edges") true (n > 0);
    Alcotest.(check int) (what ^ " call_edges") n
      (Pta_engine.Telemetry.extra tel "call_edges")
  in
  let sfs = Pta_sfs.Sfs.solve (fresh_svfg pa) in
  check "sfs" (Pta_sfs.Sfs.callgraph sfs) (Pta_sfs.Sfs.telemetry sfs);
  let vsfs = Vsfs.solve (fresh_svfg pa) in
  check "vsfs" (Vsfs.callgraph vsfs) (Vsfs.telemetry vsfs);
  let indirect = ref false in
  Prog.iter_funcs (fst pa) (fun fn ->
      for i = 0 to Prog.n_insts fn - 1 do
        match Prog.inst fn i with
        | Inst.Call { callee = Inst.Indirect _; _ } -> indirect := true
        | _ -> ()
      done);
  Alcotest.(check bool) "program has indirect calls" true !indirect

let () =
  Alcotest.run "vsfs"
    [
      ( "meld-operator",
        [
          QCheck_alcotest.to_alcotest prop_meld_laws;
          QCheck_alcotest.to_alcotest prop_meld_is_label_union;
          Alcotest.test_case "hash-consing" `Quick test_version_hashconsing;
          Alcotest.test_case "seal" `Quick test_seal;
        ] );
      ( "meld-labelling",
        [
          Alcotest.test_case "fig4-style" `Quick test_meld_labelling_fig4_style;
          QCheck_alcotest.to_alcotest prop_meld_equals_reachability;
          Alcotest.test_case "frozen" `Quick test_meld_labelling_frozen;
          Alcotest.test_case "cycle" `Quick test_meld_labelling_cycle;
        ] );
      ( "versioning",
        [
          Alcotest.test_case "invariants" `Quick test_versioning_invariants;
          Alcotest.test_case "counts" `Quick test_versioning_counts;
          Alcotest.test_case "static reliance acyclic" `Quick
            test_static_reliance_acyclic;
          Alcotest.test_case "sharing factor" `Quick test_sharing_factor;
          Alcotest.test_case "packed-key overflow" `Quick test_key_overflow;
          Alcotest.test_case "labelling = reference (suite)" `Slow
            test_labelling_suite;
          Alcotest.test_case "labelling = reference (corpus)" `Quick
            test_labelling_corpus;
          QCheck_alcotest.to_alcotest prop_labelling_random;
        ] );
      ( "precision-equality",
        [
          Alcotest.test_case "handwritten" `Quick test_equal_handwritten;
          Alcotest.test_case "strong updates" `Quick test_equal_strong_updates;
          Alcotest.test_case "unequal path reported" `Quick
            test_unequal_report;
          Alcotest.test_case "indirect recursion" `Quick
            test_equal_indirect_recursion;
          QCheck_alcotest.to_alcotest prop_vsfs_equals_sfs;
          QCheck_alcotest.to_alcotest prop_version_sharing_theorem;
          QCheck_alcotest.to_alcotest prop_vsfs_equals_dense;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "fewer sets" `Quick test_fewer_sets_than_sfs;
          Alcotest.test_case "sharing soundness" `Quick
            test_version_sharing_soundness;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "collapsible versions" `Quick
            test_collapsible_versions;
          Alcotest.test_case "dynamic reliance" `Quick
            test_dynamic_reliance_registered;
          Alcotest.test_case "call edges wired once" `Quick
            test_call_edges_wired_once;
        ] );
    ]
