(* Tests for the SFS baseline: flow-sensitive precision (strong updates,
   ordering), soundness against Andersen's, the on-the-fly call graph, and
   differential testing against the dense ICFG solver on random programs. *)

open Pta_ir
module Svfg = Pta_svfg.Svfg

let prepare src =
  let p = Pta_cfront.Lower.compile src in
  Validate.check_exn p;
  let r = Pta_andersen.Solver.solve p in
  let aux =
    { Pta_memssa.Modref.pt = Pta_andersen.Solver.pts r;
      cg = Pta_andersen.Solver.callgraph r }
  in
  Pta_memssa.Singleton.refine p ~cg:aux.Pta_memssa.Modref.cg;
  (p, r, aux)

let solve_sfs (p, _, aux) =
  let svfg = Svfg.build p aux in
  (Pta_sfs.Sfs.solve svfg, svfg)

let var_by_name p name =
  let r = ref (-1) in
  Prog.iter_vars p (fun v -> if Prog.name p v = name then r := v);
  if !r < 0 then Alcotest.failf "var %s not found" name;
  !r

let names p set =
  List.sort String.compare
    (List.map (Prog.name p) (Pta_ds.Bitset.elements set))

(* ---------- precision: strong updates ---------- *)

let test_strong_update_kills () =
  (* The second store through the singleton slot kills the first: the load
     sees only heap2; Andersen would see both. *)
  let src = {|
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
  |} in
  let ((p, aux_r, _) as st) = prepare src in
  let sfs, _ = solve_sfs st in
  let go = var_by_name p "g.o" in
  Alcotest.(check (list string)) "andersen sees both"
    [ "main.heap1"; "main.heap2" ]
    (names p (Pta_andersen.Solver.pts aux_r go));
  (* the loaded temp's flow-sensitive points-to set is {heap2} *)
  let main = Option.get (Prog.func_by_name p "main") in
  let loaded = ref [] in
  for i = 0 to Prog.n_insts main - 1 do
    match Prog.inst main i with
    | Inst.Load { lhs; _ } -> loaded := lhs :: !loaded
    | _ -> ()
  done;
  (* the last load in source order reads *p1 *)
  let lhs = List.hd !loaded in
  Alcotest.(check (list string)) "strong update kills heap1" [ "main.heap2" ]
    (names p (Pta_sfs.Sfs.pt sfs lhs))

let test_weak_update_keeps () =
  (* p may point to two slots: no strong update, both values survive *)
  let src = {|
    func main() {
      var a, b, p1, h1, h2, r;
      if (h1 == h2) { p1 = &a; } else { p1 = &b; }
      h1 = malloc();
      h2 = malloc();
      *p1 = h1;
      *p1 = h2;
      r = *p1;
      return r;
    }
  |} in
  let ((p, _, _) as st) = prepare src in
  let sfs, _ = solve_sfs st in
  let main = Option.get (Prog.func_by_name p "main") in
  let loaded = ref [] in
  for i = 0 to Prog.n_insts main - 1 do
    match Prog.inst main i with
    | Inst.Load { lhs; _ } -> loaded := lhs :: !loaded
    | _ -> ()
  done;
  let lhs = List.hd !loaded in
  Alcotest.(check (list string)) "weak update keeps both"
    [ "main.heap1"; "main.heap2" ]
    (names p (Pta_sfs.Sfs.pt sfs lhs))

let test_heap_never_strong () =
  (* stores through a heap object are always weak *)
  let src = {|
    func main() {
      var h, v1, v2, r;
      h = malloc();
      v1 = malloc();
      v2 = malloc();
      *h = v1;
      *h = v2;
      r = *h;
      return r;
    }
  |} in
  let ((p, _, _) as st) = prepare src in
  let sfs, _ = solve_sfs st in
  let main = Option.get (Prog.func_by_name p "main") in
  let loaded = ref [] in
  for i = 0 to Prog.n_insts main - 1 do
    match Prog.inst main i with
    | Inst.Load { lhs; _ } -> loaded := lhs :: !loaded
    | _ -> ()
  done;
  let lhs = List.hd !loaded in
  Alcotest.(check (list string)) "heap weak"
    [ "main.heap2"; "main.heap3" ]
    (names p (Pta_sfs.Sfs.pt sfs lhs))

(* ---------- flow-sensitivity across branches ---------- *)

let test_branch_merge () =
  let src = {|
    func main() {
      var a, p1, h1, h2, r;
      p1 = &a;
      h1 = malloc();
      h2 = malloc();
      if (h1 == h2) { *p1 = h1; } else { *p1 = h2; }
      r = *p1;
      return r;
    }
  |} in
  let ((p, _, _) as st) = prepare src in
  let sfs, _ = solve_sfs st in
  let main = Option.get (Prog.func_by_name p "main") in
  let loaded = ref [] in
  for i = 0 to Prog.n_insts main - 1 do
    match Prog.inst main i with
    | Inst.Load { lhs; _ } -> loaded := lhs :: !loaded
    | _ -> ()
  done;
  let lhs = List.hd !loaded in
  Alcotest.(check (list string)) "merge keeps both"
    [ "main.heap1"; "main.heap2" ]
    (names p (Pta_sfs.Sfs.pt sfs lhs))

let test_load_before_store () =
  (* a load sequenced before the store must not see the stored value
     (Andersen would) *)
  let src = {|
    global g;
    func main() {
      var a, p1, early, h;
      p1 = &a;
      early = *p1;
      h = malloc();
      *p1 = h;
      g = early;
    }
  |} in
  let ((p, aux_r, _) as st) = prepare src in
  let sfs, _ = solve_sfs st in
  let main = Option.get (Prog.func_by_name p "main") in
  let first_load = ref (-1) in
  for i = Prog.n_insts main - 1 downto 0 do
    match Prog.inst main i with
    | Inst.Load { lhs; _ } -> first_load := lhs
    | _ -> ()
  done;
  Alcotest.(check (list string)) "early load sees nothing" []
    (names p (Pta_sfs.Sfs.pt sfs !first_load));
  (* whereas Andersen merges *)
  Alcotest.(check (list string)) "andersen merges" [ "main.heap1" ]
    (names p (Pta_andersen.Solver.pts aux_r !first_load))

let test_field_separation () =
  (* stores to distinct fields of the same object stay separate *)
  let src = {|
    func main() {
      var h, v1, v2, r1, r2;
      h = malloc();
      v1 = malloc();
      v2 = malloc();
      h->a = v1;
      h->b = v2;
      r1 = h->a;
      r2 = h->b;
      return r1;
    }
  |} in
  let ((p, _, _) as st) = prepare src in
  let sfs, _ = solve_sfs st in
  let loads = ref [] in
  let main = Option.get (Prog.func_by_name p "main") in
  for i = 0 to Prog.n_insts main - 1 do
    match Prog.inst main i with
    | Inst.Load { lhs; _ } -> loads := lhs :: !loads
    | _ -> ()
  done;
  (* last two loads (in reverse order: r2 then r1) *)
  match !loads with
  | r2 :: r1 :: _ ->
    Alcotest.(check (list string)) "r1 = v1" [ "main.heap2" ]
      (names p (Pta_sfs.Sfs.pt sfs r1));
    Alcotest.(check (list string)) "r2 = v2" [ "main.heap3" ]
      (names p (Pta_sfs.Sfs.pt sfs r2))
  | _ -> Alcotest.fail "expected two loads"

let test_counters () =
  let ((_, _, _) as st) = prepare "func main() { var a, p1; p1 = &a; *p1 = p1; a = *p1; }" in
  let sfs, _ = solve_sfs st in
  Alcotest.(check bool) "sets counted" true (Pta_sfs.Sfs.n_sets sfs > 0);
  Alcotest.(check bool) "words counted" true (Pta_sfs.Sfs.words sfs > 0);
  Alcotest.(check bool) "pops counted" true (Pta_sfs.Sfs.processed sfs > 0)

(* ---------- golden Table III accounting ---------- *)

(* SFS's set accounting and work on two suite programs at scale 0.2, pinned
   to the values of the hash-table layout that per-slot arrays replaced:
   [n_sets], [words], [unshared_words], propagations, pops, and the indirect
   edge count after solving (late call edges included). The pool is reset
   first because a pooled set's word count depends on how it was built. *)
let golden_accounting =
  [
    ("bash", [ 12831; 13172; 130157; 41789; 36668; 19605 ]);
    ("hyriseConsole", [ 26046; 26730; 376906; 132884; 102000; 41107 ]);
  ]

(* Dense's pops on two suite programs at scale 0.15 under its
   SCC-topological order (FIFO pops 5183 and 5962 here), and its answers,
   which must equal SFS's for every variable and every live object's
   flow-insensitive collapse. *)
let golden_dense_pops = [ ("du", 782); ("dpkg", 1207) ]

let test_golden_accounting () =
  List.iter
    (fun (name, expected) ->
      Pta_ds.Ptset.reset ();
      let e = Option.get (Pta_workload.Suite.find ~scale:0.2 name) in
      let b =
        Pta_workload.Pipeline.build_source
          (Pta_workload.Gen.source e.Pta_workload.Suite.cfg)
      in
      let svfg = Pta_workload.Pipeline.fresh_svfg b in
      let r = Pta_sfs.Sfs.solve svfg in
      Alcotest.(check (list int))
        (name ^ ": sets, words, unshared, props, pops, edges")
        expected
        Pta_sfs.Sfs.
          [
            n_sets r; words r; unshared_words r; n_propagations r; processed r;
            Svfg.n_indirect_edges svfg + Wired.n_call_edges svfg (callgraph r);
          ])
    golden_accounting;
  List.iter
    (fun (name, pops) ->
      let e = Option.get (Pta_workload.Suite.find ~scale:0.15 name) in
      let b =
        Pta_workload.Pipeline.build_source
          (Pta_workload.Gen.source e.Pta_workload.Suite.cfg)
      in
      let p = b.Pta_workload.Pipeline.prog in
      let dense = Pta_sfs.Dense.solve p b.Pta_workload.Pipeline.aux in
      Alcotest.(check int) (name ^ ": dense pops") pops
        (Pta_sfs.Dense.processed dense);
      let sfs = Pta_sfs.Sfs.solve (Pta_workload.Pipeline.fresh_svfg b) in
      let sfs_obj = Pta_sfs.Sfs.object_pts sfs
      and dense_obj = Pta_sfs.Dense.object_pts dense in
      Prog.iter_vars p (fun v ->
          if
            not
              (Pta_ds.Bitset.equal (Pta_sfs.Sfs.pt sfs v)
                 (Pta_sfs.Dense.pt dense v))
          then Alcotest.failf "%s: dense and SFS differ on %s" name
              (Prog.name p v);
          if
            Prog.is_object p v && (not (Prog.is_dead p v))
            && not (Pta_ds.Bitset.equal sfs_obj.(v) dense_obj.(v))
          then Alcotest.failf "%s: dense and SFS objects differ on %s" name
              (Prog.name p v)))
    golden_dense_pops

(* ---------- on-the-fly call graph ---------- *)

let test_otf_callgraph_precision () =
  (* fp is strongly updated to &g2 before the call: FS call graph sees only
     g2, while Andersen (flow-insensitive) sees both. *)
  let src = {|
    global gp;
    func g1(x) { return x; }
    func g2(x) { return x; }
    func main() {
      var r, h;
      h = malloc();
      gp = &g1;
      gp = &g2;
      r = (*gp)(h);
      return r;
    }
  |} in
  let ((p, aux_r, _) as st) = prepare src in
  let sfs, _ = solve_sfs st in
  let cg_fs = Pta_sfs.Sfs.callgraph sfs in
  let cg_aux = Pta_andersen.Solver.callgraph aux_r in
  let targets cg =
    let main = Option.get (Prog.func_by_name p "main") in
    let call_i = ref (-1) in
    for i = 0 to Prog.n_insts main - 1 do
      match Prog.inst main i with
      | Inst.Call { callee = Inst.Indirect _; _ } -> call_i := i
      | _ -> ()
    done;
    List.sort Int.compare
      (Callgraph.targets cg { Callgraph.cs_func = main.Prog.id; cs_inst = !call_i })
  in
  let g1 = (Option.get (Prog.func_by_name p "g1")).Prog.id in
  let g2 = (Option.get (Prog.func_by_name p "g2")).Prog.id in
  Alcotest.(check (list int)) "aux sees both" [ g1; g2 ] (targets cg_aux);
  Alcotest.(check (list int)) "fs sees only g2" [ g2 ] (targets cg_fs)

(* ---------- soundness & differential ---------- *)

let sfs_within_andersen seed =
  let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random seed) in
  let ((p, aux_r, _) as st) = prepare src in
  let sfs, _ = solve_sfs st in
  let ok = ref true in
  Prog.iter_vars p (fun v ->
      if Prog.is_top p v then
        if
          not
            (Pta_ds.Bitset.subset (Pta_sfs.Sfs.pt sfs v)
               (Pta_andersen.Solver.pts aux_r v))
        then ok := false);
  !ok

let prop_soundness =
  QCheck2.Test.make ~name:"SFS within Andersen on random programs" ~count:40
    QCheck2.Gen.(0 -- 5_000)
    sfs_within_andersen

let dense_agrees seed =
  let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random seed) in
  let ((p, _, aux) as st) = prepare src in
  let sfs, _ = solve_sfs st in
  let dense = Pta_sfs.Dense.solve p aux in
  let ok = ref true in
  Prog.iter_vars p (fun v ->
      if Prog.is_top p v then
        if not (Pta_ds.Bitset.equal (Pta_sfs.Sfs.pt sfs v) (Pta_sfs.Dense.pt dense v))
        then ok := false);
  !ok

let prop_dense_differential =
  QCheck2.Test.make
    ~name:"SFS = dense ICFG flow-sensitive analysis on random programs"
    ~count:40
    QCheck2.Gen.(5_001 -- 10_000)
    dense_agrees

let () =
  Alcotest.run "pta_sfs"
    [
      ( "strong-updates",
        [
          Alcotest.test_case "singleton kill" `Quick test_strong_update_kills;
          Alcotest.test_case "weak keeps" `Quick test_weak_update_keeps;
          Alcotest.test_case "heap weak" `Quick test_heap_never_strong;
        ] );
      ( "flow",
        [
          Alcotest.test_case "branch merge" `Quick test_branch_merge;
          Alcotest.test_case "load before store" `Quick test_load_before_store;
          Alcotest.test_case "field separation" `Quick test_field_separation;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "golden accounting" `Quick test_golden_accounting;
        ] );
      ( "callgraph",
        [ Alcotest.test_case "otf more precise" `Quick test_otf_callgraph_precision ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_soundness;
          QCheck_alcotest.to_alcotest prop_dense_differential;
        ] );
    ]
