(* Tests for Andersen's analysis: handwritten cases with exact expected
   points-to sets, structural properties (cycle collapsing, call graph), and
   differential testing of the wave-propagation solver against the naive
   reference on randomly generated mini-C programs. *)

open Pta_ir

let compile = Pta_cfront.Lower.compile

let obj_by_name p name =
  let r = ref (-1) in
  Prog.iter_objects p (fun o -> if Prog.name p o = name then r := o);
  if !r < 0 then Alcotest.failf "object %s not found" name;
  !r

let pts_names p r v =
  List.sort String.compare
    (List.map (Prog.name p) (Pta_ds.Bitset.elements (Pta_andersen.Solver.pts r v)))

let check_pt p r vname expected =
  let v = ref (-1) in
  Prog.iter_vars p (fun x -> if Prog.name p x = vname then v := x);
  if !v < 0 then Alcotest.failf "variable %s not found" vname;
  Alcotest.(check (list string)) vname (List.sort String.compare expected)
    (pts_names p r !v)

(* ---------- handwritten cases ---------- *)

let test_basic_flow () =
  let p = compile {|
    global g;
    func main() {
      var x, y;
      x = malloc();
      g = x;
      y = g;
      *y = y;
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "g.o" [ "main.heap1" ];
  check_pt p r "main.heap1" [ "main.heap1" ]

let test_copy_chain () =
  let p = compile {|
    func main() {
      var a, b, c, d;
      a = malloc();
      b = a; c = b; d = c;
      *d = a;
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "main.heap1" [ "main.heap1" ]

let test_load_store () =
  let p = compile {|
    global g;
    func main() {
      var x, y, z;
      x = malloc();
      y = malloc();
      *x = y;
      z = *x;
      g = z;
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "main.heap1" [ "main.heap2" ];
  check_pt p r "g.o" [ "main.heap2" ]

let test_fields () =
  let p = compile {|
    global g, h;
    func main() {
      var x, y;
      x = malloc();
      y = malloc();
      x->a = y;
      g = x->a;
      h = x->b;
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "g.o" [ "main.heap2" ];
  check_pt p r "h.o" []

let test_flow_insensitive_merge () =
  let p = compile {|
    global g;
    func main() {
      var x, a, b;
      x = malloc();
      a = malloc();
      b = malloc();
      *x = a;
      *x = b;
      g = *x;
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "g.o" [ "main.heap2"; "main.heap3" ]

let test_interproc_params_and_ret () =
  let p = compile {|
    global g;
    func id(v) { return v; }
    func main() {
      var x, y;
      x = malloc();
      y = id(x);
      g = y;
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "g.o" [ "main.heap1" ]

let test_indirect_call () =
  let p = compile {|
    global g, fp;
    func sink(v) { g = v; }
    func main() {
      var x;
      fp = &sink;
      x = malloc();
      (*fp)(x);
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "g.o" [ "main.heap1" ];
  let cg = Pta_andersen.Solver.callgraph r in
  let sink = Option.get (Prog.func_by_name p "sink") in
  Alcotest.(check bool) "sink is indirect target" true
    (Callgraph.is_indirect_target cg sink.Prog.id)

let test_cycle_collapsing () =
  (* a and c in a copy cycle share a representative and points-to set *)
  let p = Prog.create () in
  let b = Builder.create p ~name:"main" ~param_names:[] in
  let x, _ = Builder.alloc b ~kind:Prog.Heap "h" in
  let a = Builder.phi b [ x ] in
  let c = Builder.phi b [ a; x ] in
  ignore c;
  Builder.return b None;
  Builder.finish b;
  Prog.set_entry p (Builder.fn b).Prog.id;
  let r = Pta_andersen.Solver.solve p in
  Alcotest.(check bool) "a and c same set" true
    (Pta_ds.Bitset.equal (Pta_andersen.Solver.pts r a) (Pta_andersen.Solver.pts r c))

let test_recursion () =
  let p = compile {|
    global g;
    func walk(n) {
      var m;
      m = *n;
      if (m == null) { return n; }
      g = walk(m);
      return g;
    }
    func main() {
      var x, y;
      x = malloc();
      y = malloc();
      *x = y;
      g = walk(x);
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  let g = obj_by_name p "g.o" in
  let names = pts_names p r g in
  Alcotest.(check bool) "g contains heap1" true (List.mem "main.heap1" names);
  Alcotest.(check bool) "g contains heap2" true (List.mem "main.heap2" names)

let test_no_fields_on_functions () =
  (* [fp->f] where fp points to a function: no field object is created *)
  let p = compile {|
    global g;
    func f0(x) { return x; }
    func main() {
      var fp, r;
      fp = &f0;
      r = fp->oops;
      g = r;
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "g.o" [];
  let has_func_field = ref false in
  Prog.iter_objects p (fun o ->
      match Prog.obj_kind p o with
      | Prog.FieldOf { base; _ } when Prog.is_function_obj p base <> None ->
        has_func_field := true
      | _ -> ());
  Alcotest.(check bool) "no field-of-function objects" false !has_func_field

let test_deep_deref_chain () =
  let p = compile {|
    global g;
    func main() {
      var a, b, c, d, r;
      a = malloc();
      b = malloc();
      c = malloc();
      d = malloc();
      *a = b;
      *b = c;
      *c = d;
      r = ***a;
      g = r;
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "g.o" [ "main.heap4" ]

let test_field_through_call () =
  let p = compile {|
    global g;
    func set_field(o, v) { o->data = v; }
    func get_field(o) { return o->data; }
    func main() {
      var h, v, r;
      h = malloc();
      v = malloc();
      set_field(h, v);
      r = get_field(h);
      g = r;
    }
  |} in
  let r = Pta_andersen.Solver.solve p in
  check_pt p r "g.o" [ "main.heap2" ]

(* ---------- structural properties ---------- *)

let test_waves_terminate () =
  let cfg = Pta_workload.Gen.small_random 99 in
  let p = compile (Pta_workload.Gen.source cfg) in
  let r = Pta_andersen.Solver.solve p in
  Alcotest.(check bool) "few waves" true (Pta_andersen.Solver.n_waves r < 64)

(* Waves, SCC merges, call-graph edges, the number of variables with a
   non-empty points-to set, and the engine's pops (which the [`Topo] ranks
   steer) for two suite programs at scale 0.2, recorded before the
   per-wave SCC pass stopped rebuilding a condensed copy graph. Tarjan must
   see the same condensation (successors canonicalised onto
   representatives, ascending), so every figure is fixed. *)
let golden_accounting =
  [ ("bash", [ 9; 104; 50; 879; 1672 ]);
    ("hyriseConsole", [ 10; 275; 81; 1620; 3061 ]) ]

let test_golden_accounting () =
  List.iter
    (fun (name, expected) ->
      let e = Option.get (Pta_workload.Suite.find ~scale:0.2 name) in
      let p = compile (Pta_workload.Gen.source e.Pta_workload.Suite.cfg) in
      let r = Pta_andersen.Solver.solve p in
      let nonempty = ref 0 in
      Prog.iter_vars p (fun v ->
          if not (Pta_ds.Bitset.is_empty (Pta_andersen.Solver.pts r v)) then
            incr nonempty);
      let tel = Pta_andersen.Solver.telemetry r in
      let actual =
        [ Pta_andersen.Solver.n_waves r; Pta_engine.Telemetry.extra tel "scc_merges";
          Callgraph.n_edges (Pta_andersen.Solver.callgraph r); !nonempty;
          tel.Pta_engine.Telemetry.pops ]
      in
      Alcotest.(check (list int))
        (name ^ ": waves, scc_merges, call edges, non-empty sets, pops")
        expected actual)
    golden_accounting

(* ---------- differential: fast solver vs naive reference ---------- *)

let agree_on_program src =
  let p = compile src in
  Validate.check_exn p;
  let fast = Pta_andersen.Solver.solve p in
  let slow = Pta_andersen.Naive.solve p in
  let ok = ref true in
  Prog.iter_vars p (fun v ->
      if
        not
          (Pta_ds.Bitset.equal
             (Pta_andersen.Solver.pts fast v)
             (Pta_andersen.Naive.pts slow v))
      then ok := false);
  let edges cg =
    let acc = ref [] in
    Callgraph.iter_edges cg (fun cs g ->
        acc := (cs.Callgraph.cs_func, cs.Callgraph.cs_inst, g) :: !acc);
    List.sort compare !acc
  in
  !ok
  && edges (Pta_andersen.Solver.callgraph fast)
     = edges (Pta_andersen.Naive.callgraph slow)

(* Regression for the engine rework: an SCC that only materialises in a
   later wave (its edges come from complex-constraint expansion, not from
   syntactic copies) must still be collapsed, re-ranked and re-propagated.
   Here [*p = x; y = *q; *q = y] builds the copy cycle h1 -> y -> h1 during
   wave 1's expansion, so the collapse happens mid-solve in wave 2. *)
let test_midsolve_collapse () =
  let src = {|
    global g;
    func main() {
      var p, q, x, y;
      p = malloc();
      q = p;
      x = p;
      *p = x;
      y = *q;
      *q = y;
      g = y;
    }
  |} in
  let p = compile src in
  let r = Pta_andersen.Solver.solve p in
  Alcotest.(check bool) "needs a second wave" true (Pta_andersen.Solver.n_waves r >= 2);
  let h1 = obj_by_name p "main.heap1" in
  (* mem2reg promotes [y] into SSA temporaries, so assert on the collapse
     itself: the heap object's representative must have absorbed at least
     one of the load/store temporaries forming the cycle. *)
  let merged = ref 0 in
  Prog.iter_vars p (fun v ->
      if v <> h1 && Pta_andersen.Solver.rep r v = Pta_andersen.Solver.rep r h1
      then incr merged);
  Alcotest.(check bool)
    "h1's SCC absorbed the cycle's temporaries" true (!merged >= 1);
  check_pt p r "main.heap1" [ "main.heap1" ];
  check_pt p r "g.o" [ "main.heap1" ];
  (* same fixpoint as the naive oracle and under every scheduler *)
  let slow = Pta_andersen.Naive.solve p in
  List.iter
    (fun strategy ->
      let rs = Pta_andersen.Solver.solve ~strategy p in
      Prog.iter_vars p (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s agrees with naive under %s" (Prog.name p v)
               (Pta_engine.Scheduler.name strategy))
            true
            (Pta_ds.Bitset.equal
               (Pta_andersen.Solver.pts rs v)
               (Pta_andersen.Naive.pts slow v))))
    Pta_engine.Scheduler.all

(* Pin the deferred-GEP flush order (see [flush_deferred_geps] in
   lib/andersen/solver.ml). Field objects are numbered by first
   materialisation, triples are consed during the complex-constraint walk
   and flushed as-is — i.e. in REVERSE discovery order — and those ids end
   up inside points-to bitsets, so every run that must be comparable
   bit-for-bit (sequential vs pool worker, cold vs warm) depends on this
   exact sequence. If this test breaks, the numbering of field objects
   changed: that invalidates persisted store artifacts and any cross-run
   bit-identity, so don't re-pin casually. *)
let test_deferred_gep_order () =
  let p = compile {|
    global g;
    func main() {
      var q, r;
      if (q == r) { q = malloc(); } else { q = malloc(); }
      q->a = q;
      g = q->b;
      r = q;
      r->c = g;
    }
  |} in
  ignore (Pta_andersen.Solver.solve p);
  let field_objs = ref [] in
  Prog.iter_objects p (fun o ->
      match Prog.obj_kind p o with
      | Prog.FieldOf _ -> field_objs := Prog.name p o :: !field_objs
      | _ -> ());
  Alcotest.(check (list string))
    "field objects materialise in reverse discovery order"
    [
      "main.heap2.f2";
      "main.heap1.f2";
      "main.heap2.f3";
      "main.heap1.f3";
      "main.heap2.f1";
      "main.heap1.f1";
    ]
    (List.rev !field_objs)

(* ---------- unification: seed exactness and tier soundness ---------- *)

module Unify = Pta_andersen.Unify

(* The swap loop's phis form a copy cycle (a -> t -> b -> a through the
   loop-carried phi bindings), so the seed partition has something real to
   merge; the indirect-call source exercises the edges the partition must
   NOT include (call bindings resolved on the fly). *)
let swap_src =
  {|
  global g;
  func main() {
    var a, b, t;
    a = malloc();
    b = malloc();
    while (a != b) { t = a; a = b; b = t; }
    g = a;
    *b = g;
  }
|}

let icall_src =
  {|
  global g;
  func f(p) { g = p; return p; }
  func h(p) { return p; }
  func main() {
    var fp, x, y;
    if (x == y) { fp = &f; } else { fp = &h; }
    x = malloc();
    y = fp(x);
    y->a = y;
  }
|}

let unify_srcs = [ swap_src; icall_src ]

let test_seed_partition_invariants () =
  let p = compile swap_src in
  let part = Unify.seed_partition p in
  let n = Array.length part.Unify.leader in
  let merged = ref 0 in
  Array.iteri
    (fun v l ->
      Alcotest.(check bool) "leader is smallest member" true (l <= v);
      Alcotest.(check int) "leader idempotent" l part.Unify.leader.(l);
      if l <> v then incr merged)
    part.Unify.leader;
  Alcotest.(check int) "merged counted" part.Unify.merged !merged;
  Alcotest.(check int) "classes" (n - part.Unify.merged) part.Unify.classes;
  Alcotest.(check bool) "swap loop merges its phi cycle" true
    (part.Unify.merged > 0)

(* The seeded solve must be bit-identical to the plain one: same points-to
   set for every variable, same call graph. Compile twice — solving interns
   field objects into the program, so each run needs a fresh start. *)
let check_seeded_identical src =
  let p0 = compile src in
  let r0 = Pta_andersen.Solver.solve p0 in
  let p1 = compile src in
  let r1 = Pta_andersen.Solver.solve ~pre:(Unify.seed_partition p1) p1 in
  Alcotest.(check int) "same var table" (Prog.n_vars p0) (Prog.n_vars p1);
  Prog.iter_vars p0 (fun v ->
      if
        not
          (Pta_ds.Bitset.equal
             (Pta_andersen.Solver.pts r0 v)
             (Pta_andersen.Solver.pts r1 v))
      then Alcotest.failf "seeded pts differ for %s" (Prog.name p0 v));
  let edges r =
    let acc = ref [] in
    Callgraph.iter_edges (Pta_andersen.Solver.callgraph r) (fun cs g ->
        acc := (cs.Callgraph.cs_func, cs.Callgraph.cs_inst, g) :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check bool) "same call graph" true (edges r0 = edges r1)

let test_seed_bit_identity () = List.iter check_seeded_identical unify_srcs

let unify_bounds_andersen p =
  let r = Pta_andersen.Solver.solve p in
  let u = Unify.solve p in
  let ok = ref true in
  Prog.iter_vars p (fun v ->
      if
        not
          (Pta_ds.Bitset.subset (Pta_andersen.Solver.pts r v) (Unify.pts u v))
      then ok := false);
  !ok

let test_unify_superset () =
  List.iter
    (fun src ->
      Alcotest.(check bool) "unify pts bound Andersen pts" true
        (unify_bounds_andersen (compile src)))
    unify_srcs

let prop_seed_identical =
  QCheck2.Test.make ~name:"unify-seeded Andersen = plain Andersen" ~count:40
    QCheck2.Gen.(20_001 -- 30_000)
    (fun seed ->
      let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random seed) in
      let p0 = compile src in
      let r0 = Pta_andersen.Solver.solve p0 in
      let p1 = compile src in
      let r1 = Pta_andersen.Solver.solve ~pre:(Unify.seed_partition p1) p1 in
      let ok = ref (Prog.n_vars p0 = Prog.n_vars p1) in
      Prog.iter_vars p0 (fun v ->
          if
            !ok
            && not
                 (Pta_ds.Bitset.equal
                    (Pta_andersen.Solver.pts r0 v)
                    (Pta_andersen.Solver.pts r1 v))
          then ok := false);
      !ok)

let prop_unify_superset =
  QCheck2.Test.make ~name:"unification tier bounds Andersen" ~count:40
    QCheck2.Gen.(30_001 -- 40_000)
    (fun seed ->
      let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random seed) in
      unify_bounds_andersen (compile src))

let prop_differential =
  QCheck2.Test.make ~name:"wave solver = naive solver on random programs"
    ~count:60
    QCheck2.Gen.(0 -- 10_000)
    (fun seed ->
      let cfg = Pta_workload.Gen.small_random seed in
      agree_on_program (Pta_workload.Gen.source cfg))

let prop_generated_valid =
  QCheck2.Test.make ~name:"generated programs are valid partial SSA" ~count:60
    QCheck2.Gen.(10_001 -- 20_000)
    (fun seed ->
      let cfg = Pta_workload.Gen.small_random seed in
      let p = compile (Pta_workload.Gen.source cfg) in
      Validate.check p = [])

let prop_deterministic =
  QCheck2.Test.make ~name:"generator is deterministic" ~count:20
    QCheck2.Gen.(0 -- 1_000)
    (fun seed ->
      let cfg = Pta_workload.Gen.small_random seed in
      Pta_workload.Gen.source cfg = Pta_workload.Gen.source cfg)

let () =
  Alcotest.run "pta_andersen"
    [
      ( "handwritten",
        [
          Alcotest.test_case "basic flow" `Quick test_basic_flow;
          Alcotest.test_case "copy chain" `Quick test_copy_chain;
          Alcotest.test_case "load/store" `Quick test_load_store;
          Alcotest.test_case "fields" `Quick test_fields;
          Alcotest.test_case "flow-insensitive merge" `Quick
            test_flow_insensitive_merge;
          Alcotest.test_case "interprocedural" `Quick test_interproc_params_and_ret;
          Alcotest.test_case "indirect call" `Quick test_indirect_call;
          Alcotest.test_case "cycles" `Quick test_cycle_collapsing;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "no fields on functions" `Quick
            test_no_fields_on_functions;
          Alcotest.test_case "deep deref chain" `Quick test_deep_deref_chain;
          Alcotest.test_case "field through call" `Quick test_field_through_call;
          Alcotest.test_case "deferred GEP order" `Quick
            test_deferred_gep_order;
        ] );
      ( "structure",
        [
          Alcotest.test_case "waves bounded" `Quick test_waves_terminate;
          Alcotest.test_case "golden accounting" `Quick test_golden_accounting;
          Alcotest.test_case "mid-solve collapse" `Quick test_midsolve_collapse;
        ] );
      ( "unify",
        [
          Alcotest.test_case "seed partition invariants" `Quick
            test_seed_partition_invariants;
          Alcotest.test_case "seeded solve bit-identical" `Quick
            test_seed_bit_identity;
          Alcotest.test_case "unify tier bounds Andersen" `Quick
            test_unify_superset;
          QCheck_alcotest.to_alcotest prop_seed_identical;
          QCheck_alcotest.to_alcotest prop_unify_superset;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_generated_valid;
          QCheck_alcotest.to_alcotest prop_deterministic;
        ] );
    ]
