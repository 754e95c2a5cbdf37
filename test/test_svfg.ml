(* Tests for SVFG construction: node inventory, intraprocedural def-use
   edges from memory-SSA renaming, MEMPHI placement, call-boundary wiring,
   direct edges, and SSA invariants (each load has exactly one reaching
   definition per object). *)

open Pta_ir
module Svfg = Pta_svfg.Svfg

let prepare src =
  let p = Pta_cfront.Lower.compile src in
  Validate.check_exn p;
  let r = Pta_andersen.Solver.solve p in
  ( p,
    { Pta_memssa.Modref.pt = Pta_andersen.Solver.pts r;
      cg = Pta_andersen.Solver.callgraph r } )

let build src =
  let p, aux = prepare src in
  (p, Svfg.build p aux)

(* Reverse indirect edges: (dst, obj) -> src list. *)
let in_edges svfg =
  let tbl = Hashtbl.create 64 in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    Svfg.iter_ind_all svfg n (fun o m ->
        Hashtbl.replace tbl (m, o)
          (n :: Option.value ~default:[] (Hashtbl.find_opt tbl (m, o))))
  done;
  tbl

let find_nodes svfg pred =
  let acc = ref [] in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    if pred n (Svfg.kind svfg n) then acc := n :: !acc
  done;
  List.rev !acc

let obj_by_name p name =
  let r = ref (-1) in
  Prog.iter_objects p (fun o -> if Prog.name p o = name then r := o);
  if !r < 0 then Alcotest.failf "object %s not found" name;
  !r

(* ---------- straight-line def-use ---------- *)

let test_store_to_load_edge () =
  let p, svfg = build {|
    func main() {
      var a, b, x;
      a = malloc();
      x = &b;
      *x = a;      // store into b's slot... b is promoted; use &-pattern
      a = *x;
    }
  |} in
  let o = obj_by_name p "main.b" in
  let stores =
    find_nodes svfg (fun n k ->
        match k with
        | Svfg.NInst _ -> Inst.is_store (Svfg.inst_of svfg n)
        | _ -> false)
  in
  let loads =
    find_nodes svfg (fun n k ->
        match k with
        | Svfg.NInst _ -> Inst.is_load (Svfg.inst_of svfg n)
        | _ -> false)
  in
  Alcotest.(check int) "one store" 1 (List.length stores);
  Alcotest.(check int) "one load" 1 (List.length loads);
  let store = List.hd stores and load = List.hd loads in
  let found = ref false in
  Svfg.iter_ind_succs svfg store o (fun m -> if m = load then found := true);
  Alcotest.(check bool) "store --b--> load" true !found

let test_load_single_reaching_def () =
  (* SSA invariant: every (load, object) has exactly one incoming edge. *)
  let check_program src =
    let p, svfg = build src in
    ignore p;
    let ins = in_edges svfg in
    let ok = ref true in
    for n = 0 to Svfg.n_nodes svfg - 1 do
      match Svfg.kind svfg n with
      | Svfg.NInst { f; i } when Inst.is_load (Svfg.inst_of svfg n) ->
        Pta_ds.Bitset.iter
          (fun o ->
            let preds = Option.value ~default:[] (Hashtbl.find_opt ins (n, o)) in
            if List.length preds <> 1 then ok := false)
          (Pta_memssa.Annot.mu (Svfg.annot svfg) f i)
      | _ -> ()
    done;
    !ok
  in
  List.iteri
    (fun k seed ->
      let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random seed) in
      Alcotest.(check bool) (Printf.sprintf "program %d" k) true
        (check_program src))
    [ 3; 17; 42; 2024 ]

(* ---------- MEMPHI placement ---------- *)

let test_memphi_at_join () =
  let p, svfg = build {|
    global g;
    func main() {
      var a, p1, h1, h2;
      p1 = &a;
      h1 = malloc();
      h2 = malloc();
      if (h1 == h2) { *p1 = h1; } else { *p1 = h2; }
      g = *p1;
    }
  |} in
  let o = obj_by_name p "main.a" in
  let memphis =
    find_nodes svfg (fun _ k ->
        match k with Svfg.NMemPhi { obj; _ } -> obj = o | _ -> false)
  in
  Alcotest.(check int) "one memphi for a" 1 (List.length memphis);
  (* the memphi merges both stores *)
  let ins = in_edges svfg in
  let preds =
    Option.value ~default:[] (Hashtbl.find_opt ins (List.hd memphis, o))
  in
  Alcotest.(check int) "two operands" 2 (List.length preds)

let test_no_memphi_straightline () =
  let _, svfg = build {|
    func main() {
      var a, p1, h;
      p1 = &a;
      h = malloc();
      *p1 = h;
      h = *p1;
    }
  |} in
  let memphis =
    find_nodes svfg (fun _ k -> match k with Svfg.NMemPhi _ -> true | _ -> false)
  in
  Alcotest.(check int) "no memphi" 0 (List.length memphis)

let test_loop_memphi () =
  let p, svfg = build {|
    func main() {
      var a, p1, h;
      p1 = &a;
      h = malloc();
      while (h != null) { *p1 = h; h = *p1; }
    }
  |} in
  let o = obj_by_name p "main.a" in
  let memphis =
    find_nodes svfg (fun _ k ->
        match k with Svfg.NMemPhi { obj; _ } -> obj = o | _ -> false)
  in
  Alcotest.(check bool) "loop-header memphi" true (List.length memphis >= 1)

(* ---------- call boundaries ---------- *)

let test_call_boundary_nodes () =
  let p, svfg = build {|
    func touch(x) { *x = x; }
    func main() {
      var a;
      a = malloc();
      touch(a);
    }
  |} in
  let o = obj_by_name p "main.heap1" in
  let touch = (Option.get (Prog.func_by_name p "touch")).Prog.id in
  let main = (Option.get (Prog.func_by_name p "main")).Prog.id in
  Alcotest.(check bool) "formal-in exists" true
    (Svfg.formal_in svfg touch o <> None);
  Alcotest.(check bool) "formal-out exists" true
    (Svfg.formal_out svfg touch o <> None);
  (* find the call site *)
  let main_fn = Prog.func p main in
  let call_i = ref (-1) in
  for i = 0 to Prog.n_insts main_fn - 1 do
    if Inst.is_call (Prog.inst main_fn i) then call_i := i
  done;
  let cs = { Callgraph.cs_func = main; cs_inst = !call_i } in
  let ai = Option.get (Svfg.actual_in svfg cs o) in
  let ao = Option.get (Svfg.actual_out svfg cs o) in
  (* direct call statically connected: ActualIn -> FormalIn *)
  let fi = Option.get (Svfg.formal_in svfg touch o) in
  let fo = Option.get (Svfg.formal_out svfg touch o) in
  let has_edge src dst =
    let found = ref false in
    Svfg.iter_ind_succs svfg src o (fun m -> if m = dst then found := true);
    !found
  in
  Alcotest.(check bool) "AI -> FI" true (has_edge ai fi);
  Alcotest.(check bool) "FO -> AO" true (has_edge fo ao);
  (* the call edge's walk yields exactly those two edges *)
  let walked = ref [] in
  Svfg.iter_call_edges svfg cs touch (fun src o' dst ->
      walked := (src, o', dst) :: !walked);
  Alcotest.(check (list (triple int int int))) "call-edge walk"
    [ (ai, o, fi); (fo, o, ao) ]
    (List.rev !walked)

let test_indirect_call_unconnected () =
  (* without FS resolution, indirect call boundaries stay unconnected *)
  let p, svfg = build {|
    global fp;
    func touch(x) { *x = x; }
    func main() {
      var a;
      fp = &touch;
      a = malloc();
      (*fp)(a);
    }
  |} in
  let o = obj_by_name p "main.heap1" in
  let touch = (Option.get (Prog.func_by_name p "touch")).Prog.id in
  let fi = Option.get (Svfg.formal_in svfg touch o) in
  let ins = in_edges svfg in
  Alcotest.(check (list int)) "formal-in of indirect target has no preds" []
    (Option.value ~default:[] (Hashtbl.find_opt ins (fi, o)))

(* ---------- direct edges ---------- *)

let test_direct_edges () =
  let p, svfg = build {|
    func id(v) { return v; }
    func main() {
      var x, y;
      x = malloc();
      y = id(x);
      y = *y;
    }
  |} in
  (* def of a param is the callee's entry node *)
  let id_fn = Option.get (Prog.func_by_name p "id") in
  let v = List.hd id_fn.Prog.params in
  Alcotest.(check int) "param def = entry node"
    (Svfg.entry_node svfg id_fn.Prog.id)
    (Svfg.def_node svfg v);
  (* the return var is used by the exit node *)
  let r = Option.get id_fn.Prog.ret in
  Alcotest.(check bool) "ret used by exit" true
    (List.mem (Svfg.exit_node svfg id_fn.Prog.id) (Svfg.users svfg r));
  Alcotest.(check bool) "direct edges counted" true (Svfg.n_direct_edges svfg > 0)

let test_stats_nonzero () =
  let _, svfg = build {|
    func main() {
      var a, p1;
      p1 = &a;
      *p1 = p1;
      a = *p1;
    }
  |} in
  Alcotest.(check bool) "nodes" true (Svfg.n_nodes svfg > 0);
  Alcotest.(check bool) "indirect edges" true (Svfg.n_indirect_edges svfg > 0)

(* ---------- slots ---------- *)

(* The objects a node must have slots for: a load's μ, a store's χ, a
   memory node's own object; other instructions have none. *)
let expected_slot_objs svfg n =
  let annot = Svfg.annot svfg in
  match Svfg.kind svfg n with
  | Svfg.NInst { f; i } -> (
    match Svfg.inst_of svfg n with
    | Inst.Load _ -> Pta_ds.Bitset.elements (Pta_memssa.Annot.mu annot f i)
    | Inst.Store _ -> Pta_ds.Bitset.elements (Pta_memssa.Annot.chi annot f i)
    | _ -> [])
  | Svfg.NMemPhi { obj; _ }
  | Svfg.NFormalIn { obj; _ }
  | Svfg.NFormalOut { obj; _ }
  | Svfg.NActualIn { obj; _ }
  | Svfg.NActualOut { obj; _ } ->
    [ obj ]

let check_slots what svfg =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let ns = Svfg.n_slots svfg in
  if Svfg.first_slot svfg (Svfg.n_nodes svfg) <> ns then
    fail "slot runs do not end at n_slots";
  for n = 0 to Svfg.n_nodes svfg - 1 do
    let first = Svfg.first_slot svfg n in
    let objs =
      List.init (Svfg.first_slot svfg (n + 1) - first) (fun k ->
          Svfg.slot_obj svfg (first + k))
    in
    if objs <> expected_slot_objs svfg n then
      fail "node %d: slot objects are not its ascending μ/χ/object" n;
    List.iteri
      (fun k o ->
        if Svfg.slot_node svfg (first + k) <> n || Svfg.slot_of svfg n o <> first + k
        then fail "node %d: slot %d does not map back" n (first + k))
      objs;
    (* node view: every edge joins two slots; per object, successors are
       strictly ascending *)
    let last = Hashtbl.create 4 in
    Svfg.iter_ind_all svfg n (fun o m ->
        if Svfg.slot_of svfg n o < 0 || Svfg.slot_of svfg m o < 0 then
          fail "edge %d --%d--> %d has an endpoint that is not a slot" n o m;
        (match Hashtbl.find_opt last o with
        | Some prev when prev >= m -> fail "successors of (%d, %d) not ascending" n o
        | _ -> ());
        Hashtbl.replace last o m)
  done;
  let edges = ref 0 in
  for s = 0 to ns - 1 do
    let prev = ref (-1) in
    Svfg.iter_slot_succs svfg s (fun d ->
        incr edges;
        if d < 0 || d >= ns || Svfg.slot_obj svfg d <> Svfg.slot_obj svfg s then
          fail "slot %d has a successor outside its object's slots" s;
        if d <= !prev then fail "successor slots of %d not strictly ascending" s;
        prev := d)
  done;
  Alcotest.(check int) (what ^ ": edge count") !edges (Svfg.n_indirect_edges svfg)

(* [formal_in], [formal_out], [actual_in] and [actual_out] agree with a
   naive scan of [kind] for every function, call and object. *)
let check_boundary_lookups what svfg =
  let p = Svfg.prog svfg in
  let naive = Hashtbl.create 256 in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    Hashtbl.replace naive (Svfg.kind svfg n) n
  done;
  let objs = ref [] in
  Prog.iter_objects p (fun o -> objs := o :: !objs);
  let check f o kind got =
    if got <> Hashtbl.find_opt naive kind then
      Alcotest.failf "%s: boundary lookup in function %d, object %d" what f o
  in
  Prog.iter_funcs p (fun fn ->
      let f = fn.Prog.id in
      List.iter
        (fun obj ->
          check f obj (Svfg.NFormalIn { f; obj }) (Svfg.formal_in svfg f obj);
          check f obj (Svfg.NFormalOut { f; obj }) (Svfg.formal_out svfg f obj))
        !objs;
      for call = 0 to Prog.n_insts fn - 1 do
        if Inst.is_call (Prog.inst fn call) then begin
          let cs = { Callgraph.cs_func = f; cs_inst = call } in
          List.iter
            (fun obj ->
              check f obj (Svfg.NActualIn { f; call; obj }) (Svfg.actual_in svfg cs obj);
              check f obj (Svfg.NActualOut { f; call; obj })
                (Svfg.actual_out svfg cs obj))
            !objs
        end
      done)

(* A snapshot whose call-boundary nodes are out of object order within a
   run: the first two adjacent nodes of one run trade ids, edges renumbered
   with them, so only the run order is wrong. *)
let swap_in_run (raw : Svfg.raw) =
  let kinds = raw.Svfg.raw_kinds in
  let same_run a b =
    match (a, b) with
    | Svfg.NFormalIn { f; _ }, Svfg.NFormalIn { f = f'; _ }
    | Svfg.NFormalOut { f; _ }, Svfg.NFormalOut { f = f'; _ } -> f = f'
    | Svfg.NActualIn { f; call; _ }, Svfg.NActualIn { f = f'; call = c'; _ }
    | Svfg.NActualOut { f; call; _ }, Svfg.NActualOut { f = f'; call = c'; _ } ->
      f = f' && call = c'
    | _ -> false
  in
  let rec find n =
    if n + 1 >= Array.length kinds then None
    else if same_run kinds.(n) kinds.(n + 1) then begin
      let swap x = if x = n then n + 1 else if x = n + 1 then n else x in
      Some
        { raw with
          Svfg.raw_kinds = Array.init (Array.length kinds) (fun x -> kinds.(swap x));
          raw_ind =
            Array.map
              (fun (src, o, dsts) -> (swap src, o, Array.map swap dsts))
              raw.Svfg.raw_ind }
    end
    else find (n + 1)
  in
  find 0

(* The edges [Svfg.iter_call_edges] yields for the auxiliary call graph:
   a direct call's are in the graph, an indirect call's join two slots of
   their object and are not (a solver's own rows of them are disjoint from
   the graph's). Returns the number of indirect-call edges. *)
let check_call_edges what p aux svfg =
  let n = ref 0 in
  Callgraph.iter_edges aux.Pta_memssa.Modref.cg (fun cs g ->
      let indirect =
        match Prog.inst (Prog.func p cs.Callgraph.cs_func) cs.Callgraph.cs_inst with
        | Inst.Call { callee = Inst.Indirect _; _ } -> true
        | _ -> false
      in
      Svfg.iter_call_edges svfg cs g (fun src o dst ->
          let s = Svfg.slot_of svfg src o and d = Svfg.slot_of svfg dst o in
          if s < 0 || d < 0 then
            Alcotest.failf "%s: call edge %d --%d--> %d is not between slots" what
              src o dst;
          let present = ref false in
          Svfg.iter_slot_succs svfg s (fun d' -> if d' = d then present := true);
          if !present <> not indirect then
            Alcotest.failf "%s: call edge %d --%d--> %d %s the graph" what src o
              dst
              (if indirect then "is in" else "is missing from");
          if indirect then incr n));
  !n

(* Slots and call edges on a freshly built graph, and across an export →
   import round trip that must reproduce the encoded snapshot byte for
   byte. Returns the number of indirect-call edges. *)
let slot_invariants what p aux =
  let svfg = Svfg.build p aux in
  check_slots (what ^ ", built") svfg;
  check_boundary_lookups (what ^ ", built") svfg;
  let n_indirect = check_call_edges what p aux svfg in
  let encode g = Pta_store.Artifact.encode_svfg (Svfg.export g) in
  let bytes = encode svfg in
  let back = Svfg.import p aux (Pta_store.Artifact.decode_svfg bytes) in
  check_slots (what ^ ", imported") back;
  check_boundary_lookups (what ^ ", imported") back;
  Alcotest.(check bool) (what ^ ": export/import/export identical") true
    (String.equal bytes (encode back));
  (* sealing sorts and de-duplicates: listing every edge twice imports to
     the same graph; an endpoint without a slot is rejected *)
  let raw = Svfg.export svfg in
  let with_rows f = { raw with Svfg.raw_ind = Array.map f raw.Svfg.raw_ind } in
  let doubled = with_rows (fun (src, o, dsts) -> (src, o, Array.append dsts dsts)) in
  Alcotest.(check bool) (what ^ ": duplicate edges sealed away") true
    (String.equal bytes (encode (Svfg.import p aux doubled)));
  (match swap_in_run raw with
  | None -> ()
  | Some swapped -> (
    match Svfg.import p aux swapped with
    | _ -> Alcotest.failf "%s: boundary run out of order imported" what
    | exception Invalid_argument _ -> ()));
  if Array.length raw.Svfg.raw_ind > 0 then begin
    let off_slot = with_rows (fun (src, o, _) -> (src, o, [| Svfg.n_nodes svfg |])) in
    match Svfg.import p aux off_slot with
    | _ -> Alcotest.failf "%s: edge to a non-slot imported" what
    | exception Invalid_argument _ -> ()
  end;
  n_indirect

let test_slots_suite () =
  let indirect =
    List.fold_left
      (fun acc (e : Pta_workload.Suite.entry) ->
        let b =
          Pta_workload.Pipeline.build_source (Pta_workload.Gen.source e.cfg)
        in
        acc
        + slot_invariants e.name b.Pta_workload.Pipeline.prog
            b.Pta_workload.Pipeline.aux)
      0
      (Pta_workload.Suite.benchmarks ~scale:0.1 ())
  in
  Alcotest.(check bool) "some indirect-call edges exercised" true (indirect > 0)

let prop_slots_random =
  QCheck2.Test.make ~name:"slot invariants on random programs with indirect calls"
    ~count:40
    QCheck2.Gen.(0 -- 10_000)
    (fun seed ->
      let cfg = Pta_workload.Gen.small_random seed in
      let cfg =
        { cfg with
          Pta_workload.Gen.n_fp_globals = max 1 cfg.Pta_workload.Gen.n_fp_globals;
          indirect_ratio = 0.4 }
      in
      let p, aux = prepare (Pta_workload.Gen.source cfg) in
      ignore (slot_invariants (Printf.sprintf "seed %d" seed) p aux);
      true)

(* ---------- dot export ---------- *)

let test_dot_export () =
  let _, svfg = build {|
    func main() {
      var a, p1, h;
      p1 = &a;
      h = malloc();
      *p1 = h;
      h = *p1;
    }
  |} in
  let path = Filename.temp_file "svfg" ".dot" in
  Pta_svfg.Dot.to_file svfg path;
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  let contains sub =
    let n = String.length content and m = String.length sub in
    let rec go i = i + m <= n && (String.sub content i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph svfg");
  Alcotest.(check bool) "store double box" true (contains "peripheries=2");
  Alcotest.(check bool) "labelled edge" true (contains "label=\"main.a\"");
  Alcotest.(check bool) "dashed direct edges" true (contains "style=dashed")

let () =
  Alcotest.run "pta_svfg"
    [
      ( "intraproc",
        [
          Alcotest.test_case "store-to-load edge" `Quick test_store_to_load_edge;
          Alcotest.test_case "single reaching def" `Quick
            test_load_single_reaching_def;
        ] );
      ( "memphi",
        [
          Alcotest.test_case "at join" `Quick test_memphi_at_join;
          Alcotest.test_case "none straight-line" `Quick test_no_memphi_straightline;
          Alcotest.test_case "loop header" `Quick test_loop_memphi;
        ] );
      ( "interproc",
        [
          Alcotest.test_case "call boundary nodes" `Quick test_call_boundary_nodes;
          Alcotest.test_case "indirect unconnected" `Quick
            test_indirect_call_unconnected;
        ] );
      ( "direct",
        [
          Alcotest.test_case "edges" `Quick test_direct_edges;
          Alcotest.test_case "stats" `Quick test_stats_nonzero;
        ] );
      ( "slots",
        [
          Alcotest.test_case "suite programs" `Quick test_slots_suite;
          QCheck_alcotest.to_alcotest prop_slots_random;
        ] );
      ("dot", [ Alcotest.test_case "export" `Quick test_dot_export ]);
    ]
