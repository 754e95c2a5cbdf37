(* End-to-end tests: realistic mini-C programs through the full pipeline
   (frontend → Andersen → memory SSA → SVFG → SFS/VSFS), checking concrete
   points-to facts a client would query, plus suite/benchmark plumbing. *)

open Pta_ir
module Svfg = Pta_svfg.Svfg

let analyse src =
  let b = Pta_workload.Pipeline.build_source src in
  let svfg = Pta_workload.Pipeline.fresh_svfg b in
  let vsfs = Vsfs_core.Vsfs.solve svfg in
  (b.Pta_workload.Pipeline.prog, b, vsfs)

let pt_names p vsfs vname =
  let v = ref (-1) in
  Prog.iter_vars p (fun x -> if Prog.name p x = vname then v := x);
  if !v < 0 then Alcotest.failf "var %s not found" vname;
  let set =
    if Prog.is_object p !v then Vsfs_core.Vsfs.object_pt vsfs !v
    else Vsfs_core.Vsfs.pt vsfs !v
  in
  List.sort String.compare
    (List.map (Prog.name p) (Pta_ds.Bitset.elements set))

(* ---------- linked list ---------- *)

let linked_list_src =
  {|
  global head;

  func push(value) {
    var node;
    node = malloc();          // the list cell
    node->next = head;
    node->data = value;
    head = node;
    return node;
  }

  func last() {
    var cur, nxt;
    cur = head;
    nxt = cur;
    while (nxt != null) {
      cur = nxt;
      nxt = cur->next;
    }
    return cur;
  }

  func main() {
    var a, b, tail, v;
    a = malloc();             // payload 1
    b = malloc();             // payload 2
    push(a);
    push(b);
    tail = last();
    v = tail->data;
  }
  |}

let test_linked_list () =
  let p, _, vsfs = analyse linked_list_src in
  (* head holds only list cells, never payloads *)
  Alcotest.(check (list string)) "head" [ "push.heap1" ]
    (pt_names p vsfs "head.o");
  (* the payload read from the list is one of the two mallocs from main *)
  let v =
    List.filter
      (fun n -> n = "main.heap2" || n = "main.heap3")
      (pt_names p vsfs "head.o" @ [])
  in
  ignore v;
  (* cell->data contains both payloads (cells are merged by allocation site) *)
  let data_field = "push.heap1.f" in
  let has_payloads = ref false in
  Prog.iter_objects p (fun o ->
      let n = Prog.name p o in
      if String.length n > String.length data_field
         && String.sub n 0 (String.length data_field) = data_field
      then begin
        (* one of the fields of the cell *)
        let obj_pt =
          match Vsfs_core.Vsfs.consumed_pt vsfs 0 o with
          | Some _ -> [] (* not what we want; check via a load below *)
          | None -> []
        in
        ignore obj_pt
      end);
  ignore !has_payloads

let test_linked_list_precision () =
  (* The value loaded from tail->data must include the payloads but not the
     cell itself pointing into head (field sensitivity separates data/next). *)
  let p, b, vsfs = analyse linked_list_src in
  let sfs = Pta_sfs.Sfs.solve (Pta_workload.Pipeline.fresh_svfg b) in
  (* find main's load of tail->data: the last load in main *)
  let main = Option.get (Prog.func_by_name p "main") in
  let last_load = ref (-1) in
  for i = 0 to Prog.n_insts main - 1 do
    match Prog.inst main i with
    | Inst.Load { lhs; _ } -> last_load := lhs
    | _ -> ()
  done;
  let names r =
    List.sort String.compare
      (List.map (Prog.name p) (Pta_ds.Bitset.elements r))
  in
  let expect = [ "main.heap2"; "main.heap3" ] in
  Alcotest.(check (list string)) "data payloads (vsfs)" expect
    (names (Vsfs_core.Vsfs.pt vsfs !last_load));
  Alcotest.(check (list string)) "data payloads (sfs)" expect
    (names (Pta_sfs.Sfs.pt sfs !last_load))

(* ---------- callback registry ---------- *)

let callbacks_src =
  {|
  global handler_slot, event_data;

  func on_click(payload) {
    event_data = payload;
    return payload;
  }

  func on_key(payload) {
    return payload;
  }

  func register(fn) {
    handler_slot = fn;
  }

  func fire(arg) {
    var h, r;
    h = handler_slot;
    r = h(arg);
    return r;
  }

  func main() {
    var d, r;
    d = malloc();
    register(&on_click);
    r = fire(d);
    register(&on_key);
    r = fire(d);
  }
  |}

let test_callbacks () =
  let p, b, vsfs = analyse callbacks_src in
  (* both handlers are reachable through the slot (flow-insensitive global) *)
  Alcotest.(check (list string)) "handler slot" [ "&on_click"; "&on_key" ]
    (pt_names p vsfs "handler_slot.o");
  (* the event payload reaches event_data through the indirect call *)
  Alcotest.(check (list string)) "event data" [ "main.heap1" ]
    (pt_names p vsfs "event_data.o");
  (* the FS call graph contains both indirect edges *)
  let cg = Vsfs_core.Vsfs.callgraph vsfs in
  let on_click = (Option.get (Prog.func_by_name p "on_click")).Prog.id in
  let on_key = (Option.get (Prog.func_by_name p "on_key")).Prog.id in
  Alcotest.(check bool) "on_click indirect target" true
    (Callgraph.is_indirect_target cg on_click);
  Alcotest.(check bool) "on_key indirect target" true
    (Callgraph.is_indirect_target cg on_key);
  ignore b

(* ---------- strong updates visible end-to-end ---------- *)

let test_config_overwrite () =
  let src = {|
    global conf;
    func set_conf(c) { conf = c; }
    func main() {
      var c1, c2, active;
      c1 = malloc();
      set_conf(c1);
      c2 = malloc();
      set_conf(c2);
      active = conf;
    }
  |} in
  let p, _, vsfs = analyse src in
  (* conf is a singleton global written through a direct chain; both configs
     flow in (two call sites merge in the context-insensitive callee) *)
  Alcotest.(check (list string)) "conf contents"
    [ "main.heap1"; "main.heap2" ]
    (pt_names p vsfs "conf.o")

(* ---------- textual IR path ---------- *)

let test_ir_file_pipeline () =
  let ir = {|
  func main() {
    L0: entry -> L2
    L1: exit
    L2: %p = alloc @stack:slot
    L3: %h = alloc @heap:obj
    L4: store %p %h
    L5: %v = load %p -> L1
  }
  |} in
  let p = Pta_ir.Parser.parse ir in
  Validate.check_exn p;
  let r = Pta_andersen.Solver.solve p in
  let aux = { Pta_memssa.Modref.pt = Pta_andersen.Solver.pts r;
              cg = Pta_andersen.Solver.callgraph r } in
  Pta_memssa.Singleton.refine p ~cg:aux.Pta_memssa.Modref.cg;
  let svfg = Svfg.build p aux in
  let vsfs = Vsfs_core.Vsfs.solve svfg in
  let v = ref (-1) in
  Prog.iter_vars p (fun x -> if Prog.name p x = "v" then v := x);
  Alcotest.(check (list string)) "load result" [ "obj" ]
    (List.map (Prog.name p) (Pta_ds.Bitset.elements (Vsfs_core.Vsfs.pt vsfs !v)))

(* ---------- suite plumbing ---------- *)

let test_suite_small_scale () =
  let entries = Pta_workload.Suite.benchmarks ~scale:0.15 () in
  Alcotest.(check int) "15 benchmarks" 15 (List.length entries);
  let du = List.hd entries in
  Alcotest.(check string) "du first" "du" du.Pta_workload.Suite.name;
  (* run the full measured pipeline on the smallest benchmark *)
  let b = Pta_workload.Pipeline.build du.Pta_workload.Suite.cfg in
  let sfs_r, sfs_m = Pta_workload.Pipeline.run_sfs b in
  let vsfs_r, vsfs_m = Pta_workload.Pipeline.run_vsfs b in
  Alcotest.(check bool) "sfs produced sets" true (sfs_m.Pta_workload.Pipeline.sets > 0);
  Alcotest.(check bool) "vsfs stores fewer or equal sets" true
    (vsfs_m.Pta_workload.Pipeline.sets <= sfs_m.Pta_workload.Pipeline.sets);
  (* and they agree *)
  let svfg = Pta_workload.Pipeline.fresh_svfg b in
  let report = Vsfs_core.Equiv.compare sfs_r vsfs_r svfg in
  Alcotest.(check bool) "precision equal on benchmark" true
    (Vsfs_core.Equiv.is_equal report)

let test_table_helpers () =
  Alcotest.(check bool) "geomean" true
    (abs_float (Pta_workload.Table.geomean [ 1.0; 4.0 ] -. 2.0) < 1e-9);
  Alcotest.(check bool) "geomean skips missing" true
    (abs_float (Pta_workload.Table.geomean [ 2.0; 0.0; -1.0 ] -. 2.0) < 1e-9);
  Alcotest.(check string) "ratio" "2.00x" (Pta_workload.Table.ratio 4.0 2.0);
  Alcotest.(check string) "ratio undefined" "-" (Pta_workload.Table.ratio 1.0 0.0);
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Pta_workload.Table.render ppf ~header:[ "a"; "b" ]
    ~align:[ Pta_workload.Table.L; Pta_workload.Table.R ]
    [ [ "x"; "1" ]; [ "yy"; "22" ] ];
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "table rendered" true (Buffer.length buf > 0)

let () =
  Alcotest.run "integration"
    [
      ( "linked-list",
        [
          Alcotest.test_case "structure" `Quick test_linked_list;
          Alcotest.test_case "field precision" `Quick test_linked_list_precision;
        ] );
      ("callbacks", [ Alcotest.test_case "registry" `Quick test_callbacks ]);
      ("config", [ Alcotest.test_case "overwrite" `Quick test_config_overwrite ]);
      ("textual-ir", [ Alcotest.test_case "pipeline" `Quick test_ir_file_pipeline ]);
      ( "workload",
        [
          Alcotest.test_case "suite small scale" `Slow test_suite_small_scale;
          Alcotest.test_case "table helpers" `Quick test_table_helpers;
        ] );
    ]
