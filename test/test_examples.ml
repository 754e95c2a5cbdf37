(* Guards for the examples' claims, as test assertions: if these break, an
   example binary would print something wrong even though it still runs. *)

open Pta_ir

let analyse src =
  let b = Pta_workload.Pipeline.build_source src in
  let svfg = Pta_workload.Pipeline.fresh_svfg b in
  let sfs = Pta_sfs.Sfs.solve (Pta_workload.Pipeline.fresh_svfg b) in
  let vsfs = Vsfs_core.Vsfs.solve svfg in
  (b, svfg, sfs, vsfs)

(* The quickstart's workload and its headline claims. *)
let quickstart_src =
  {|
  global config;
  func make_config() {
    var c;
    c = malloc();
    c->owner = &make_config;
    return c;
  }
  func install(c) { config = c; }
  func main() {
    var c, active;
    c = make_config();
    install(c);
    active = config;
    active->flag = c;
  }
  |}

let test_quickstart_claims () =
  let b, svfg, sfs, vsfs = analyse quickstart_src in
  let p = b.Pta_workload.Pipeline.prog in
  Alcotest.(check bool) "precision equal" true
    (Vsfs_core.Equiv.is_equal (Vsfs_core.Equiv.compare sfs vsfs svfg));
  Alcotest.(check bool) "vsfs stores fewer sets" true
    (Vsfs_core.Vsfs.n_sets vsfs < Pta_sfs.Sfs.n_sets sfs);
  Alcotest.(check bool) "vsfs propagates no more" true
    (Vsfs_core.Vsfs.n_propagations vsfs <= Pta_sfs.Sfs.n_propagations sfs);
  let config_o = ref (-1) in
  Prog.iter_objects p (fun o -> if Prog.name p o = "config.o" then config_o := o);
  Alcotest.(check (list string)) "config contents" [ "make_config.heap1" ]
    (List.map (Prog.name p)
       (Pta_ds.Bitset.elements (Vsfs_core.Vsfs.object_pt vsfs !config_o)))

(* The motivating fragment's exact Fig. 2(b) numbers, via the same path the
   example uses (manual meld of the abstract fragment). *)
let test_fig2_counts () =
  let table = Vsfs_core.Version.create () in
  let k1 = Vsfs_core.Version.fresh table in
  let k2 = Vsfs_core.Version.fresh table in
  (* edges of the fragment: l1->l2,l3,l4,l5 and l2->l4,l5; consumed: *)
  let c_l2 = k1 and c_l3 = k1 in
  let c_l4 = Vsfs_core.Version.meld table k1 k2 in
  let c_l5 = Vsfs_core.Version.meld table k1 k2 in
  Alcotest.(check int) "l4 and l5 share" c_l4 c_l5;
  Alcotest.(check bool) "l2/l3 share l1's yield" true (c_l2 = c_l3 && c_l2 = k1);
  (* distinct non-ε versions: k1, k2, k1⊙k2 = the paper's 3 sets *)
  Alcotest.(check int) "three versions (+ε)" 4
    (Vsfs_core.Version.n_versions table)

(* The taint example's verdicts. *)
let taint_src =
  {|
  global out_log, out_net, scratch;
  func recv_packet() { var p; p = malloc(); return p; }
  func recv_header() { var h; h = malloc(); return h; }
  func sanitize(x) { var c; c = malloc(); c->payload = x; return c; }
  func main() {
    var pkt, hdr, clean;
    pkt = recv_packet();
    hdr = recv_header();
    out_net = pkt;
    clean = sanitize(hdr);
    out_log = clean;
    scratch = hdr;
  }
  |}

let test_taint_verdicts () =
  let b, _, _, vsfs = analyse taint_src in
  let p = b.Pta_workload.Pipeline.prog in
  let obj name =
    let r = ref (-1) in
    Prog.iter_objects p (fun o -> if Prog.name p o = name then r := o);
    !r
  in
  let holds sink src =
    Pta_ds.Bitset.mem (Vsfs_core.Vsfs.object_pt vsfs (obj sink)) (obj src)
  in
  Alcotest.(check bool) "raw packet reaches net sink" true
    (holds "out_net.o" "recv_packet.heap1");
  Alcotest.(check bool) "header does not reach net sink" false
    (holds "out_net.o" "recv_header.heap2");
  Alcotest.(check bool) "raw header not in log sink" false
    (holds "out_log.o" "recv_header.heap2");
  Alcotest.(check bool) "sanitised wrapper in log sink" true
    (holds "out_log.o" "sanitize.heap3")

(* The callbacks example's δ census: exactly the log handler's formal-in and
   the dispatching call's actual-out for the sink object. *)
let test_callbacks_deltas () =
  let src = {|
    global slot, sink;
    func cb_a(e) { sink = e; return e; }
    func cb_b(e) { return e; }
    func main() {
      var h, e;
      slot = &cb_a;
      slot = &cb_b;
      e = malloc();
      h = slot;
      h(e);
    }
  |} in
  let b = Pta_workload.Pipeline.build_source src in
  let svfg = Pta_workload.Pipeline.fresh_svfg b in
  let ver = Vsfs_core.Versioning.compute ~release_labels:false svfg in
  let vsfs = Vsfs_core.Vsfs.solve ~versioning:ver svfg in
  let deltas = ref 0 in
  for n = 0 to Pta_svfg.Svfg.n_nodes svfg - 1 do
    if Vsfs_core.Versioning.is_delta ver n then incr deltas
  done;
  Alcotest.(check bool) "some δ nodes" true (!deltas > 0);
  (* the singleton global slot is strongly updated by the second store, so
     flow-sensitively only cb_b is callable — the on-the-fly call-graph
     precision Andersen lacks *)
  let cg = Vsfs_core.Vsfs.callgraph vsfs in
  let p = b.Pta_workload.Pipeline.prog in
  let fid name = (Option.get (Prog.func_by_name p name)).Prog.id in
  Alcotest.(check bool) "cb_a killed by strong update" false
    (Callgraph.is_indirect_target cg (fid "cb_a"));
  Alcotest.(check bool) "cb_b reached" true
    (Callgraph.is_indirect_target cg (fid "cb_b"));
  Alcotest.(check bool) "andersen would see both" true
    (Callgraph.is_indirect_target
       b.Pta_workload.Pipeline.aux.Pta_memssa.Modref.cg (fid "cb_a"))

let () =
  Alcotest.run "examples"
    [
      ( "claims",
        [
          Alcotest.test_case "quickstart" `Quick test_quickstart_claims;
          Alcotest.test_case "fig2 counts" `Quick test_fig2_counts;
          Alcotest.test_case "taint verdicts" `Quick test_taint_verdicts;
          Alcotest.test_case "callbacks deltas" `Quick test_callbacks_deltas;
        ] );
    ]
