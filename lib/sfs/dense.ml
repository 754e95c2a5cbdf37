open Pta_ds
open Pta_ir

type result = {
  prog : Prog.t;
  icfg : Icfg.t;
  mr : Pta_memssa.Modref.t;
  su_obj : (int, int) Hashtbl.t;
      (* store node -> the object it strongly updates (statically decided
         from the auxiliary analysis, like the sparse solvers) *)
  pt : Ptset.t Vec.t;
  ins : (int * int, Ptset.t) Hashtbl.t;  (* (icfg node, obj) -> set *)
  outs : (int * int, Ptset.t) Hashtbl.t;  (* store nodes only *)
  objs : Bitset.t Vec.t;  (* objects materialised at each node *)
  cg_fs : Callgraph.t;
  (* per callee: discovered (call node, return sites, lhs) *)
  callers : (Inst.func_id, (int * int list * Inst.var option) list ref) Hashtbl.t;
  tel : Pta_engine.Telemetry.phase;
}

let obj_dummy = Bitset.create ()

let pt_id t v =
  if v >= Vec.length t.pt then Vec.grow_to t.pt (v + 1);
  Vec.get t.pt v

let pt_of t v = Ptset.view (pt_id t v)

let add_pt t v o =
  let s = pt_id t v in
  let s' = Ptset.add s o in
  if Ptset.equal s' s then false
  else begin
    Vec.set t.pt v s';
    true
  end

let union_pt t v src =
  let s = pt_id t v in
  let s' = Ptset.union s src in
  if Ptset.equal s' s then false
  else begin
    Vec.set t.pt v s';
    true
  end

(* Entry *presence* matters, not just contents: a store passes through
   exactly the objects without an OUT entry, so reads materialise [empty]
   entries exactly like the mutable version materialised fresh bitsets. *)
let find_or_empty tbl key =
  match Hashtbl.find_opt tbl key with
  | Some id -> id
  | None ->
    Hashtbl.add tbl key Ptset.empty;
    Ptset.empty

let objs_of t n =
  let s = Vec.get t.objs n in
  if s == obj_dummy then begin
    let s = Bitset.create () in
    Vec.set t.objs n s;
    s
  end
  else s

let in_id t n o =
  ignore (Bitset.add (objs_of t n) o);
  find_or_empty t.ins (n, o)

let out_id t n o = find_or_empty t.outs (n, o)

let union_in t n o src =
  let s = in_id t n o in
  let s' = Ptset.union s src in
  if Ptset.equal s' s then false
  else begin
    Hashtbl.replace t.ins (n, o) s';
    true
  end

let is_store t n = match Icfg.inst t.prog t.icfg n with Inst.Store _ -> true | _ -> false

(* A store only redefines the objects its pointer may target (those have an
   OUT entry); all other objects pass through its IN unchanged — except a
   statically strongly-updated object, which never passes through. *)
let out_for t n o =
  if is_store t n then
    if Hashtbl.find_opt t.su_obj n = Some o then out_id t n o
    else
      match Hashtbl.find_opt t.outs (n, o) with
      | Some s -> s
      | None -> in_id t n o
  else in_id t n o

let resolve_targets t = function
  | Inst.Direct f -> [ f ]
  | Inst.Indirect fp ->
    Bitset.fold
      (fun o acc ->
        match Prog.is_function_obj t.prog o with
        | Some f -> f :: acc
        | None -> acc)
      (pt_of t fp) []

let solve prog (aux : Pta_memssa.Modref.aux) =
  let mr = Pta_memssa.Modref.compute prog aux in
  (* ICFG with no call edges: a call's fall-through successors act as the
     weak "around the call" path; call/return edges are added dynamically. *)
  let icfg = Icfg.build prog ~callees:(fun _ _ -> []) in
  let n = Array.length icfg.Icfg.nodes in
  let tel = Pta_engine.Telemetry.phase ~name:"dense.solve" () in
  let t =
    {
      prog;
      icfg;
      mr;
      pt = Vec.create ~dummy:Ptset.empty ();
      ins = Hashtbl.create 1024;
      outs = Hashtbl.create 128;
      su_obj = Hashtbl.create 32;
      objs = Vec.create ~dummy:obj_dummy ();
      cg_fs = Callgraph.create ();
      callers = Hashtbl.create 16;
      tel;
    }
  in
  Vec.grow_to t.pt (Prog.n_vars prog);
  Vec.grow_to t.objs n;
  (* Precompute static strong-update sites. *)
  Prog.iter_funcs prog (fun fn ->
      for i = 0 to Prog.n_insts fn - 1 do
        match Prog.inst fn i with
        | Inst.Store { ptr; _ } -> (
          let pts = aux.Pta_memssa.Modref.pt ptr in
          if Bitset.cardinal pts = 1 then
            match Bitset.choose pts with
            | Some o when Prog.is_singleton prog o ->
              Hashtbl.replace t.su_obj (Icfg.node_id icfg fn.Prog.id i) o
            | _ -> ())
        | _ -> ()
      done);
  (* [process] collects the nodes to revisit in [buf]; the engine schedules
     them ([`Topo] ranks ICFG nodes by SCC condensation of the static
     graph — call/return flow bypasses it, which only costs order). *)
  let buf = ref [] in
  let push nid = buf := nid :: !buf in
  (* users index for top-level variables *)
  let users : int list Vec.t = Vec.create ~dummy:[] () in
  Vec.grow_to users (Prog.n_vars prog);
  let note_user v nid = Vec.set users v (nid :: Vec.get users v) in
  Prog.iter_funcs prog (fun fn ->
      for i = 0 to Prog.n_insts fn - 1 do
        let nid = Icfg.node_id icfg fn.Prog.id i in
        let ins = Prog.inst fn i in
        List.iter (fun v -> note_user v nid) (Inst.uses ins);
        match (ins, fn.Prog.ret) with
        | Inst.Exit, Some r -> note_user r nid
        | _ -> ()
      done);
  let push_users v = List.iter push (Vec.get users v) in
  let prop_obj src dst o =
    if union_in t dst o (out_for t src o) then push dst
  in
  let prop_all src dst =
    Bitset.iter (fun o -> prop_obj src dst o) (objs_of t src)
  in
  let entry_of f =
    let fn = Prog.func prog f in
    Icfg.node_id icfg f fn.Prog.entry_inst
  in
  let exit_of f =
    let fn = Prog.func prog f in
    Icfg.node_id icfg f fn.Prog.exit_inst
  in
  let process nid =
    buf := [];
    let node = t.icfg.Icfg.nodes.(nid) in
    let fn = Prog.func prog node.Icfg.func in
    let ins = Prog.inst fn node.Icfg.inst in
    (* 1. Local transfer (top-level and memory). *)
    (match ins with
    | Inst.Alloc { lhs; obj } -> if add_pt t lhs obj then push_users lhs
    | Inst.Copy { lhs; rhs } -> if union_pt t lhs (pt_id t rhs) then push_users lhs
    | Inst.Phi { lhs; rhs } ->
      let changed = ref false in
      List.iter
        (fun r -> if union_pt t lhs (pt_id t r) then changed := true)
        rhs;
      if !changed then push_users lhs
    | Inst.Field { lhs; base; offset } ->
      let changed = ref false in
      Bitset.iter
        (fun o ->
          match Prog.obj_kind prog o with
          | Prog.Func _ -> ()
          | _ ->
            let fo = Prog.field_obj prog ~base:o ~offset in
            if add_pt t lhs fo then changed := true)
        (pt_of t base);
      if !changed then push_users lhs
    | Inst.Load { lhs; ptr } ->
      let changed = ref false in
      Bitset.iter
        (fun o ->
          if union_pt t lhs (in_id t nid o) then changed := true)
        (pt_of t ptr);
      if !changed then push_users lhs
    | Inst.Store { ptr; rhs } ->
      let rhs_id = pt_id t rhs in
      Bitset.iter
        (fun o ->
          ignore (Bitset.add (objs_of t nid) o);
          let out0 = out_id t nid o in
          let su = Hashtbl.find_opt t.su_obj nid = Some o in
          let out1 = Ptset.union out0 rhs_id in
          let out2 = if su then out1 else Ptset.union out1 (in_id t nid o) in
          if not (Ptset.equal out2 out0) then
            Hashtbl.replace t.outs (nid, o) out2)
        (pt_of t ptr)
    | Inst.Call { lhs; callee; args } ->
      let cs = { Callgraph.cs_func = node.Icfg.func; cs_inst = node.Icfg.inst } in
      let ret_sites =
        Bitset.fold
          (fun s acc -> Icfg.node_id icfg node.Icfg.func s :: acc)
          (Pta_graph.Digraph.succs fn.Prog.cfg node.Icfg.inst)
          []
      in
      List.iter
        (fun g ->
          if Callgraph.add t.cg_fs cs g then begin
            (match callee with
            | Inst.Indirect _ -> Callgraph.mark_indirect_target t.cg_fs g
            | Inst.Direct _ -> ());
            (match Hashtbl.find_opt t.callers g with
            | Some l -> l := (nid, ret_sites, lhs) :: !l
            | None -> Hashtbl.add t.callers g (ref [ (nid, ret_sites, lhs) ]));
            push (exit_of g)
          end;
          let callee_fn = Prog.func prog g in
          let rec zip args params =
            match (args, params) with
            | a :: args, p :: params ->
              if union_pt t p (pt_id t a) then push_users p;
              zip args params
            | _ -> ()
          in
          zip args callee_fn.Prog.params;
          (match (lhs, callee_fn.Prog.ret) with
          | Some l, Some r -> if union_pt t l (pt_id t r) then push_users l
          | _ -> ());
          (* memory in-flow into the callee entry *)
          let entry = entry_of g in
          let changed = ref false in
          Bitset.iter
            (fun o ->
              if Bitset.mem (objs_of t nid) o then
                if union_in t entry o (in_id t nid o) then changed := true)
            (Pta_memssa.Modref.inflow mr g);
          if !changed then push entry)
        (resolve_targets t callee)
    | Inst.Entry | Inst.Exit | Inst.Branch -> ());
    (* 2. Flow to CFG successors (for calls these are the weak around-call
       paths; for exits, to every discovered return site with the mods
       filter). *)
    (match ins with
    | Inst.Exit -> (
      let f = node.Icfg.func in
      (match fn.Prog.ret with
      | Some r ->
        (match Hashtbl.find_opt t.callers f with
        | Some l ->
          List.iter
            (fun (_, _, lhs) ->
              match lhs with
              | Some lhs ->
                if union_pt t lhs (pt_id t r) then push_users lhs
              | None -> ())
            !l
        | None -> ())
      | None -> ());
      match Hashtbl.find_opt t.callers f with
      | Some l ->
        List.iter
          (fun (_, ret_sites, _) ->
            Bitset.iter
              (fun o ->
                if Bitset.mem (objs_of t nid) o then
                  List.iter
                    (fun rs -> if union_in t rs o (in_id t nid o) then push rs)
                    ret_sites)
              (Pta_memssa.Modref.mods mr f))
          !l
      | None -> ())
    | _ ->
      Pta_graph.Digraph.iter_succs t.icfg.Icfg.graph nid (fun succ ->
          prop_all nid succ));
    !buf
  in
  (* SCC-topological order over the static ICFG: measured at scale 0.15 it
     pops 782 nodes on du where FIFO pops 5183, and at scale 1.0 it is 5-8x
     faster. *)
  let scheduler =
    let scc = Pta_graph.Scc.compute icfg.Icfg.graph in
    Pta_engine.Scheduler.topo ~rank:(fun nid ->
        if nid < n then Pta_graph.Scc.rank_of_node scc nid else max_int)
  in
  let eng = Pta_engine.Engine.create ~telemetry:tel ~scheduler ~process () in
  (* Seed: every node once. *)
  for i = 0 to n - 1 do
    Pta_engine.Engine.push eng i
  done;
  Pta_engine.Engine.run eng;
  t

let pt t v = pt_of t v
(* One pass over both tables; IN and OUT together cover every program point
   at which an object's set is materialised. *)
let object_pts t =
  let acc = Array.init (Prog.n_vars t.prog) (fun _ -> Bitset.create ()) in
  let add (_, o) id = ignore (Bitset.union_into ~into:acc.(o) (Ptset.view id)) in
  Hashtbl.iter add t.ins;
  Hashtbl.iter add t.outs;
  acc

let callgraph t = t.cg_fs
let n_sets t = Hashtbl.length t.ins + Hashtbl.length t.outs

let words t =
  let tl = Ptset.Tally.create () in
  Hashtbl.iter (fun _ id -> Ptset.Tally.visit tl id) t.ins;
  Hashtbl.iter (fun _ id -> Ptset.Tally.visit tl id) t.outs;
  Ptset.Tally.shared_words tl

let telemetry t = t.tel
let processed t = t.tel.Pta_engine.Telemetry.pops
