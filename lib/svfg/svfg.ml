open Pta_ds
open Pta_ir
open Pta_memssa

type nkind =
  | NInst of { f : Inst.func_id; i : int }
  | NMemPhi of { f : Inst.func_id; at : int; obj : Inst.var }
  | NFormalIn of { f : Inst.func_id; obj : Inst.var }
  | NFormalOut of { f : Inst.func_id; obj : Inst.var }
  | NActualIn of { f : Inst.func_id; call : int; obj : Inst.var }
  | NActualOut of { f : Inst.func_id; call : int; obj : Inst.var }

type t = {
  prog : Prog.t;
  aux : Modref.aux;
  mr : Modref.t;
  annot : Annot.t;
  kinds : nkind Vec.t;
  inst_nodes : int array array;  (* f -> inst -> node id or -1 *)
  formal_ins : (int * int, int) Hashtbl.t;  (* (f, obj) -> node *)
  formal_outs : (int * int, int) Hashtbl.t;
  actual_ins : (int * int * int, int) Hashtbl.t;  (* (f, call, obj) -> node *)
  actual_outs : (int * int * int, int) Hashtbl.t;
  ind_out : Bitset.t Pair_key.Tbl.t;  (* packed (src, obj) -> dsts *)
  mutable n_ind_edges : int;
  def_nodes : int Vec.t;  (* var -> defining node or -1 *)
  user_lists : int list Vec.t;  (* var -> instruction nodes using it *)
  mutable n_dir_edges : int;
  mutable topo_cache : int array option;
      (* ranks of the static snapshot; OTF edges leave it a heuristic *)
}

let prog t = t.prog
let aux t = t.aux
let modref t = t.mr
let annot t = t.annot
let n_nodes t = Vec.length t.kinds
let kind t n = Vec.get t.kinds n

let inst_of t n =
  match kind t n with
  | NInst { f; i } -> Prog.inst (Prog.func t.prog f) i
  | _ -> invalid_arg "Svfg.inst_of: not an instruction node"

let node_of_inst t f i = t.inst_nodes.(f).(i)

let entry_node t f =
  let fn = Prog.func t.prog f in
  t.inst_nodes.(f).(fn.Prog.entry_inst)

let exit_node t f =
  let fn = Prog.func t.prog f in
  t.inst_nodes.(f).(fn.Prog.exit_inst)

let formal_in t f o = Hashtbl.find_opt t.formal_ins (f, o)
let formal_out t f o = Hashtbl.find_opt t.formal_outs (f, o)

let actual_in t (cs : Callgraph.callsite) o =
  Hashtbl.find_opt t.actual_ins (cs.Callgraph.cs_func, cs.Callgraph.cs_inst, o)

let actual_out t (cs : Callgraph.callsite) o =
  Hashtbl.find_opt t.actual_outs (cs.Callgraph.cs_func, cs.Callgraph.cs_inst, o)

let add_indirect_edge t src o dst =
  let key = Pair_key.pack src o in
  let set =
    match Pair_key.Tbl.find_opt t.ind_out key with
    | Some s -> s
    | None ->
      let s = Bitset.create () in
      Pair_key.Tbl.add t.ind_out key s;
      s
  in
  if Bitset.add set dst then begin
    t.n_ind_edges <- t.n_ind_edges + 1;
    true
  end
  else false

let iter_ind_succs t n o f =
  match Pair_key.Tbl.find_opt t.ind_out (Pair_key.pack n o) with
  | Some s -> Bitset.iter f s
  | None -> ()

let iter_objs_defined t n f =
  match kind t n with
  | NInst { f = fid; i } -> Bitset.iter f (Annot.chi t.annot fid i)
  | NMemPhi { obj; _ } | NFormalIn { obj; _ } | NActualOut { obj; _ } -> f obj
  | NFormalOut _ | NActualIn _ -> ()

let iter_ind_all t n f =
  iter_objs_defined t n (fun o -> iter_ind_succs t n o (fun dst -> f o dst));
  match kind t n with
  | NActualIn { obj; _ } | NFormalOut { obj; _ } ->
    iter_ind_succs t n obj (fun dst -> f obj dst)
  | _ -> ()

let add_call_edges t (cs : Callgraph.callsite) g =
  let added = ref [] in
  let mu = Annot.mu t.annot cs.Callgraph.cs_func cs.Callgraph.cs_inst in
  let chi = Annot.chi t.annot cs.Callgraph.cs_func cs.Callgraph.cs_inst in
  Bitset.iter
    (fun o ->
      if Bitset.mem mu o then
        match (actual_in t cs o, formal_in t g o) with
        | Some src, Some dst ->
          if add_indirect_edge t src o dst then added := (src, o, dst) :: !added
        | _ -> ())
    (Modref.inflow t.mr g);
  Bitset.iter
    (fun o ->
      if Bitset.mem chi o then
        match (formal_out t g o, actual_out t cs o) with
        | Some src, Some dst ->
          if add_indirect_edge t src o dst then added := (src, o, dst) :: !added
        | _ -> ())
    (Modref.mods t.mr g);
  !added

let connect_callgraph t cg =
  Callgraph.iter_edges cg (fun cs g -> ignore (add_call_edges t cs g))

let connect_direct_calls t =
  Prog.iter_funcs t.prog (fun fn ->
      for i = 0 to Prog.n_insts fn - 1 do
        match Prog.inst fn i with
        | Inst.Call { callee = Inst.Direct g; _ } ->
          ignore
            (add_call_edges t { Callgraph.cs_func = fn.Prog.id; cs_inst = i } g)
        | _ -> ()
      done)

let def_node t v = if v < Vec.length t.def_nodes then Vec.get t.def_nodes v else -1

let users t v =
  if v < Vec.length t.user_lists then Vec.get t.user_lists v else []

let n_indirect_edges t = t.n_ind_edges
let n_direct_edges t = t.n_dir_edges

let to_digraph t =
  let g = Pta_graph.Digraph.create ~n:(n_nodes t) () in
  Pair_key.Tbl.iter
    (fun key dsts ->
      let src = Pair_key.hi key in
      Bitset.iter (fun dst -> ignore (Pta_graph.Digraph.add_edge g src dst)) dsts)
    t.ind_out;
  for v = 0 to Vec.length t.def_nodes - 1 do
    let d = Vec.get t.def_nodes v in
    if d >= 0 then
      List.iter
        (fun u -> ignore (Pta_graph.Digraph.add_edge g d u))
        (Vec.get t.user_lists v)
  done;
  g

let topo_rank t =
  match t.topo_cache with
  | Some r when Array.length r = n_nodes t -> r
  | _ ->
    let g = to_digraph t in
    let scc = Pta_graph.Scc.compute g in
    let r = Array.init (n_nodes t) (fun n -> Pta_graph.Scc.rank_of_node scc n) in
    t.topo_cache <- Some r;
    r

let pp_node t ppf n =
  let name v = Prog.name t.prog v in
  match kind t n with
  | NInst { f; i } ->
    Format.fprintf ppf "[%d] %s:L%d %a" n (Prog.func t.prog f).Prog.fname i
      (Printer.pp_inst t.prog)
      (Prog.inst (Prog.func t.prog f) i)
  | NMemPhi { f; at; obj } ->
    Format.fprintf ppf "[%d] %s:L%d memphi(%s)" n (Prog.func t.prog f).Prog.fname
      at (name obj)
  | NFormalIn { f; obj } ->
    Format.fprintf ppf "[%d] %s formal-in(%s)" n (Prog.func t.prog f).Prog.fname
      (name obj)
  | NFormalOut { f; obj } ->
    Format.fprintf ppf "[%d] %s formal-out(%s)" n (Prog.func t.prog f).Prog.fname
      (name obj)
  | NActualIn { f; call; obj } ->
    Format.fprintf ppf "[%d] %s:L%d actual-in(%s)" n
      (Prog.func t.prog f).Prog.fname call (name obj)
  | NActualOut { f; call; obj } ->
    Format.fprintf ppf "[%d] %s:L%d actual-out(%s)" n
      (Prog.func t.prog f).Prog.fname call (name obj)

(* ---------- construction ---------- *)

(* Memory-SSA renaming of one function: places MEMPHIs at iterated dominance
   frontiers of definition sites and walks the dominator tree keeping a
   stack of reaching definitions per object; every use found emits an
   indirect def-use edge. *)
let rename_function t fn =
  let f = fn.Prog.id in
  let cfg = fn.Prog.cfg in
  let entry = fn.Prog.entry_inst in
  let entry_chi = Annot.entry_chi t.annot f in
  let exit_mu = Annot.exit_mu t.annot f in
  (* Definition sites per object (instruction ids). *)
  let defsites : (Inst.var, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let add_defsite o i =
    match Hashtbl.find_opt defsites o with
    | Some l -> l := i :: !l
    | None -> Hashtbl.add defsites o (ref [ i ])
  in
  Bitset.iter (fun o -> add_defsite o entry) entry_chi;
  for i = 0 to Prog.n_insts fn - 1 do
    Bitset.iter (fun o -> add_defsite o i) (Annot.chi t.annot f i)
  done;
  if Hashtbl.length defsites > 0 || not (Bitset.is_empty exit_mu) then begin
    let dom = Pta_graph.Dom.compute cfg ~entry in
    let df = Pta_graph.Dom.dom_frontier cfg dom in
    (* MEMPHI placement. *)
    let memphis : (int, (Inst.var * int) list ref) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun o sites ->
        let joins = Pta_graph.Dom.iterated_frontier df !sites in
        Bitset.iter
          (fun j ->
            let node = Vec.push t.kinds (NMemPhi { f; at = j; obj = o }) in
            match Hashtbl.find_opt memphis j with
            | Some l -> l := (o, node) :: !l
            | None -> Hashtbl.add memphis j (ref [ (o, node) ]))
          joins)
      defsites;
    (* Renaming. *)
    let children = Pta_graph.Dom.dom_tree_children dom in
    let stacks : (Inst.var, int list ref) Hashtbl.t = Hashtbl.create 16 in
    let stack_of o =
      match Hashtbl.find_opt stacks o with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add stacks o r;
        r
    in
    let top o =
      match !(stack_of o) with
      | d :: _ -> d
      | [] ->
        (* Every annotated object is in the function's inflow and thus has a
           FormalIn definition at the entry; an empty stack is a bug. *)
        invalid_arg
          (Printf.sprintf
             "Svfg.rename_function: object %s has no reaching definition in \
              %s (missing FormalIn — annotation inflow out of sync)"
             (Prog.name t.prog o) fn.Prog.fname)
    in
    let edge src o dst = ignore (add_indirect_edge t src o dst) in
    let rec walk i =
      let pushed = ref [] in
      let push o d =
        let st = stack_of o in
        st := d :: !st;
        pushed := o :: !pushed
      in
      (* MEMPHIs attached to this CFG node define first. *)
      (match Hashtbl.find_opt memphis i with
      | Some l -> List.iter (fun (o, node) -> push o node) !l
      | None -> ());
      (match Prog.inst fn i with
      | Inst.Entry ->
        Bitset.iter
          (fun o -> push o (Option.get (formal_in t f o)))
          entry_chi
      | Inst.Exit ->
        Bitset.iter
          (fun o -> edge (top o) o (Option.get (formal_out t f o)))
          exit_mu
      | Inst.Load _ ->
        let node = t.inst_nodes.(f).(i) in
        Bitset.iter (fun o -> edge (top o) o node) (Annot.mu t.annot f i)
      | Inst.Store _ ->
        let node = t.inst_nodes.(f).(i) in
        Bitset.iter
          (fun o ->
            (* weak-update operand, then the store defines the object *)
            edge (top o) o node;
            push o node)
          (Annot.chi t.annot f i)
      | Inst.Call _ ->
        Bitset.iter
          (fun o ->
            edge (top o) o
              (Hashtbl.find t.actual_ins (f, i, o)))
          (Annot.mu t.annot f i);
        Bitset.iter
          (fun o ->
            let ao = Hashtbl.find t.actual_outs (f, i, o) in
            (* the call's χ also consumes the previous definition (weak) *)
            edge (top o) o ao;
            push o ao)
          (Annot.chi t.annot f i)
      | Inst.Alloc _ | Inst.Copy _ | Inst.Phi _ | Inst.Field _ | Inst.Branch ->
        ());
      (* Feed MEMPHI operands of CFG successors. *)
      Pta_graph.Digraph.iter_succs cfg i (fun m ->
          match Hashtbl.find_opt memphis m with
          | Some l ->
            List.iter
              (fun (o, node) ->
                match !(stack_of o) with
                | d :: _ -> edge d o node
                | [] -> ())
              !l
          | None -> ());
      List.iter walk children.(i);
      List.iter (fun o -> stack_of o := List.tl !(stack_of o)) !pushed
    in
    walk entry
  end

(* Direct (top-level) def-use edges. *)
let build_direct t =
  let prog = t.prog in
  Prog.iter_funcs prog (fun fn ->
      let f = fn.Prog.id in
      for i = 0 to Prog.n_insts fn - 1 do
        let node = t.inst_nodes.(f).(i) in
        if node >= 0 then begin
          let ins = Prog.inst fn i in
          (match ins with
          | Inst.Entry ->
            List.iter (fun p -> Vec.set t.def_nodes p node) fn.Prog.params
          | _ -> (
            match Inst.def ins with
            | Some v -> Vec.set t.def_nodes v node
            | None -> ()));
          let uses =
            match ins with
            | Inst.Exit -> (
              match fn.Prog.ret with Some r -> [ r ] | None -> [])
            | ins -> Inst.uses ins
          in
          List.iter
            (fun v -> Vec.set t.user_lists v (node :: Vec.get t.user_lists v))
            uses
        end
      done);
  let count = ref 0 in
  for v = 0 to Vec.length t.def_nodes - 1 do
    if Vec.get t.def_nodes v >= 0 then
      count := !count + List.length (Vec.get t.user_lists v)
  done;
  t.n_dir_edges <- !count

(* ---------- serialization (Pta_store) ---------- *)

type raw = {
  raw_kinds : nkind array;
  raw_ind : (int * int * int array) array;
  raw_mods : Bitset.t array;
  raw_refs : Bitset.t array;
  raw_mu : Bitset.t array array;
  raw_chi : Bitset.t array array;
  raw_entry_chis : Bitset.t array;
  raw_exit_mus : Bitset.t array;
}

let export t =
  let raw_kinds = Array.init (n_nodes t) (fun n -> kind t n) in
  let edges =
    Pair_key.Tbl.fold
      (fun key dsts acc -> (key, dsts) :: acc)
      t.ind_out []
  in
  (* Table order is arbitrary; sort so identical graphs encode to identical
     bytes (stable content hashes). Packed keys sort by (src, obj). *)
  let raw_ind =
    Array.of_list
      (List.map
         (fun (key, dsts) ->
           (Pair_key.hi key, Pair_key.lo key, Array.of_list (Bitset.elements dsts)))
         (List.sort (fun (a, _) (b, _) -> Int.compare a b) edges))
  in
  let raw_mods, raw_refs = Modref.export t.mr in
  let raw_mu, raw_chi, raw_entry_chis, raw_exit_mus = Annot.export t.annot in
  { raw_kinds; raw_ind; raw_mods; raw_refs; raw_mu; raw_chi; raw_entry_chis;
    raw_exit_mus }

let import prog (aux : Modref.aux) raw =
  let mr = Modref.import ~mods:raw.raw_mods ~refs:raw.raw_refs in
  let annot =
    Annot.import ~mu:raw.raw_mu ~chi:raw.raw_chi
      ~entry_chis:raw.raw_entry_chis ~exit_mus:raw.raw_exit_mus
  in
  let nf = Prog.n_funcs prog in
  let t =
    {
      prog;
      aux;
      mr;
      annot;
      kinds = Vec.create ~dummy:(NInst { f = -1; i = -1 }) ();
      inst_nodes = Array.make nf [||];
      formal_ins = Hashtbl.create 64;
      formal_outs = Hashtbl.create 64;
      actual_ins = Hashtbl.create 64;
      actual_outs = Hashtbl.create 64;
      ind_out = Pair_key.Tbl.create (max 16 (Array.length raw.raw_ind));
      n_ind_edges = 0;
      def_nodes = Vec.create ~dummy:(-1) ();
      user_lists = Vec.create ~dummy:[] ();
      n_dir_edges = 0;
      topo_cache = None;
    }
  in
  Vec.grow_to t.def_nodes (Prog.n_vars prog);
  Vec.grow_to t.user_lists (Prog.n_vars prog);
  Prog.iter_funcs prog (fun fn ->
      t.inst_nodes.(fn.Prog.id) <- Array.make (Prog.n_insts fn) (-1));
  (* Node tables are derivable from the kind array alone. *)
  Array.iteri
    (fun n k ->
      let n' = Vec.push t.kinds k in
      if n' <> n then invalid_arg "Svfg.import: kind array corrupt";
      match k with
      | NInst { f; i } ->
        if f < 0 || f >= nf || i < 0 || i >= Array.length t.inst_nodes.(f) then
          invalid_arg "Svfg.import: instruction node out of range";
        t.inst_nodes.(f).(i) <- n
      | NMemPhi _ -> ()
      | NFormalIn { f; obj } -> Hashtbl.replace t.formal_ins (f, obj) n
      | NFormalOut { f; obj } -> Hashtbl.replace t.formal_outs (f, obj) n
      | NActualIn { f; call; obj } ->
        Hashtbl.replace t.actual_ins (f, call, obj) n
      | NActualOut { f; call; obj } ->
        Hashtbl.replace t.actual_outs (f, call, obj) n)
    raw.raw_kinds;
  (* Fresh edge sets per import: solvers mutate them (on-the-fly call-graph
     edges), so two imports of the same raw value must not share state. *)
  Array.iter
    (fun (src, o, dsts) ->
      Array.iter (fun dst -> ignore (add_indirect_edge t src o dst)) dsts)
    raw.raw_ind;
  build_direct t;
  t

let build prog (aux : Modref.aux) =
  let mr = Modref.compute prog aux in
  let annot = Annot.compute prog aux mr in
  let nf = Prog.n_funcs prog in
  let t =
    {
      prog;
      aux;
      mr;
      annot;
      kinds = Vec.create ~dummy:(NInst { f = -1; i = -1 }) ();
      inst_nodes = Array.make nf [||];
      formal_ins = Hashtbl.create 64;
      formal_outs = Hashtbl.create 64;
      actual_ins = Hashtbl.create 64;
      actual_outs = Hashtbl.create 64;
      ind_out = Pair_key.Tbl.create 1024;
      n_ind_edges = 0;
      def_nodes = Vec.create ~dummy:(-1) ();
      user_lists = Vec.create ~dummy:[] ();
      n_dir_edges = 0;
      topo_cache = None;
    }
  in
  Vec.grow_to t.def_nodes (Prog.n_vars prog);
  Vec.grow_to t.user_lists (Prog.n_vars prog);
  (* 1. Instruction nodes (all but pure control flow). *)
  Prog.iter_funcs prog (fun fn ->
      let f = fn.Prog.id in
      let n = Prog.n_insts fn in
      t.inst_nodes.(f) <- Array.make n (-1);
      for i = 0 to n - 1 do
        match Prog.inst fn i with
        | Inst.Branch -> ()
        | _ -> t.inst_nodes.(f).(i) <- Vec.push t.kinds (NInst { f; i })
      done);
  (* 2. Call-boundary and function-boundary memory nodes. *)
  Prog.iter_funcs prog (fun fn ->
      let f = fn.Prog.id in
      Bitset.iter
        (fun o ->
          Hashtbl.replace t.formal_ins (f, o)
            (Vec.push t.kinds (NFormalIn { f; obj = o })))
        (Annot.entry_chi annot f);
      Bitset.iter
        (fun o ->
          Hashtbl.replace t.formal_outs (f, o)
            (Vec.push t.kinds (NFormalOut { f; obj = o })))
        (Annot.exit_mu annot f);
      for i = 0 to Prog.n_insts fn - 1 do
        if Inst.is_call (Prog.inst fn i) then begin
          Bitset.iter
            (fun o ->
              Hashtbl.replace t.actual_ins (f, i, o)
                (Vec.push t.kinds (NActualIn { f; call = i; obj = o })))
            (Annot.mu annot f i);
          Bitset.iter
            (fun o ->
              Hashtbl.replace t.actual_outs (f, i, o)
                (Vec.push t.kinds (NActualOut { f; call = i; obj = o })))
            (Annot.chi annot f i)
        end
      done);
  (* 3. Memory-SSA renaming: MEMPHIs + intraprocedural indirect edges. *)
  Prog.iter_funcs prog (fun fn -> rename_function t fn);
  (* 4. Direct def-use edges. *)
  build_direct t;
  t
