open Pta_ds
open Pta_ir
module Svfg = Pta_svfg.Svfg

module Tbl = Pair_key.Tbl

type t = {
  svfg : Svfg.t;
  vt : Version.table;
  (* every key is a checked [Pair_key.pack]: no tuple per lookup *)
  consume : Version.t Tbl.t;  (* (node, obj) -> C *)
  store_yield : Version.t Tbl.t;  (* store prelabels *)
  delta : Bitset.t;
  reliance : Bitset.t Tbl.t;  (* (obj, κ) -> κ' set *)
  subscribers : Bitset.t Tbl.t;  (* (obj, κ) -> nodes *)
  mutable n_reliances : int;
  mutable duration : float;
}

let table t = t.vt
let svfg t = t.svfg

let consume t n o =
  match Tbl.find_opt t.consume (Pair_key.pack n o) with
  | Some v -> v
  | None -> Version.epsilon

let is_store_node svfg n =
  match Svfg.kind svfg n with
  | Svfg.NInst _ -> Inst.is_store (Svfg.inst_of svfg n)
  | _ -> false

let yield t n o =
  if is_store_node t.svfg n then
    match Tbl.find_opt t.store_yield (Pair_key.pack n o) with
    | Some v -> v
    | None -> Version.epsilon
  else consume t n o

let is_delta t n = Bitset.mem t.delta n

let add_reliance t o y c =
  let k = Pair_key.pack o y in
  let set =
    match Tbl.find_opt t.reliance k with
    | Some s -> s
    | None ->
      let s = Bitset.create () in
      Tbl.add t.reliance k s;
      s
  in
  if Bitset.add set c then begin
    t.n_reliances <- t.n_reliances + 1;
    true
  end
  else false

let add_dynamic_edge t src o dst =
  let y = yield t src o and c = consume t dst o in
  if Version.is_epsilon y || y = c then None
  else begin
    ignore (add_reliance t o y c);
    Some (y, c)
  end

let iter_relied t o v f =
  match Tbl.find_opt t.reliance (Pair_key.pack o v) with
  | Some s -> Bitset.iter f s
  | None -> ()

let iter_subscribers t o v f =
  match Tbl.find_opt t.subscribers (Pair_key.pack o v) with
  | Some s -> Bitset.iter f s
  | None -> ()

let subscribe t o v n =
  if not (Version.is_epsilon v) then begin
    let k = Pair_key.pack o v in
    let set =
      match Tbl.find_opt t.subscribers k with
      | Some s -> s
      | None ->
        let s = Bitset.create () in
        Tbl.add t.subscribers k s;
        s
    in
    ignore (Bitset.add set n)
  end

let duration t = t.duration
let n_versions t = Version.n_versions t.vt

let sharing_factor t =
  (* consume-points per distinct (object, version) pair: how many SVFG
     node/object states share one points-to set. SFS is by definition 1.0. *)
  let distinct = Tbl.create 256 in
  let points = ref 0 in
  Tbl.iter
    (fun k v ->
      if not (Version.is_epsilon v) then begin
        incr points;
        Tbl.replace distinct (Pair_key.pack (Pair_key.lo k) v) ()
      end)
    t.consume;
  if Tbl.length distinct = 0 then 1.0
  else float !points /. float (Tbl.length distinct)

let n_reliances t = t.n_reliances

let words t =
  let acc = ref (Version.words t.vt) in
  let add_tbl tbl = acc := !acc + (4 * Tbl.length tbl) in
  add_tbl t.consume;
  add_tbl t.store_yield;
  Tbl.iter (fun _ s -> acc := !acc + Bitset.words s) t.reliance;
  Tbl.iter (fun _ s -> acc := !acc + Bitset.words s) t.subscribers;
  !acc + Bitset.words t.delta

(* ---------- serialization (Pta_store) ---------- *)

type raw = {
  raw_consume : (int * Version.t) array;
  raw_store_yield : (int * Version.t) array;
  raw_delta : Bitset.t;
  raw_reliance : (int * Bitset.t) array;
  raw_n_reliances : int;
  raw_n_prelabels : int;
  raw_n_versions : int;
}

let sorted_bindings tbl =
  let l = Tbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) l)

let export t =
  {
    raw_consume = sorted_bindings t.consume;
    raw_store_yield = sorted_bindings t.store_yield;
    raw_delta = t.delta;
    raw_reliance = sorted_bindings t.reliance;
    raw_n_reliances = t.n_reliances;
    raw_n_prelabels = Version.n_prelabels t.vt;
    raw_n_versions = Version.n_versions t.vt;
  }

let import svfg raw =
  let t =
    {
      svfg;
      vt =
        Version.import_sealed ~n_prelabels:raw.raw_n_prelabels
          ~n_versions:raw.raw_n_versions;
      consume = Tbl.create (max 16 (Array.length raw.raw_consume));
      store_yield = Tbl.create (max 16 (Array.length raw.raw_store_yield));
      delta = Bitset.copy raw.raw_delta;
      reliance = Tbl.create (max 16 (Array.length raw.raw_reliance));
      subscribers = Tbl.create 1024;
      n_reliances = raw.raw_n_reliances;
      duration = 0.;
    }
  in
  Array.iter (fun (k, v) -> Tbl.replace t.consume k v) raw.raw_consume;
  Array.iter (fun (k, v) -> Tbl.replace t.store_yield k v) raw.raw_store_yield;
  (* The solver grows reliance sets on-the-fly (dynamic call edges), so each
     import must own fresh copies. Subscribers are solver-side state and
     always start empty (export happens before solving). *)
  Array.iter
    (fun (k, s) -> Tbl.replace t.reliance k (Bitset.copy s))
    raw.raw_reliance;
  t

(* Meld labelling (Fig. 8), one object at a time. The labels of [o] flow
   only along o-labelled edges and meld is a join, so [o]'s part of the
   least fixpoint is computed on its own subgraph. Stores (fixed yield) and
   δ nodes (frozen consume) are constants there; every other node is
   transparent (it yields what it consumes), so an SCC of transparent nodes
   shares one label: the meld of its external inputs, assigned in one
   topological pass over the condensation. A store consumes the meld of its
   predecessors. The static reliances of [o]'s edges fall out of the same
   pass. [o]'s edges are [esrc.(e) -> edst.(e)] for [e] in [lo .. hi - 1];
   [role] marks each SVFG node transparent, [store] or [delta];
   [loc], [glob], [lsrc] and [ldst] are scratch space shared by all objects
   ([loc] all [-1]). *)
let transparent = '\000'
let store = '\001'
let delta = '\002'

let label_object t o ~lo ~hi ~esrc ~edst ~role ~loc ~glob ~lsrc ~ldst
    ~(sccs : int ref) ~(max_scc : int ref) =
  let k = ref 0 in
  let local g =
    let l = loc.(g) in
    if l >= 0 then l
    else begin
      let l = !k in
      loc.(g) <- l;
      glob.(l) <- g;
      incr k;
      l
    end
  in
  let n_e = hi - lo in
  for i = 0 to n_e - 1 do
    lsrc.(i) <- local esrc.(lo + i);
    ldst.(i) <- local edst.(lo + i)
  done;
  let k = !k in
  let role l = Bytes.get role glob.(l) in
  (* [cons.(l)]: C_l(o); [yv.(l)]: Y_l(o). Constants first. *)
  let cons = Array.make k Version.epsilon in
  let yv = Array.make k Version.epsilon in
  let find tbl l =
    Option.value ~default:Version.epsilon
      (Tbl.find_opt tbl (Pair_key.pack glob.(l) o))
  in
  for l = 0 to k - 1 do
    if role l = store then yv.(l) <- find t.store_yield l
    else if role l = delta then begin
      cons.(l) <- find t.consume l;
      yv.(l) <- cons.(l)
    end
  done;
  (* Predecessors of every node, and the transparent-only successor graph
     whose condensation orders the pass; lists in edge order. *)
  let preds = Array.make k [] and succs = Array.make k [] in
  for i = n_e - 1 downto 0 do
    let s = lsrc.(i) and d = ldst.(i) in
    preds.(d) <- s :: preds.(d);
    if role s = transparent && role d = transparent then
      succs.(s) <- d :: succs.(s)
  done;
  let scc = Pta_graph.Scc.compute_succs ~n:k (Array.get succs) in
  let comp = scc.Pta_graph.Scc.comp and n_comps = scc.Pta_graph.Scc.n_comps in
  let members = Array.make n_comps [] in
  for l = k - 1 downto 0 do
    members.(comp.(l)) <- l :: members.(comp.(l))
  done;
  (* Tarjan emits components sinks first: walk them backwards. Constants
     are components of their own and are skipped. *)
  for c = n_comps - 1 downto 0 do
    match members.(c) with
    | first :: rest when role first = transparent ->
      let acc = ref Version.epsilon and self_loop = ref false in
      List.iter
        (fun m ->
          List.iter
            (fun p ->
              if comp.(p) <> c then acc := Version.meld t.vt !acc yv.(p)
              else if p = m then self_loop := true)
            preds.(m))
        members.(c);
      if rest <> [] || !self_loop then begin
        incr sccs;
        max_scc := max !max_scc (List.length members.(c))
      end;
      List.iter
        (fun m ->
          cons.(m) <- !acc;
          yv.(m) <- !acc)
        members.(c)
    | _ -> ()
  done;
  for l = 0 to k - 1 do
    if role l = store then
      List.iter
        (fun p -> cons.(l) <- Version.meld t.vt cons.(l) yv.(p))
        preds.(l);
    if role l <> delta && not (Version.is_epsilon cons.(l)) then
      Tbl.replace t.consume (Pair_key.pack glob.(l) o) cons.(l);
    loc.(glob.(l)) <- -1
  done;
  (* Static version reliances ([A-PROP] with differing versions). *)
  for i = 0 to n_e - 1 do
    let y = yv.(lsrc.(i)) and c = cons.(ldst.(i)) in
    if (not (Version.is_epsilon y)) && y <> c then ignore (add_reliance t o y c)
  done

let compute ?(release_labels = true) svfg =
  let start = Unix.gettimeofday () in
  let prog = Svfg.prog svfg in
  let aux = Svfg.aux svfg in
  let t =
    {
      svfg;
      vt = Version.create ();
      (* sized for about one entry per edge target: the fill seldom rehashes *)
      consume = Tbl.create (max 1024 (Svfg.n_indirect_edges svfg / 2));
      store_yield = Tbl.create 256;
      delta = Bitset.create ();
      reliance = Tbl.create 1024;
      subscribers = Tbl.create 1024;
      n_reliances = 0;
      duration = 0.;
    }
  in
  let n_nodes = Svfg.n_nodes svfg in
  let role = Bytes.make n_nodes transparent in
  (* Prelabelling (Fig. 6). *)
  for n = 0 to n_nodes - 1 do
    match Svfg.kind svfg n with
    | Svfg.NInst { f; i } -> (
      match Prog.inst (Prog.func prog f) i with
      | Inst.Store _ ->
        Bytes.set role n store;
        Bitset.iter
          (fun o ->
            Tbl.replace t.store_yield (Pair_key.pack n o)
              (Version.fresh t.vt ~table_label:"store"))
          (Pta_memssa.Annot.chi (Svfg.annot svfg) f i)
      | _ -> ())
    | Svfg.NFormalIn { f; obj } ->
      (* δ: functions that may be the target of an indirect call. *)
      if Callgraph.is_indirect_target aux.Pta_memssa.Modref.cg f then begin
        ignore (Bitset.add t.delta n);
        Bytes.set role n delta;
        Tbl.replace t.consume (Pair_key.pack n obj)
          (Version.fresh t.vt ~table_label:"delta-fin")
      end
    | Svfg.NActualOut { f; call; obj } -> (
      (* δ: return targets of indirect calls. *)
      match Prog.inst (Prog.func prog f) call with
      | Inst.Call { callee = Inst.Indirect _; _ } ->
        ignore (Bitset.add t.delta n);
        Bytes.set role n delta;
        Tbl.replace t.consume (Pair_key.pack n obj)
          (Version.fresh t.vt ~table_label:"delta-aout")
      | _ -> ())
    | _ -> ()
  done;
  Stats.add "vsfs.prelabels" (Version.n_prelabels t.vt);
  (* Group the indirect edges by object, each group in source order (a
     counting sort over two passes), then label each object's subgraph. *)
  let n_objs = Prog.n_vars prog in
  let first = Array.make (n_objs + 1) 0 in
  for n = 0 to n_nodes - 1 do
    Svfg.iter_ind_all svfg n (fun o _ -> first.(o + 1) <- first.(o + 1) + 1)
  done;
  for o = 0 to n_objs - 1 do
    first.(o + 1) <- first.(o + 1) + first.(o)
  done;
  let n_edges = first.(n_objs) in
  let esrc = Array.make n_edges 0 and edst = Array.make n_edges 0 in
  let fill = Array.sub first 0 n_objs in
  for n = 0 to n_nodes - 1 do
    Svfg.iter_ind_all svfg n (fun o m ->
        esrc.(fill.(o)) <- n;
        edst.(fill.(o)) <- m;
        fill.(o) <- fill.(o) + 1)
  done;
  let loc = Array.make n_nodes (-1) and glob = Array.make n_nodes 0 in
  let lsrc = Array.make n_edges 0 and ldst = Array.make n_edges 0 in
  let objects = ref 0 and sccs = ref 0 and max_scc = ref 0 in
  for o = 0 to n_objs - 1 do
    if first.(o + 1) > first.(o) then begin
      incr objects;
      label_object t o ~lo:first.(o) ~hi:first.(o + 1) ~esrc ~edst
        ~role ~loc ~glob ~lsrc ~ldst ~sccs ~max_scc
    end
  done;
  if release_labels then Version.seal t.vt;
  t.duration <- Unix.gettimeofday () -. start;
  Stats.add "vsfs.versions" (Version.n_versions t.vt);
  Stats.add "vsfs.version_objects" !objects;
  Stats.add "vsfs.version_sccs" !sccs;
  let m = Stats.counter "vsfs.version_max_scc" in
  m := max !m !max_scc;
  t
