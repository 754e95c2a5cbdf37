open Pta_ds
open Pta_ir
module Svfg = Pta_svfg.Svfg

(* Every array is indexed by SVFG slot or by version id. A non-ε version
   belongs to exactly one object: prelabels are fresh per (node, object)
   and a meld only joins one object's labels, so a version id alone names
   an (object, version) pair. *)
type t = {
  svfg : Svfg.t;
  vt : Version.table;
  cons : Version.t array;  (* slot -> C *)
  yld : Version.t array;  (* slot -> Y: C except at stores *)
  delta : Bitset.t;
  owner : int array;  (* version -> object; -1 for ε and transient melds *)
  (* static version reliance, κ -> κ' in CSR form, each row ascending *)
  rel_start : int array;
  rel : Version.t array;
  duration : float;
}

let table t = t.vt
let consume_slot t s = t.cons.(s)
let yield_slot t s = t.yld.(s)

let at t arr n o =
  let s = Svfg.slot_of t.svfg n o in
  if s < 0 then Version.epsilon else arr.(s)

let consume t = at t t.cons
let yield t = at t t.yld

let is_delta t n = Bitset.mem t.delta n
let owner t v = t.owner.(v)

let iter_relied t v f =
  for j = t.rel_start.(v) to t.rel_start.(v + 1) - 1 do
    f t.rel.(j)
  done

let duration t = t.duration
let n_versions t = Version.n_versions t.vt
let n_reliances t = Array.length t.rel

(* consume-points per distinct (object, version) pair: how many SVFG
   node/object states share one points-to set. SFS is by definition 1.0. *)
let sharing_factor t =
  let seen = Bytes.make (Array.length t.owner) '\000' in
  let points = ref 0 and distinct = ref 0 in
  Array.iter
    (fun v ->
      if not (Version.is_epsilon v) then begin
        incr points;
        if Bytes.get seen v = '\000' then incr distinct;
        Bytes.set seen v '\001'
      end)
    t.cons;
  if !distinct = 0 then 1.0 else float !points /. float !distinct

let words t =
  Version.words t.vt
  + (2 * Array.length t.cons)
  + (2 * Array.length t.owner)
  + 1 + Array.length t.rel + Bitset.words t.delta

(* The value over labelled slot arrays: each slot's object owns the
   versions the slot consumes and yields, and the static reliances, given
   as [Pair_key.pack κ κ'] keys, become CSR rows, sorted and
   de-duplicated. *)
let make svfg vt ~cons ~yld ~delta ~(rel : int Vec.t) ~duration =
  let n_versions = Version.n_versions vt in
  let owner = Array.make n_versions (-1) in
  Array.iteri
    (fun s c ->
      let o = Svfg.slot_obj svfg s in
      if not (Version.is_epsilon c) then owner.(c) <- o;
      if not (Version.is_epsilon yld.(s)) then owner.(yld.(s)) <- o)
    cons;
  let keys = Array.init (Vec.length rel) (Vec.get rel) in
  Array.sort Int.compare keys;
  let rel_start = Array.make (n_versions + 1) 0 and row = Vec.create_empty () in
  Array.iteri
    (fun i k ->
      if i = 0 || keys.(i - 1) <> k then begin
        let v = Pair_key.hi k in
        rel_start.(v + 1) <- rel_start.(v + 1) + 1;
        ignore (Vec.push row (Pair_key.lo k))
      end)
    keys;
  for v = 0 to n_versions - 1 do
    rel_start.(v + 1) <- rel_start.(v + 1) + rel_start.(v)
  done;
  let rel = Array.init (Vec.length row) (Vec.get row) in
  { svfg; vt; cons; yld; delta; owner; rel_start; rel; duration }

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

(* Slots ascend by node, then object: slot order is packed-key order. *)
let export t =
  let svfg = t.svfg in
  let key s = Pair_key.pack (Svfg.slot_node svfg s) (Svfg.slot_obj svfg s) in
  let consume = ref [] and store_yield = ref [] and reliance = ref [] in
  for s = Array.length t.cons - 1 downto 0 do
    let n = Svfg.slot_node svfg s in
    (match Svfg.kind svfg n with
    | Svfg.NInst _ when Inst.is_store (Svfg.inst_of svfg n) ->
      store_yield := (key s, t.yld.(s)) :: !store_yield
    | _ -> ());
    if not (Version.is_epsilon t.cons.(s)) then
      consume := (key s, t.cons.(s)) :: !consume
  done;
  for v = 0 to Array.length t.owner - 1 do
    if t.rel_start.(v + 1) > t.rel_start.(v) then begin
      let set = Bitset.create () in
      iter_relied t v (fun c -> ignore (Bitset.add set c));
      reliance := (Pair_key.pack t.owner.(v) v, set) :: !reliance
    end
  done;
  {
    raw_consume = Array.of_list !consume;
    raw_store_yield = Array.of_list !store_yield;
    raw_delta = t.delta;
    raw_reliance =
      Array.of_list
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) !reliance);
    raw_n_reliances = n_reliances t;
    raw_n_prelabels = Version.n_prelabels t.vt;
    raw_n_versions = Version.n_versions t.vt;
  }

let import svfg raw =
  let n_versions = raw.raw_n_versions in
  let vt =
    Version.import_sealed ~n_prelabels:raw.raw_n_prelabels ~n_versions
  in
  let ns = Svfg.n_slots svfg in
  let cons = Array.make ns Version.epsilon in
  let set arr (k, v) =
    let s = Svfg.slot_of svfg (Pair_key.hi k) (Pair_key.lo k) in
    if s < 0 || v < 0 || v >= n_versions then
      invalid_arg "Versioning.import: entry is not a slot or version";
    arr.(s) <- v
  in
  Array.iter (set cons) raw.raw_consume;
  let yld = Array.copy cons in
  Array.iter (set yld) raw.raw_store_yield;
  let buf = Vec.create ~dummy:0 () in
  Array.iter
    (fun (k, cs) ->
      Bitset.iter
        (fun c ->
          if c >= n_versions || Pair_key.lo k >= n_versions then
            invalid_arg "Versioning.import: reliance on an unknown version";
          ignore (Vec.push buf (Pair_key.pack (Pair_key.lo k) c)))
        cs)
    raw.raw_reliance;
  make svfg vt ~cons ~yld ~delta:(Bitset.copy raw.raw_delta) ~rel:buf
    ~duration:0.

(* Meld labelling (Fig. 8), one object at a time. The labels of [o] flow
   only along o-labelled edges and meld is a join, so [o]'s part of the
   least fixpoint is computed on its own subgraph. Stores (fixed yield) and
   δ nodes (frozen consume) are constants there; every other node is
   transparent (it yields what it consumes), so an SCC of transparent nodes
   shares one label: the meld of its external inputs, assigned in one
   topological pass over the condensation. A store consumes the meld of its
   predecessors. Labels are read and written in place in the slot arrays
   [cons] and [yld] (each slot belongs to one object), and the static
   reliances of [o]'s edges go into [rel] as packed (κ, κ') keys. [o]'s
   edges are slot pairs [esrc.(e) -> edst.(e)] for [e] in [lo .. hi - 1];
   [role] marks each SVFG node transparent, [store] or [delta]; [loc]
   (slot -> local id, all [-1] between objects) and [glob] (its inverse)
   are scratch space shared by all objects. *)
let transparent = '\000'
let store = '\001'
let delta = '\002'

let label_object svfg vt ~cons ~yld ~rel ~lo ~hi ~esrc ~edst ~role ~loc ~glob
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
  for e = lo to hi - 1 do
    ignore (local esrc.(e));
    ignore (local edst.(e))
  done;
  let k = !k in
  let role l = Bytes.get role (Svfg.slot_node svfg glob.(l)) in
  (* The constants are already in place (prelabels); every other slot of
     [o] still reads ε. *)
  let yv l = yld.(glob.(l)) in
  (* Predecessors of every node, and the transparent-only successor graph
     whose condensation orders the pass; lists in edge order. *)
  let preds = Array.make k [] and succs = Array.make k [] in
  for e = hi - 1 downto lo do
    let s = loc.(esrc.(e)) and d = loc.(edst.(e)) in
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
              if comp.(p) <> c then acc := Version.meld vt !acc (yv p)
              else if p = m then self_loop := true)
            preds.(m))
        members.(c);
      if rest <> [] || !self_loop then begin
        incr sccs;
        max_scc := max !max_scc (List.length members.(c))
      end;
      List.iter
        (fun m ->
          cons.(glob.(m)) <- !acc;
          yld.(glob.(m)) <- !acc)
        members.(c)
    | _ -> ()
  done;
  for l = 0 to k - 1 do
    let s = glob.(l) in
    if role l = store then
      List.iter (fun p -> cons.(s) <- Version.meld vt cons.(s) (yv p)) preds.(l);
    loc.(s) <- -1
  done;
  (* Static version reliances ([A-PROP] with differing versions). *)
  for e = lo to hi - 1 do
    let y = yld.(esrc.(e)) and c = cons.(edst.(e)) in
    if (not (Version.is_epsilon y)) && y <> c then
      ignore (Vec.push rel (Pair_key.pack y c))
  done

let compute ?(release_labels = true) svfg =
  let start = Unix.gettimeofday () in
  let prog = Svfg.prog svfg in
  let aux = Svfg.aux svfg in
  let vt = Version.create () in
  let n_nodes = Svfg.n_nodes svfg and ns = Svfg.n_slots svfg in
  let cons = Array.make ns Version.epsilon in
  let yld = Array.make ns Version.epsilon in
  let delta_nodes = Bitset.create () in
  let role = Bytes.make n_nodes transparent in
  (* Prelabelling (Fig. 6). A store's slots are its χ objects; a memory
     node's one slot is its own object. *)
  let prelabel n =
    ignore (Bitset.add delta_nodes n);
    Bytes.set role n delta;
    let s = Svfg.first_slot svfg n in
    cons.(s) <- Version.fresh vt;
    yld.(s) <- cons.(s)
  in
  for n = 0 to n_nodes - 1 do
    match Svfg.kind svfg n with
    | Svfg.NInst { f; i } -> (
      match Prog.inst (Prog.func prog f) i with
      | Inst.Store _ ->
        Bytes.set role n store;
        for s = Svfg.first_slot svfg n to Svfg.first_slot svfg (n + 1) - 1 do
          yld.(s) <- Version.fresh vt
        done
      | _ -> ())
    | Svfg.NFormalIn { f; _ } ->
      (* δ: functions that may be the target of an indirect call. *)
      if Callgraph.is_indirect_target aux.Pta_memssa.Modref.cg f then
        prelabel n
    | Svfg.NActualOut { f; call; _ } -> (
      (* δ: return targets of indirect calls. *)
      match Prog.inst (Prog.func prog f) call with
      | Inst.Call { callee = Inst.Indirect _; _ } -> prelabel n
      | _ -> ())
    | _ -> ()
  done;
  Stats.add "vsfs.prelabels" (Version.n_prelabels vt);
  (* Group the slot edges by object, each group in source order (a counting
     sort over two passes), then label each object's subgraph. Each pass
     uses one closure that reads the current slot and its object from refs,
     rather than allocating one per slot. *)
  let n_objs = Prog.n_vars prog in
  let first = Array.make (n_objs + 1) 0 in
  let cur_s = ref 0 and cur_o = ref 0 in
  let count _ = first.(!cur_o + 1) <- first.(!cur_o + 1) + 1 in
  for s = 0 to ns - 1 do
    cur_o := Svfg.slot_obj svfg s;
    Svfg.iter_slot_succs svfg s count
  done;
  for o = 0 to n_objs - 1 do
    first.(o + 1) <- first.(o + 1) + first.(o)
  done;
  let n_edges = first.(n_objs) in
  let esrc = Array.make n_edges 0 and edst = Array.make n_edges 0 in
  let fill = Array.sub first 0 n_objs in
  let place d =
    let o = !cur_o in
    esrc.(fill.(o)) <- !cur_s;
    edst.(fill.(o)) <- d;
    fill.(o) <- fill.(o) + 1
  in
  for s = 0 to ns - 1 do
    cur_s := s;
    cur_o := Svfg.slot_obj svfg s;
    Svfg.iter_slot_succs svfg s place
  done;
  let loc = Array.make ns (-1) and glob = Array.make ns 0 in
  let rel = Vec.create ~dummy:0 () in
  let objects = ref 0 and sccs = ref 0 and max_scc = ref 0 in
  for o = 0 to n_objs - 1 do
    if first.(o + 1) > first.(o) then begin
      incr objects;
      label_object svfg vt ~cons ~yld ~rel ~lo:first.(o) ~hi:first.(o + 1)
        ~esrc ~edst ~role ~loc ~glob ~sccs ~max_scc
    end
  done;
  let t = make svfg vt ~cons ~yld ~delta:delta_nodes ~rel ~duration:0. in
  if release_labels then Version.seal vt;
  Stats.add "vsfs.versions" (Version.n_versions vt);
  Stats.add "vsfs.version_objects" !objects;
  Stats.add "vsfs.version_sccs" !sccs;
  let m = Stats.counter "vsfs.version_max_scc" in
  m := max !m !max_scc;
  { t with duration = Unix.gettimeofday () -. start }
