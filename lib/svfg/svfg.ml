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
  (* Call-boundary nodes come in runs of ascending objects, one per element
     of an annotation set: a function's FormalIns (entry χ), then FormalOuts
     (exit μ); a call's ActualIns (μ), then ActualOuts (χ). [formals.(f)]
     and [actuals.(f).(i)] are the first node of each pair, or -1. *)
  formals : int array;
  actuals : int array array;
  (* Slots, set by [seal]: one per (node, object) the node carries indirect
     edges for, numbered by node, then by ascending object. *)
  mutable slot_start : int array;  (* node -> first slot; [n_nodes] -> n_slots *)
  mutable slot_obj : int array;
  mutable slot_node : int array;
  (* Indirect edges between slots in CSR form: slot [s]'s successors are
     [succ.(succ_start.(s)) .. succ.(succ_start.(s + 1) - 1)], ascending. *)
  mutable succ_start : int array;
  mutable succ : int array;
  mutable late : int array array;
      (* slot -> ascending successors added after sealing (call edges the
         solvers discover); [||] for almost every slot *)
  mutable n_ind_edges : int;
  def_nodes : int Vec.t;  (* var -> defining node or -1 *)
  user_lists : int list Vec.t;  (* var -> instruction nodes using it *)
  mutable n_dir_edges : int;
}

let prog t = t.prog
let aux t = t.aux
let modref t = t.mr
let annot t = t.annot
let n_nodes t = Vec.length t.kinds
let kind t n = Vec.get t.kinds n

(* A memory node's object; -1 for an instruction node. *)
let node_obj t n =
  match kind t n with
  | NInst _ -> -1
  | NMemPhi { obj; _ } | NFormalIn { obj; _ } | NFormalOut { obj; _ }
  | NActualIn { obj; _ } | NActualOut { obj; _ } ->
    obj

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

(* A function's FormalIn and FormalOut runs, and a call's ActualIn and
   ActualOut runs, as (first node, length) pairs. *)
let formal_runs t f =
  let a = t.formals.(f) and n = Bitset.cardinal (Annot.entry_chi t.annot f) in
  (a, n, a + n, Bitset.cardinal (Annot.exit_mu t.annot f))

let actual_runs t { Callgraph.cs_func = f; cs_inst = i } =
  let a = t.actuals.(f).(i) and n = Bitset.cardinal (Annot.mu t.annot f i) in
  (a, n, a + n, Bitset.cardinal (Annot.chi t.annot f i))

(* The node of object [o] in the run of [len] nodes from [first]. *)
let find_in_run t first len o =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) lsr 1 in
      let x = node_obj t mid in
      if x = o then Some mid else if x < o then go (mid + 1) hi else go lo mid
  in
  go first (first + len)

let formal_in t f o = let a, n, _, _ = formal_runs t f in find_in_run t a n o
let formal_out t f o = let _, _, a, n = formal_runs t f in find_in_run t a n o
let actual_in t cs o = let a, n, _, _ = actual_runs t cs in find_in_run t a n o
let actual_out t cs o = let _, _, a, n = actual_runs t cs in find_in_run t a n o

(* Append a node; the first call-boundary node of a function or a call
   starts its runs. An instruction node must name an instruction. *)
let add_node t k =
  let n = Vec.push t.kinds k in
  let start runs i = if runs.(i) < 0 then runs.(i) <- n in
  (match k with
  | NInst { f; i } ->
    if f < 0 || f >= Array.length t.inst_nodes || i < 0
       || i >= Array.length t.inst_nodes.(f)
    then invalid_arg "Svfg: node names an instruction out of range";
    t.inst_nodes.(f).(i) <- n
  | NMemPhi _ -> ()
  | NFormalIn { f; _ } | NFormalOut { f; _ } -> start t.formals f
  | NActualIn { f; call; _ } | NActualOut { f; call; _ } -> start t.actuals.(f) call);
  n

(* The call-boundary nodes in the order [build] creates them, one block:
   per function its FormalIns and FormalOuts, then per call its ActualIns
   and ActualOuts, each run by ascending object. *)
let iter_boundary_kinds t k =
  Prog.iter_funcs t.prog (fun fn ->
      let f = fn.Prog.id in
      Bitset.iter (fun o -> k (NFormalIn { f; obj = o })) (Annot.entry_chi t.annot f);
      Bitset.iter (fun o -> k (NFormalOut { f; obj = o })) (Annot.exit_mu t.annot f);
      for i = 0 to Prog.n_insts fn - 1 do
        if Inst.is_call (Prog.inst fn i) then begin
          Bitset.iter
            (fun o -> k (NActualIn { f; call = i; obj = o }))
            (Annot.mu t.annot f i);
          Bitset.iter
            (fun o -> k (NActualOut { f; call = i; obj = o }))
            (Annot.chi t.annot f i)
        end
      done)

(* Imported call-boundary nodes must be that block, wherever it starts:
   every run contiguous and ascending, and no boundary node outside it. *)
let check_boundary t kinds =
  let boundary = function NInst _ | NMemPhi _ -> false | _ -> true in
  let n = Array.length kinds and pos = ref 0 in
  while !pos < n && not (boundary kinds.(!pos)) do
    incr pos
  done;
  iter_boundary_kinds t (fun k ->
      if !pos < n && kinds.(!pos) = k then incr pos else pos := n + 1);
  if !pos > n || Array.exists boundary (Array.sub kinds !pos (n - !pos)) then
    invalid_arg "Svfg: call-boundary nodes are not in contiguous ascending runs"

(* ---------- slots and indirect edges ---------- *)

let n_slots t = Array.length t.slot_obj
let first_slot t n = t.slot_start.(n)
let slot_obj t s = t.slot_obj.(s)
let slot_node t s = t.slot_node.(s)

(* Position of [x] in the ascending run [a.(lo) .. a.(hi - 1)], or -1. *)
let rec find_sorted a lo hi x =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    if a.(mid) = x then mid
    else if a.(mid) < x then find_sorted a (mid + 1) hi x
    else find_sorted a lo mid x

let slot_of t n o =
  if n < 0 || n >= Array.length t.slot_start - 1 then -1
  else find_sorted t.slot_obj t.slot_start.(n) t.slot_start.(n + 1) o

let iter_slot_succs t s f =
  let late = t.late.(s) and hi = t.succ_start.(s + 1) in
  if Array.length late = 0 then
    for j = t.succ_start.(s) to hi - 1 do
      f t.succ.(j)
    done
  else begin
    (* the late row is disjoint from the sealed one: merge the two *)
    let j = ref t.succ_start.(s) in
    Array.iter
      (fun d ->
        while !j < hi && t.succ.(!j) < d do
          f t.succ.(!j);
          incr j
        done;
        f d)
      late;
    for j = !j to hi - 1 do
      f t.succ.(j)
    done
  end

let iter_ind_succs t n o f =
  let s = slot_of t n o in
  if s >= 0 then iter_slot_succs t s (fun d -> f t.slot_node.(d))

let iter_ind_all t n f =
  for s = t.slot_start.(n) to t.slot_start.(n + 1) - 1 do
    let o = t.slot_obj.(s) in
    iter_slot_succs t s (fun d -> f o t.slot_node.(d))
  done

(* Add a slot edge after sealing; [true] iff new. *)
let add_late t s d =
  let late = t.late.(s) in
  if
    find_sorted t.succ t.succ_start.(s) t.succ_start.(s + 1) d >= 0
    || find_sorted late 0 (Array.length late) d >= 0
  then false
  else begin
    t.late.(s) <- Array.of_list (List.merge Int.compare [ d ] (Array.to_list late));
    t.n_ind_edges <- t.n_ind_edges + 1;
    true
  end

(* The objects a node has slots for: a load's μ, a store's χ, a memory
   node's own object. *)
let iter_slot_objs t k f =
  match k with
  | NInst { f = fid; i } -> (
    match Prog.inst (Prog.func t.prog fid) i with
    | Inst.Load _ -> Bitset.iter f (Annot.mu t.annot fid i)
    | Inst.Store _ -> Bitset.iter f (Annot.chi t.annot fid i)
    | _ -> ())
  | NMemPhi { obj; _ }
  | NFormalIn { obj; _ }
  | NFormalOut { obj; _ }
  | NActualIn { obj; _ }
  | NActualOut { obj; _ } ->
    f obj

(* Stable counting sort of the ids in [visit] by [key.(id)] in [0, ns):
   the sorted ids and each key's first position. *)
let bucket ns key visit =
  let first = Array.make (ns + 1) 0 in
  Array.iter (fun k -> first.(k + 1) <- first.(k + 1) + 1) key;
  for s = 1 to ns do
    first.(s) <- first.(s) + first.(s - 1)
  done;
  let next = Array.sub first 0 ns in
  let out = Array.make (Array.length visit) 0 in
  Array.iter
    (fun e ->
      let k = key.(e) in
      out.(next.(k)) <- e;
      next.(k) <- next.(k) + 1)
    visit;
  (out, first)

(* Edges before sealing: (src, obj, dst) triples in a flat buffer. *)
let push_edge buf src o dst =
  ignore (Vec.push buf src);
  ignore (Vec.push buf o);
  ignore (Vec.push buf dst)

(* Number the slots, then turn [buf]'s (src, obj, dst) triples into sorted,
   de-duplicated CSR rows. Everything but the CSR arrays is garbage when
   this returns. *)
let seal t (buf : int Vec.t) =
  let nn = n_nodes t in
  let start = Array.make (nn + 1) 0 in
  let objs = Vec.create ~dummy:0 () and nodes = Vec.create ~dummy:0 () in
  for n = 0 to nn - 1 do
    iter_slot_objs t (kind t n) (fun o ->
        ignore (Vec.push objs o);
        ignore (Vec.push nodes n));
    start.(n + 1) <- Vec.length objs
  done;
  let ns = Vec.length objs in
  t.slot_start <- start;
  t.slot_obj <- Array.init ns (Vec.get objs);
  t.slot_node <- Array.init ns (Vec.get nodes);
  let ne = Vec.length buf / 3 in
  let src = Array.make ne 0 and dst = Array.make ne 0 in
  for e = 0 to ne - 1 do
    let o = Vec.get buf ((3 * e) + 1) in
    src.(e) <- slot_of t (Vec.get buf (3 * e)) o;
    dst.(e) <- slot_of t (Vec.get buf ((3 * e) + 2)) o;
    if src.(e) < 0 || dst.(e) < 0 then
      invalid_arg "Svfg: indirect edge endpoint is not a slot"
  done;
  (* By destination, then stably by source: each row comes out ascending,
     with duplicates adjacent. *)
  let by_dst, _ = bucket ns dst (Array.init ne Fun.id) in
  let by_src, first = bucket ns src by_dst in
  let succ = Array.make ne 0 and succ_start = Array.make (ns + 1) 0 in
  let k = ref 0 in
  for s = 0 to ns - 1 do
    succ_start.(s) <- !k;
    for j = first.(s) to first.(s + 1) - 1 do
      let d = dst.(by_src.(j)) in
      if !k = succ_start.(s) || succ.(!k - 1) <> d then begin
        succ.(!k) <- d;
        incr k
      end
    done
  done;
  succ_start.(ns) <- !k;
  t.succ_start <- succ_start;
  t.succ <- (if !k = ne then succ else Array.sub succ 0 !k);
  t.late <- Array.make ns [||];
  t.n_ind_edges <- !k;
  Stats.add "svfg.slots" ns;
  Stats.add "svfg.indirect_edges" !k

(* [f a o b] for each object [o] held by both the run of [na] nodes from
   [a] and the run of [nb] nodes from [b], [a] and [b] its nodes there. *)
let iter_common t a na b nb f =
  let i = ref a and j = ref b in
  while !i < a + na && !j < b + nb do
    let x = node_obj t !i and y = node_obj t !j in
    if x < y then incr i
    else if y < x then incr j
    else begin
      f !i x !j;
      incr i;
      incr j
    end
  done

(* The interprocedural edges of the call edge [cs -> g]: ActualIn -> FormalIn
   for each object [g] may read that the call passes in, FormalOut ->
   ActualOut for each object [g] may modify that the call passes back. The
   runs hold exactly those objects, so each side is a merge walk. *)
let iter_call_edges t cs g f =
  let ai, n_ai, ao, n_ao = actual_runs t cs in
  let fi, n_fi, fo, n_fo = formal_runs t g in
  iter_common t ai n_ai fi n_fi f;
  iter_common t fo n_fo ao n_ao f

let add_call_edges t cs g =
  let added = ref [] in
  iter_call_edges t cs g (fun src o dst ->
      if add_late t (slot_of t src o) (slot_of t dst o) then
        added := (src, o, dst) :: !added);
  !added

let connect_callgraph t cg =
  Callgraph.iter_edges cg (fun cs g -> ignore (add_call_edges t cs g))

let def_node t v = if v < Vec.length t.def_nodes then Vec.get t.def_nodes v else -1

let users t v =
  if v < Vec.length t.user_lists then Vec.get t.user_lists v else []

let n_indirect_edges t = t.n_ind_edges
let n_direct_edges t = t.n_dir_edges

let to_digraph t =
  let g = Pta_graph.Digraph.create ~n:(n_nodes t) () in
  for s = 0 to n_slots t - 1 do
    iter_slot_succs t s (fun d ->
        ignore (Pta_graph.Digraph.add_edge g t.slot_node.(s) t.slot_node.(d)))
  done;
  for v = 0 to Vec.length t.def_nodes - 1 do
    let d = Vec.get t.def_nodes v in
    if d >= 0 then
      List.iter
        (fun u -> ignore (Pta_graph.Digraph.add_edge g d u))
        (Vec.get t.user_lists v)
  done;
  g

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

(* [f o n] for each object [o] of [set], ascending, and the node [n] that
   holds it in the run starting at [first]; returns the run's end. *)
let iter_run first set f =
  let n = ref first in
  Bitset.iter
    (fun o ->
      f o !n;
      incr n)
    set;
  !n

(* Memory-SSA renaming of one function: places MEMPHIs at iterated dominance
   frontiers of definition sites and walks the dominator tree keeping a
   stack of reaching definitions per object in [stacks] (object -> stack,
   shared by every function: the walk pops all it pushes); every use found
   emits an indirect def-use edge through [edge src o dst]. *)
let rename_function t ~stacks ~edge fn =
  let f = fn.Prog.id in
  let cfg = fn.Prog.cfg in
  let entry = fn.Prog.entry_inst in
  let entry_chi = Annot.entry_chi t.annot f in
  let exit_mu = Annot.exit_mu t.annot f in
  (* Definition sites per object (instruction ids). Its iteration order
     numbers the MEMPHIs, so it stays a [Hashtbl]. *)
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
    (* MEMPHI placement: instruction -> (object, MEMPHI node) list. *)
    let memphis = Array.make (Prog.n_insts fn) [] in
    Hashtbl.iter
      (fun o sites ->
        let joins = Pta_graph.Dom.iterated_frontier df !sites in
        Bitset.iter
          (fun j ->
            let node = add_node t (NMemPhi { f; at = j; obj = o }) in
            memphis.(j) <- (o, node) :: memphis.(j))
          joins)
      defsites;
    (* Renaming. *)
    let children = Pta_graph.Dom.dom_tree_children dom in
    let top o =
      match stacks.(o) with
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
    let use o n = edge (top o) o n in
    let rec walk i =
      let pushed = ref [] in
      let push o d =
        stacks.(o) <- d :: stacks.(o);
        pushed := o :: !pushed
      in
      (* MEMPHIs attached to this CFG node define first. *)
      List.iter (fun (o, node) -> push o node) memphis.(i);
      (match Prog.inst fn i with
      | Inst.Entry -> ignore (iter_run t.formals.(f) entry_chi push)
      | Inst.Exit ->
        ignore (iter_run (t.formals.(f) + Bitset.cardinal entry_chi) exit_mu use)
      | Inst.Load _ ->
        let node = t.inst_nodes.(f).(i) in
        Bitset.iter (fun o -> use o node) (Annot.mu t.annot f i)
      | Inst.Store _ ->
        let node = t.inst_nodes.(f).(i) in
        Bitset.iter
          (fun o ->
            (* weak-update operand, then the store defines the object *)
            use o node;
            push o node)
          (Annot.chi t.annot f i)
      | Inst.Call _ ->
        let k = iter_run t.actuals.(f).(i) (Annot.mu t.annot f i) use in
        ignore
          (iter_run k (Annot.chi t.annot f i) (fun o n ->
               (* the call's χ also consumes the previous definition (weak) *)
               use o n;
               push o n))
      | Inst.Alloc _ | Inst.Copy _ | Inst.Phi _ | Inst.Field _ | Inst.Branch ->
        ());
      (* Feed MEMPHI operands of CFG successors. *)
      Pta_graph.Digraph.iter_succs cfg i (fun m ->
          List.iter
            (fun (o, node) ->
              match stacks.(o) with d :: _ -> edge d o node | [] -> ())
            memphis.(m));
      List.iter walk children.(i);
      List.iter (fun o -> stacks.(o) <- List.tl stacks.(o)) !pushed
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
  (* Slot order is (src, obj) order, and each row is ascending: identical
     graphs encode to identical bytes (stable content hashes). *)
  let rows = ref [] in
  for s = n_slots t - 1 downto 0 do
    let dsts = ref [] in
    iter_slot_succs t s (fun d -> dsts := t.slot_node.(d) :: !dsts);
    if !dsts <> [] then
      rows :=
        (t.slot_node.(s), t.slot_obj.(s), Array.of_list (List.rev !dsts))
        :: !rows
  done;
  let raw_mods, raw_refs = Modref.export t.mr in
  let raw_mu, raw_chi, raw_entry_chis, raw_exit_mus = Annot.export t.annot in
  { raw_kinds; raw_ind = Array.of_list !rows; raw_mods; raw_refs; raw_mu;
    raw_chi; raw_entry_chis; raw_exit_mus }

let create prog aux mr annot =
  let t =
    {
      prog;
      aux;
      mr;
      annot;
      kinds = Vec.create ~dummy:(NInst { f = -1; i = -1 }) ();
      inst_nodes = Array.make (Prog.n_funcs prog) [||];
      formals = Array.make (Prog.n_funcs prog) (-1);
      actuals = Array.make (Prog.n_funcs prog) [||];
      slot_start = [||];
      slot_obj = [||];
      slot_node = [||];
      succ_start = [||];
      succ = [||];
      late = [||];
      n_ind_edges = 0;
      def_nodes = Vec.create ~dummy:(-1) ();
      user_lists = Vec.create ~dummy:[] ();
      n_dir_edges = 0;
    }
  in
  Vec.grow_to t.def_nodes (Prog.n_vars prog);
  Vec.grow_to t.user_lists (Prog.n_vars prog);
  Prog.iter_funcs prog (fun fn ->
      t.inst_nodes.(fn.Prog.id) <- Array.make (Prog.n_insts fn) (-1);
      t.actuals.(fn.Prog.id) <- Array.make (Prog.n_insts fn) (-1));
  t

let import prog (aux : Modref.aux) raw =
  let mr = Modref.import ~mods:raw.raw_mods ~refs:raw.raw_refs in
  let annot =
    Annot.import ~mu:raw.raw_mu ~chi:raw.raw_chi
      ~entry_chis:raw.raw_entry_chis ~exit_mus:raw.raw_exit_mus
  in
  let t = create prog aux mr annot in
  (* Node tables are derivable from the kind array alone. *)
  check_boundary t raw.raw_kinds;
  Array.iter (fun k -> ignore (add_node t k)) raw.raw_kinds;
  (* Fresh edge arrays per import: solvers add late edges, so two imports of
     the same raw value must not share state. *)
  let buf = Vec.create ~dummy:0 () in
  Array.iter (fun (src, o, dsts) -> Array.iter (push_edge buf src o) dsts) raw.raw_ind;
  seal t buf;
  build_direct t;
  t

let build prog (aux : Modref.aux) =
  let mr = Modref.compute prog aux in
  let annot = Annot.compute prog aux mr in
  let t = create prog aux mr annot in
  (* 1. Instruction nodes (all but pure control flow). *)
  Prog.iter_funcs prog (fun fn ->
      let f = fn.Prog.id in
      for i = 0 to Prog.n_insts fn - 1 do
        match Prog.inst fn i with
        | Inst.Branch -> ()
        | _ -> ignore (add_node t (NInst { f; i }))
      done);
  (* 2. Call-boundary and function-boundary memory nodes. *)
  iter_boundary_kinds t (fun k -> ignore (add_node t k));
  (* 3. Memory-SSA renaming (MEMPHIs + intraprocedural indirect edges) and
     the interprocedural edges of direct calls, whose targets are static,
     into one buffer of (src, obj, dst) triples; then seal it. *)
  let buf = Vec.create ~capacity:4096 ~dummy:0 () in
  let edge = push_edge buf in
  let stacks = Array.make (Prog.n_vars prog) [] in
  Prog.iter_funcs prog (fun fn -> rename_function t ~stacks ~edge fn);
  Prog.iter_funcs prog (fun fn ->
      for i = 0 to Prog.n_insts fn - 1 do
        match Prog.inst fn i with
        | Inst.Call { callee = Inst.Direct g; _ } ->
          iter_call_edges t { Callgraph.cs_func = fn.Prog.id; cs_inst = i } g edge
        | _ -> ()
      done);
  seal t buf;
  (* 4. Direct def-use edges. *)
  build_direct t;
  t
