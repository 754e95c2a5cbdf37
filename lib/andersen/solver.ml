open Pta_ds
open Pta_ir
module Engine = Pta_engine.Engine
module Scheduler = Pta_engine.Scheduler
module Telemetry = Pta_engine.Telemetry

type complex = {
  (* [lhs = *p] constraints keyed by pointer [p] *)
  mutable load_lhss : Inst.var list;
  (* [*p = q] constraints keyed by pointer [p] *)
  mutable store_rhss : Inst.var list;
  (* [lhs = &p->k] constraints keyed by base [p] *)
  mutable geps : (Inst.var * int) list;
  (* indirect call sites whose function pointer is [p] *)
  mutable calls : (Callgraph.callsite * Inst.var option * Inst.var list) list;
  (* objects already expanded for this constraint-carrying variable *)
  mutable cdone : Ptset.t;
}

type state = {
  prog : Prog.t;
  uf : Union_find.t;
  pts : Ptset.t Vec.t;  (* authoritative at representatives *)
  prev : Ptset.t Vec.t;  (* what has been pushed to copy successors *)
  copy : Bitset.t Vec.t;
      (* copy successors per node, canonicalised at insertion; a collapse
         migrates the absorbed node's out-edges to the surviving
         representative, and edge *targets* are re-canonicalised at use —
         so walking the representatives' rows sees every live edge *)
  complex : (Inst.var, complex) Hashtbl.t;
  cg : Callgraph.t;
  mutable new_edges : (int * int) list;
      (* copy edges added since the last sync: their sources' already-
         propagated sets must be pushed across once in full, because
         difference propagation only ships future growth *)
  mutable changed : bool;
  mutable waves : int;
  tel : Telemetry.phase;
  merges : int ref;  (* telemetry extras, cached *)
  propagated : int ref;
  n_waves_tel : int ref;
}

type result = state

let ensure st v =
  Union_find.grow st.uf (v + 1);
  Vec.grow_to st.pts (v + 1);
  Vec.grow_to st.prev (v + 1);
  while Vec.length st.copy <= v do
    ignore (Vec.push st.copy (Bitset.create ()))
  done

let pts_id st v = Vec.get st.pts (Union_find.find st.uf v)

let complex_of st v =
  match Hashtbl.find_opt st.complex v with
  | Some c -> c
  | None ->
    let c =
      { load_lhss = []; store_rhss = []; geps = []; calls = [];
        cdone = Ptset.empty }
    in
    Hashtbl.add st.complex v c;
    c

let add_copy st u w =
  let cu = Union_find.find st.uf u and cw = Union_find.find st.uf w in
  if cu <> cw then
    if Bitset.add (Vec.get st.copy cu) cw then begin
      st.new_edges <- (cu, cw) :: st.new_edges;
      st.changed <- true
    end

let add_pt st v o =
  let r = Union_find.find st.uf v in
  let s = Vec.get st.pts r in
  let s' = Ptset.add s o in
  if not (Ptset.equal s' s) then begin
    Vec.set st.pts r s';
    st.changed <- true
  end

(* Engine-driven propagation grows [pts] without touching [changed]: growth
   inside a wave is re-examined by [expand_complex] at the wave's end, so
   only structural changes (new constraints, edges, merges) re-arm the
   outer loop. *)
let quiet_union st r src =
  let s = Vec.get st.pts r in
  let s' = Ptset.union s src in
  if Ptset.equal s' s then false
  else begin
    Vec.set st.pts r s';
    true
  end

(* ---------- constraint extraction ---------- *)

let link_call st ~(caller : Callgraph.callsite) ~lhs ~args fid =
  if Callgraph.add st.cg caller fid then st.changed <- true;
  let callee = Prog.func st.prog fid in
  let rec zip args params =
    match (args, params) with
    | a :: args, p :: params ->
      add_copy st a p;
      zip args params
    | _, _ -> ()
  in
  zip args callee.Prog.params;
  match (lhs, callee.Prog.ret) with
  | Some l, Some r -> add_copy st r l
  | _ -> ()

let extract st =
  Prog.iter_funcs st.prog (fun fn ->
      for i = 0 to Prog.n_insts fn - 1 do
        match Prog.inst fn i with
        | Inst.Alloc { lhs; obj } ->
          ensure st (max lhs obj);
          add_pt st lhs obj
        | Inst.Copy { lhs; rhs } ->
          ensure st (max lhs rhs);
          add_copy st rhs lhs
        | Inst.Phi { lhs; rhs } ->
          ensure st lhs;
          List.iter
            (fun r ->
              ensure st r;
              add_copy st r lhs)
            rhs
        | Inst.Field { lhs; base; offset } ->
          ensure st (max lhs base);
          (complex_of st base).geps <- (lhs, offset) :: (complex_of st base).geps
        | Inst.Load { lhs; ptr } ->
          ensure st (max lhs ptr);
          (complex_of st ptr).load_lhss <- lhs :: (complex_of st ptr).load_lhss
        | Inst.Store { ptr; rhs } ->
          ensure st (max ptr rhs);
          (complex_of st ptr).store_rhss <- rhs :: (complex_of st ptr).store_rhss
        | Inst.Call { lhs; callee; args } -> (
          List.iter (ensure st) args;
          Option.iter (ensure st) lhs;
          let cs = { Callgraph.cs_func = fn.Prog.id; cs_inst = i } in
          match callee with
          | Inst.Direct fid -> link_call st ~caller:cs ~lhs ~args fid
          | Inst.Indirect fp ->
            ensure st fp;
            (complex_of st fp).calls <- (cs, lhs, args) :: (complex_of st fp).calls)
        | Inst.Entry | Inst.Exit | Inst.Branch -> ()
      done)

(* ---------- one wave ---------- *)

(* Merge every non-trivial SCC of the condensed copy graph and return the
   condensation, whose topological ranks drive the worklist order.
   Tarjan runs over the representatives in place: a representative's
   successors are the representatives of its copy row, minus itself,
   ascending and de-duplicated; a non-representative has none. The
   absorbed node's out-edges migrate to the surviving leader; its points-to
   union and [prev] intersection make the post-collapse seeding re-send
   whatever any merged party's successors may still be missing. *)
let collapse_sccs st =
  let n = Vec.length st.copy in
  let succs v =
    if Union_find.find st.uf v <> v then []
    else begin
      let out = ref [] in
      Bitset.iter
        (fun w ->
          let cw = Union_find.find st.uf w in
          if cw <> v then out := cw :: !out)
        (Vec.get st.copy v);
      List.sort_uniq Int.compare !out
    end
  in
  let scc = Pta_graph.Scc.compute_succs ~n succs in
  let leader = Array.make scc.Pta_graph.Scc.n_comps (-1) in
  for v = 0 to n - 1 do
    if Union_find.find st.uf v = v then begin
      let c = scc.Pta_graph.Scc.comp.(v) in
      if scc.Pta_graph.Scc.sizes.(c) > 1 then
        if leader.(c) = -1 then leader.(c) <- v
        else begin
          let l = leader.(c) in
          (* Keep [l] as representative; fold [v]'s data into it. *)
          let pv = Vec.get st.pts v and qv = Vec.get st.prev v in
          Union_find.union_into st.uf ~winner:l v;
          incr st.merges;
          Vec.set st.pts l (Ptset.union (Vec.get st.pts l) pv);
          (* [prev] must under-approximate what reached every successor of
             the merged node, so intersect. *)
          Vec.set st.prev l (Ptset.inter (Vec.get st.prev l) qv);
          (* Out-edges of [v] live on under [l]; targets are canonicalised
             when walked. (In-edges need nothing: their sources walk to
             [find v] = [l].) *)
          ignore (Bitset.union_into ~into:(Vec.get st.copy l) (Vec.get st.copy v))
        end
    end
  done;
  scc

(* A copy edge added after its source already propagated needs one full
   catch-up union (difference propagation only ships growth after the edge
   exists). Growth surfaces in the pts-vs-prev seeding scan that follows. *)
let sync_new_edges st =
  let edges = st.new_edges in
  st.new_edges <- [];
  List.iter
    (fun (u, w) ->
      let cu = Union_find.find st.uf u and cw = Union_find.find st.uf w in
      if cu <> cw then ignore (quiet_union st cw (Vec.get st.prev cu)))
    edges

(* Deferred GEPs.

   [lhs = &p->k] cannot materialise the field object while [expand_complex]
   is iterating [st.complex]: [Prog.field_obj] grows the variable table,
   and a mid-iteration [ensure]/[Hashtbl] mutation under the live iterator
   would be undefined. So the walk only records (lhs, base, offset)
   triples, and they are flushed after it.

   The ordering invariant: triples are consed (newest first) during the
   walk and the flush consumes the list as-is, i.e. in REVERSE discovery
   order. This is load-bearing — [Prog.field_obj] assigns the next free
   variable id to each first-seen (base, offset) pair, so the flush order
   fixes the numbering of every field object, and those ids are the very
   elements stored in points-to bitsets. Any run that is supposed to be
   comparable bit-for-bit (sequential vs pool-worker, cold vs warm,
   scheduler A vs B) must create field objects in the same order, so this
   order must never depend on scheduling, domain, or wave count — only on
   the walk order of [st.complex] (insertion-ordered hashing) and of each
   delta bitset (ascending). Do not "fix" the reversal: flipping it would
   renumber field objects and invalidate every persisted artifact and
   pinned regression expectation downstream. *)
let defer_gep todo ~lhs ~base ~offset = todo := (lhs, base, offset) :: !todo

let flush_deferred_geps st todo =
  List.iter
    (fun (lhs, o, k) ->
      let fo = Prog.field_obj st.prog ~base:o ~offset:k in
      ensure st fo;
      ensure st lhs;
      add_pt st lhs fo)
    !todo

let expand_complex st =
  let geps_todo = ref [] in
  Hashtbl.iter
    (fun v c ->
      let p = pts_id st v in
      let delta = Ptset.diff p c.cdone in
      if not (Ptset.is_empty delta) then begin
        c.cdone <- Ptset.union c.cdone delta;
        Ptset.iter
          (fun o ->
            (* [lhs = *p]: value flows from the object to lhs. *)
            List.iter (fun lhs -> add_copy st o lhs) c.load_lhss;
            (* [*p = q]: value flows from q into the object. *)
            List.iter (fun rhs -> add_copy st rhs o) c.store_rhss;
            (* [lhs = &p->k] *)
            if c.geps <> [] then begin
              match Prog.obj_kind st.prog o with
              | Prog.Func _ -> () (* no fields on functions *)
              | _ ->
                List.iter
                  (fun (lhs, k) -> defer_gep geps_todo ~lhs ~base:o ~offset:k)
                  c.geps
            end;
            (* indirect calls through p *)
            if c.calls <> [] then
              match Prog.is_function_obj st.prog o with
              | Some fid ->
                Callgraph.mark_indirect_target st.cg fid;
                List.iter
                  (fun (cs, lhs, args) -> link_call st ~caller:cs ~lhs ~args fid)
                  c.calls
              | None -> ())
          delta
      end)
    st.complex;
  flush_deferred_geps st geps_todo

let solve prog =
  let n = Prog.n_vars prog in
  let tel = Telemetry.phase ~name:"andersen.solve" () in
  let st =
    {
      prog;
      uf = Union_find.create (max n 1);
      pts = Vec.create ~dummy:Ptset.empty ();
      prev = Vec.create ~dummy:Ptset.empty ();
      copy = Vec.create ~dummy:(Bitset.create ()) ();
      complex = Hashtbl.create 256;
      cg = Callgraph.create ();
      new_edges = [];
      changed = false;
      waves = 0;
      tel;
      merges = Telemetry.counter tel "scc_merges";
      propagated = Telemetry.counter tel "propagated";
      n_waves_tel = Telemetry.counter tel "waves";
    }
  in
  ensure st (max n 1 - 1);
  extract st;
  (* The worklist rank is the SCC-condensation rank of a node's current
     representative, refreshed every wave after the collapse; the Prio
     worklist re-reads it at pop, so merged nodes re-rank in place. *)
  let rank = ref [||] in
  let rank_of v =
    let r = !rank in
    if v < Array.length r then r.(v) else max_int
  in
  let scheduler = Scheduler.topo ~rank:rank_of in
  (* Difference propagation as the engine's transfer step: ship the part of
     [pts] that successors have not seen, record it in [prev], return the
     representatives that grew. Merges never happen while the engine runs,
     so [find] is stable within a wave. *)
  let process v =
    let r = Union_find.find st.uf v in
    let p = Vec.get st.pts r and q = Vec.get st.prev r in
    let diff = Ptset.diff p q in
    if Ptset.is_empty diff then []
    else begin
      Vec.set st.prev r (Ptset.union q p);
      st.propagated := !(st.propagated) + Ptset.cardinal diff;
      let out = ref [] in
      Bitset.iter
        (fun w0 ->
          let w = Union_find.find st.uf w0 in
          if w <> r && quiet_union st w diff then out := w :: !out)
        (Vec.get st.copy r);
      !out
    end
  in
  let eng = Engine.create ~telemetry:tel ~scheduler ~process () in
  st.changed <- true;
  while st.changed do
    st.changed <- false;
    st.waves <- st.waves + 1;
    incr st.n_waves_tel;
    let scc = collapse_sccs st in
    let m = Vec.length st.copy in
    rank :=
      Array.init m (fun v ->
          Pta_graph.Scc.rank_of_node scc (Union_find.find st.uf v));
    sync_new_edges st;
    (* Seed every representative with unshipped facts. *)
    for v = 0 to m - 1 do
      if
        Union_find.find st.uf v = v
        && not (Ptset.equal (Vec.get st.pts v) (Vec.get st.prev v))
      then Engine.push eng v
    done;
    (match Engine.run eng with
    | Engine.Fixpoint -> ()
    | Engine.Paused _ -> assert false (* unbudgeted *));
    expand_complex st
  done;
  st

let pts st v = Ptset.view (pts_id st v)
let points_to st v o = Ptset.mem (pts_id st v) o
let callgraph st = st.cg
let rep st v = Union_find.find st.uf v
let n_waves st = st.waves
let telemetry st = st.tel
