open Pta_ds
open Pta_ir
module Svfg = Pta_svfg.Svfg
module Engine = Pta_engine.Engine
module Scheduler = Pta_engine.Scheduler
module Telemetry = Pta_engine.Telemetry

module Tbl = Pair_key.Tbl

type result = {
  c : Solver_common.t;
  (* keyed by [Pair_key.pack node obj]: no tuple per lookup *)
  ins : Ptset.t Tbl.t;
  outs : Ptset.t Tbl.t;
  node_objs : Bitset.t Tbl.t;
      (* per node: objects with a materialised IN set — a store must pass
         these through to OUT when it does not actually define them *)
}

type paused = { res : result; eng : Engine.t }
type outcome = Done of result | Paused of paused

(* IN/OUT tables hold interned ids; an absent entry and an explicit [empty]
   entry differ — stores pass through exactly the *materialised* INs, so
   reading a set must record its existence. *)
let find_or_empty tbl k =
  match Tbl.find_opt tbl k with
  | Some id -> id
  | None ->
    Tbl.add tbl k Ptset.empty;
    Ptset.empty

(* Only the read that materialises an IN can add an object to [node_objs],
   so a hit costs one probe. *)
let in_id t n o =
  let k = Pair_key.pack n o in
  match Tbl.find_opt t.ins k with
  | Some id -> id
  | None ->
    (match Tbl.find_opt t.node_objs n with
    | Some s -> ignore (Bitset.add s o)
    | None -> Tbl.add t.node_objs n (Bitset.singleton o));
    find_or_empty t.ins k

let out_id t n o = find_or_empty t.outs (Pair_key.pack n o)

(* Union [src] into the IN set of [(n, o)]; true iff it grew. *)
let union_in t n o src =
  let s = in_id t n o in
  let s' = Ptset.union s src in
  if Ptset.equal s' s then false
  else begin
    Tbl.replace t.ins (Pair_key.pack n o) s';
    true
  end

(* The set a node exposes to its successors for [o]: stores expose OUT,
   everything else passes its IN through. *)
let out_for_id t n o =
  match Svfg.kind t.c.Solver_common.svfg n with
  | Svfg.NInst _ when Inst.is_store (Svfg.inst_of t.c.Solver_common.svfg n) ->
    out_id t n o
  | _ -> in_id t n o

type seed = {
  seed_pt : (Inst.var * Bitset.t) list;
  seed_ins : (int * Inst.var * Bitset.t) list;
  seed_outs : (int * Inst.var * Bitset.t) list;
  schedule : int list;
}

(* Build the solver state and its engine, seed every node (or, with a
   [seed], only its schedule), but do not run: [solve] drives it to
   fixpoint, [solve_budgeted]/[resume] in slices. *)
let start ?(strategy = `Fifo) ?strong_updates ?seed svfg =
  let tel =
    Telemetry.phase ~name:"sfs.solve" ~scheduler:(Scheduler.name strategy) ()
  in
  let c = Solver_common.create ?strong_updates ~tel svfg in
  let t =
    { c; ins = Tbl.create 1024; outs = Tbl.create 256;
      node_objs = Tbl.create 256 }
  in
  let annot = Svfg.annot svfg in
  let props = c.Solver_common.props in
  (* [process] collects the nodes to (re)visit in [buf]; the engine owns
     scheduling and deduplication. *)
  let buf = ref [] in
  let push n = buf := n :: !buf in
  let push_users v = List.iter push (Svfg.users svfg v) in
  (* Propagate [set] along every outgoing [o]-edge of [n]. Callers pass
     either a full exposed set (phi-like pass-through nodes, where the
     memoized union makes re-propagation cheap) or just the delta a store
     added, which is what makes this difference propagation. *)
  let propagate n o set =
    if not (Ptset.is_empty set) then
      Svfg.iter_ind_succs svfg n o (fun m ->
          incr props;
          if union_in t m o set then push m)
  in
  let on_call_edge cs g =
    List.iter
      (fun (src, o, dst) ->
        incr props;
        (* A late edge needs a full sync: the destination missed every delta
           propagated before the edge existed. *)
        if union_in t dst o (out_for_id t src o) then push dst)
      (Svfg.add_call_edges svfg cs g)
  in
  let process n =
    buf := [];
    (match Svfg.kind svfg n with
    | Svfg.NInst { f; i } -> (
      match Svfg.inst_of svfg n with
      | Inst.Load { lhs; ptr } ->
        let mu = Pta_memssa.Annot.mu annot f i in
        let changed = ref false in
        Bitset.iter
          (fun o ->
            if Bitset.mem mu o then
              if Solver_common.union_pt c lhs (in_id t n o) then changed := true)
          (Solver_common.pt_of c ptr);
        if !changed then push_users lhs
      | Inst.Store { ptr; rhs } ->
        let chi = Pta_memssa.Annot.chi annot f i in
        let ptr_pts = Solver_common.pt_of c ptr in
        let rhs_id = Solver_common.pt_id c rhs in
        let ptr_single = Solver_common.strong_update_ptr c ptr in
        Bitset.iter
          (fun o ->
            if Bitset.mem chi o then begin
              let out0 = out_id t n o in
              let out1, d1 = Ptset.union_delta out0 rhs_id in
              let out2, d2 =
                if Solver_common.strong_update_ok c ~ptr_single o then
                  (out1, Ptset.empty)
                else Ptset.union_delta out1 (in_id t n o)
              in
              if not (Ptset.equal out2 out0) then begin
                Tbl.replace t.outs (Pair_key.pack n o) out2;
                propagate n o (Ptset.union d1 d2)
              end
            end)
          ptr_pts;
        (* Spurious χ objects (the auxiliary analysis thought this store may
           define them, so the SVFG routes their def-use chain through this
           node, but flow-sensitively the store does not write them): pass
           IN through to OUT unchanged — except for a statically strong-
           updated object, which is killed here no matter what. *)
        (match Tbl.find_opt t.node_objs n with
        | Some objs ->
          Bitset.iter
            (fun o ->
              if
                (not (Bitset.mem ptr_pts o))
                && not (Solver_common.strong_update_ok c ~ptr_single o)
              then begin
                let out0 = out_id t n o in
                let out1, d = Ptset.union_delta out0 (in_id t n o) in
                if not (Ptset.equal out1 out0) then begin
                  Tbl.replace t.outs (Pair_key.pack n o) out1;
                  propagate n o d
                end
              end)
            objs
        | None -> ())
      | ins -> Solver_common.process_top_level c ~push_users ~on_call_edge ~node:n ins)
    | Svfg.NMemPhi { obj; _ }
    | Svfg.NFormalIn { obj; _ }
    | Svfg.NFormalOut { obj; _ }
    | Svfg.NActualIn { obj; _ }
    | Svfg.NActualOut { obj; _ } ->
      propagate n obj (in_id t n obj));
    !buf
  in
  let eng =
    Engine.create ~telemetry:tel
      ~scheduler:(Solver_common.scheduler strategy svfg)
      ~process ()
  in
  (match seed with
  | None ->
    for n = 0 to Svfg.n_nodes svfg - 1 do
      Engine.push eng n
    done
  | Some s ->
    (* Install the reused facts, then queue only the nodes the caller
       computed as potentially out of date. Seeds must be exact final values
       (for reused nodes) or sound initial values (boundary injections into
       re-solved nodes): the monotone engine then converges to the same
       fixpoint a whole-program run would, doing only the queued work. *)
    List.iter
      (fun (v, set) ->
        ignore (Solver_common.union_pt c v (Ptset.of_bitset set)))
      s.seed_pt;
    List.iter
      (fun (n, o, set) -> ignore (union_in t n o (Ptset.of_bitset set)))
      s.seed_ins;
    List.iter
      (fun (n, o, set) ->
        Tbl.replace t.outs (Pair_key.pack n o) (Ptset.of_bitset set))
      s.seed_outs;
    List.iter (Engine.push eng) s.schedule);
  { res = t; eng }

let continue_ budget p =
  match Engine.run ?budget p.eng with
  | Engine.Fixpoint -> Done p.res
  | Engine.Paused _ -> Paused p

let solve ?strategy ?strong_updates ?seed svfg =
  match continue_ None (start ?strategy ?strong_updates ?seed svfg) with
  | Done r -> r
  | Paused _ -> assert false (* no budget: run only returns at fixpoint *)

let solve_budgeted ?strategy ?strong_updates ~budget svfg =
  continue_ (Some budget) (start ?strategy ?strong_updates svfg)

let resume ~budget p = continue_ (Some budget) p

let pt t v = Solver_common.pt_of t.c v
let in_set t n o = Option.map Ptset.view (Tbl.find_opt t.ins (Pair_key.pack n o))
let out_set t n o = Option.map Ptset.view (Tbl.find_opt t.outs (Pair_key.pack n o))

(* Deterministic sweep over the materialised non-empty entries (sorted by
   packed key, i.e. by (node, object)) — what the per-function result
   artifacts are built from. *)
let iter_nonempty tbl f =
  let entries =
    Tbl.fold
      (fun k id acc -> if Ptset.is_empty id then acc else (k, id) :: acc)
      tbl []
  in
  List.iter
    (fun (k, id) -> f (Pair_key.hi k) (Pair_key.lo k) (Ptset.view id))
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) entries)

let iter_ins t f = iter_nonempty t.ins f
let iter_outs t f = iter_nonempty t.outs f

(* Flow-insensitive collapse of one object's contents over all program
   points: a scan of both whole tables. *)
let object_pt t o =
  let acc = Bitset.create () in
  let scan tbl =
    Tbl.iter
      (fun k id ->
        if Pair_key.lo k = o then
          ignore (Bitset.union_into ~into:acc (Ptset.view id)))
      tbl
  in
  scan t.ins;
  scan t.outs;
  acc

(* Every object's collapse in one pass over each table. Slots of one object
   often repeat its previous set, so a set equal to the object's last one
   is skipped. *)
let object_pts t =
  let n = Prog.n_vars (Svfg.prog t.c.Solver_common.svfg) in
  let acc = Array.init n (fun _ -> Bitset.create ()) in
  let last = Array.make n Ptset.empty in
  let add k id =
    let o = Pair_key.lo k in
    if not (Ptset.equal id last.(o)) then begin
      last.(o) <- id;
      ignore (Bitset.union_into ~into:acc.(o) (Ptset.view id))
    end
  in
  Tbl.iter add t.ins;
  Tbl.iter add t.outs;
  acc

let callgraph t = t.c.Solver_common.cg_fs

let n_sets t = Tbl.length t.ins + Tbl.length t.outs

let tally t =
  let tl = Ptset.Tally.create () in
  Tbl.iter (fun _ id -> Ptset.Tally.visit tl id) t.ins;
  Tbl.iter (fun _ id -> Ptset.Tally.visit tl id) t.outs;
  tl

let words t = Ptset.Tally.shared_words (tally t)
let unshared_words t = Ptset.Tally.unshared_words (tally t)
let n_unique_sets t = Ptset.Tally.unique (tally t)

let telemetry t = t.c.Solver_common.tel
let n_propagations t = !(t.c.Solver_common.props)
let processed t = (telemetry t).Telemetry.pops
