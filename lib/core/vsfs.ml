open Pta_ds
open Pta_ir
module Svfg = Pta_svfg.Svfg
module Solver_common = Pta_sfs.Solver_common
module Engine = Pta_engine.Engine
module Telemetry = Pta_engine.Telemetry

module Tbl = Pair_key.Tbl

type result = {
  c : Solver_common.t;
  ver : Versioning.t;
  ptk : Ptset.t Tbl.t;  (* Pair_key.pack obj κ -> pt_κ(o) *)
}

type paused = { res : result; eng : Engine.t }
type outcome = Done of result | Paused of paused

(* Entry presence matters (cf. [pt_version]/[consumed_pt] returning
   [option]): reads materialise an explicit empty entry, as the mutable
   version materialised a fresh bitset. *)
let ptk_id t o v =
  let k = Pair_key.pack o v in
  match Tbl.find_opt t.ptk k with
  | Some id -> id
  | None ->
    Tbl.add t.ptk k Ptset.empty;
    Ptset.empty

let ptk_opt t o v = Tbl.find_opt t.ptk (Pair_key.pack o v)

(* Build the solver state and its engine, seed the instruction nodes, but do
   not run: [solve] drives it to fixpoint, [solve_budgeted]/[resume] in
   slices. *)
let start ?strong_updates ?versioning svfg =
  let ver =
    match versioning with Some v -> v | None -> Versioning.compute svfg
  in
  let tel = Telemetry.phase ~name:"vsfs.solve" () in
  let c = Solver_common.create ?strong_updates ~tel svfg in
  let t = { c; ver; ptk = Tbl.create 1024 } in
  let props = c.Solver_common.props in
  (* [process] collects the nodes to (re)visit in [buf]; the engine owns
     scheduling and deduplication. *)
  let buf = ref [] in
  let push n = buf := n :: !buf in
  let push_users v = List.iter push (Svfg.users svfg v) in
  (* pt_κ(o) just grew by [d0]: push the statements consuming it and flow the
     delta along the version-reliance relation transitively. Only the newly
     added elements travel — every earlier element already flowed when it was
     itself a delta, and late (dynamic) reliance edges get a full sync in
     [on_call_edge]. *)
  let propagate_version o v0 d0 =
    if not (Ptset.is_empty d0) then begin
      let q = Queue.create () in
      Queue.push (v0, d0) q;
      while not (Queue.is_empty q) do
        let v, d = Queue.pop q in
        Versioning.iter_subscribers ver o v push;
        Versioning.iter_relied ver o v (fun v' ->
            incr props;
            let cur = ptk_id t o v' in
            let cur', d' = Ptset.union_delta cur d in
            if not (Ptset.equal cur' cur) then begin
              Tbl.replace t.ptk (Pair_key.pack o v') cur';
              Queue.push (v', d') q
            end)
      done
    end
  in
  let on_call_edge cs g =
    List.iter
      (fun (src, o, dst) ->
        match Versioning.add_dynamic_edge ver src o dst with
        | Some (y, c') ->
          incr props;
          let cur = ptk_id t o c' in
          let cur', d = Ptset.union_delta cur (ptk_id t o y) in
          if not (Ptset.equal cur' cur) then begin
            Tbl.replace t.ptk (Pair_key.pack o c') cur';
            propagate_version o c' d
          end
        | None -> ())
      (Svfg.add_call_edges svfg cs g)
  in
  let annot = Svfg.annot svfg in
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
            if Bitset.mem mu o then begin
              let cv = Versioning.consume ver n o in
              Versioning.subscribe ver o cv n;
              if not (Version.is_epsilon cv) then
                if Solver_common.union_pt c lhs (ptk_id t o cv) then
                  changed := true
            end)
          (Solver_common.pt_of c ptr);
        if !changed then push_users lhs
      | Inst.Store { ptr; rhs } ->
        let chi = Pta_memssa.Annot.chi annot f i in
        let ptr_pts = Solver_common.pt_of c ptr in
        let rhs_id = Solver_common.pt_id c rhs in
        let ptr_single = Solver_common.strong_update_ptr c ptr in
        (* Iterate the χ objects: those the store may define flow-sensitively
           get GEN (+ weak/strong); the spuriously-annotated rest pass their
           consumed version through to the yielded one (identity), because
           the SVFG routes their def-use chains through this node. *)
        Bitset.iter
          (fun o ->
            let y = Versioning.yield ver n o in
            let out0 = ptk_id t o y in
            let cv = Versioning.consume ver n o in
            Versioning.subscribe ver o cv n;
            let su = Solver_common.strong_update_ok c ~ptr_single o in
            if Bitset.mem ptr_pts o then begin
              let out1, d1 = Ptset.union_delta out0 rhs_id in
              let out2, d2 =
                if (not su) && not (Version.is_epsilon cv) then
                  Ptset.union_delta out1 (ptk_id t o cv)
                else (out1, Ptset.empty)
              in
              if not (Ptset.equal out2 out0) then begin
                Tbl.replace t.ptk (Pair_key.pack o y) out2;
                propagate_version o y (Ptset.union d1 d2)
              end
            end
            else if (not (Version.is_epsilon cv)) && not su then begin
              let out1, d = Ptset.union_delta out0 (ptk_id t o cv) in
              if not (Ptset.equal out1 out0) then begin
                Tbl.replace t.ptk (Pair_key.pack o y) out1;
                propagate_version o y d
              end
            end)
          chi
      | ins -> Solver_common.process_top_level c ~push_users ~on_call_edge ~node:n ins)
    | Svfg.NMemPhi _ | Svfg.NFormalIn _ | Svfg.NFormalOut _ | Svfg.NActualIn _
    | Svfg.NActualOut _ ->
      (* Memory nodes do no runtime work in VSFS: their effect is the
         precomputed version reliance. *)
      ());
    !buf
  in
  let eng =
    Engine.create ~telemetry:tel ~scheduler:(Pta_engine.Scheduler.fifo ())
      ~process ()
  in
  (* Seed with instruction nodes only. *)
  for n = 0 to Svfg.n_nodes svfg - 1 do
    match Svfg.kind svfg n with Svfg.NInst _ -> Engine.push eng n | _ -> ()
  done;
  { res = t; eng }

let continue_ budget p =
  match Engine.run ?budget p.eng with
  | Engine.Fixpoint -> Done p.res
  | Engine.Paused _ -> Paused p

let solve ?strong_updates ?versioning svfg =
  match continue_ None (start ?strong_updates ?versioning svfg) with
  | Done r -> r
  | Paused _ -> assert false (* no budget: run only returns at fixpoint *)

let solve_budgeted ?strong_updates ?versioning ~budget svfg =
  continue_ (Some budget) (start ?strong_updates ?versioning svfg)

let resume ~budget p = continue_ (Some budget) p

let pt t v = Solver_common.pt_of t.c v
let pt_set t v = Solver_common.pt_id t.c v
let pt_version t o v = Option.map Ptset.view (ptk_opt t o v)

let consumed_pt t n o =
  let cv = Versioning.consume t.ver n o in
  Option.map Ptset.view (ptk_opt t o cv)

(* Flow-insensitive collapse of an object's contents: the union of all its
   versions' points-to sets ("may contain anywhere"). Scans the whole
   table. *)
let object_pt t o =
  let acc = Bitset.create () in
  Tbl.iter
    (fun k id ->
      if Pair_key.hi k = o then
        ignore (Bitset.union_into ~into:acc (Ptset.view id)))
    t.ptk;
  acc

(* Every object's collapse in one pass over the table; a set equal to the
   object's previous one is skipped. *)
let object_pts t =
  let n = Prog.n_vars (Svfg.prog t.c.Solver_common.svfg) in
  let acc = Array.init n (fun _ -> Bitset.create ()) in
  let last = Array.make n Ptset.empty in
  Tbl.iter
    (fun k id ->
      let o = Pair_key.hi k in
      if not (Ptset.equal id last.(o)) then begin
        last.(o) <- id;
        ignore (Bitset.union_into ~into:acc.(o) (Ptset.view id))
      end)
    t.ptk;
  acc

(* §IV-C1: versioning with auxiliary (imprecise) points-to information "may
   give us more versions than necessary whereby two versions may be
   collapsible into a single version (both versions have equivalent
   points-to sets per the flow-sensitive analysis)". This counts that excess
   after solving: versions of the same object whose final sets are equal.
   With interned sets, equal sets share an id, so a per-object id set is the
   whole computation. *)
let collapsible_versions t =
  let per_obj = Tbl.create 256 in
  let collapsible = ref 0 in
  Tbl.iter
    (fun k id ->
      let o = Pair_key.hi k in
      let seen =
        match Tbl.find_opt per_obj o with
        | Some s -> s
        | None ->
          let s = Bitset.create () in
          Tbl.add per_obj o s;
          s
      in
      if not (Bitset.add seen (Ptset.hash id)) then incr collapsible)
    t.ptk;
  (!collapsible, Tbl.length t.ptk)

let callgraph t = t.c.Solver_common.cg_fs
let versioning t = t.ver
let n_sets t = Tbl.length t.ptk

let tally t =
  let tl = Ptset.Tally.create () in
  Tbl.iter (fun _ id -> Ptset.Tally.visit tl id) t.ptk;
  tl

let words t = Versioning.words t.ver + Ptset.Tally.shared_words (tally t)
let unshared_words t = Versioning.words t.ver + Ptset.Tally.unshared_words (tally t)
let n_unique_sets t = Ptset.Tally.unique (tally t)

let telemetry t = t.c.Solver_common.tel
let n_propagations t = !(t.c.Solver_common.props)
let processed t = (telemetry t).Telemetry.pops
