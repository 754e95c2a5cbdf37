open Pta_ds
open Pta_ir
module Svfg = Pta_svfg.Svfg
module Solver_common = Pta_sfs.Solver_common
module Engine = Pta_engine.Engine
module Telemetry = Pta_engine.Telemetry

(* Solver state indexed by version id (a non-ε version belongs to exactly
   one object, see {!Versioning}) and by SVFG slot. *)
type result = {
  c : Solver_common.t;
  ver : Versioning.t;
  ptk : Ptset.t array;  (* κ -> pt_κ(o) *)
  (* κ -> reliances added by the solver, beside {!Versioning}'s static
     ones: the weak-update C -> Y of stores, and on-the-fly call edges *)
  late : Version.t list array;
  subs : int list array;  (* κ -> loads subscribed to pt_κ(o) *)
  subscribed : Bytes.t;  (* slot -> its load has subscribed to its C *)
}

let iter_relied t v f =
  Versioning.iter_relied t.ver v f;
  List.iter f t.late.(v)

(* Weak updates as static reliance: whether store [n] may strongly update
   [o] depends only on the auxiliary points-to set of its pointer and on
   [o], so every χ object it cannot strongly update has pt_Y(o) ⊇ pt_C(o)
   for the whole solve. Register that as the reliance C -> Y up front; the
   store then only adds its GEN. *)
let add_weak_updates t svfg n ptr =
  let ptr_single = Solver_common.strong_update_ptr t.c ptr in
  for s = Svfg.first_slot svfg n to Svfg.first_slot svfg (n + 1) - 1 do
    let cv = Versioning.consume_slot t.ver s
    and y = Versioning.yield_slot t.ver s in
    if
      (not (Version.is_epsilon cv))
      && cv <> y
      && not
           (Solver_common.strong_update_ok t.c ~ptr_single (Svfg.slot_obj svfg s))
    then t.late.(cv) <- y :: t.late.(cv)
  done

(* Build the solver state and its engine, seed the instruction nodes, and
   run to fixpoint. *)
let solve ?strong_updates ?versioning ?budget svfg =
  let ver =
    match versioning with Some v -> v | None -> Versioning.compute svfg
  in
  let tel = Telemetry.phase ~name:"vsfs.solve" () in
  let c = Solver_common.create ?strong_updates ~tel svfg in
  let nv = Versioning.n_versions ver in
  let t =
    { c; ver; ptk = Array.make nv Ptset.empty; late = Array.make nv [];
      subs = Array.make nv [];
      subscribed = Bytes.make (Svfg.n_slots svfg) '\000' }
  in
  let ptk = t.ptk and props = c.Solver_common.props in
  (* [process] collects the nodes to (re)visit in [buf]; the engine owns
     scheduling and deduplication. *)
  let buf = ref [] in
  let push n = buf := n :: !buf in
  let push_users v = List.iter push (Svfg.users svfg v) in
  (* pt_κ just grew by [d0]: push the loads consuming it and flow the delta
     along the version-reliance relation transitively. Only the newly added
     elements travel — every earlier element already flowed when it was
     itself a delta, and late (dynamic) reliance edges get a full sync in
     [on_call_edge]. *)
  let propagate_version v0 d0 =
    if not (Ptset.is_empty d0) then begin
      let q = Queue.create () in
      Queue.push (v0, d0) q;
      while not (Queue.is_empty q) do
        let v, d = Queue.pop q in
        List.iter push t.subs.(v);
        iter_relied t v (fun v' ->
            incr props;
            let cur = ptk.(v') in
            let cur', d' = Ptset.union_delta cur d in
            if not (Ptset.equal cur' cur) then begin
              ptk.(v') <- cur';
              Queue.push (v', d') q
            end)
      done
    end
  in
  (* pt_κ ∪= [set], then propagate what was new. *)
  let grow v set =
    let cur', d = Ptset.union_delta ptk.(v) set in
    if not (Ptset.equal cur' ptk.(v)) then begin
      ptk.(v) <- cur';
      propagate_version v d
    end
  in
  let on_call_edge s d =
    let y = Versioning.yield_slot ver s and c' = Versioning.consume_slot ver d in
    if (not (Version.is_epsilon y)) && y <> c' then begin
      let known = ref false in
      iter_relied t y (fun v -> if v = c' then known := true);
      if not !known then t.late.(y) <- c' :: t.late.(y);
      incr props;
      grow c' ptk.(y)
    end
  in
  let process n =
    buf := [];
    (match Svfg.kind svfg n with
    | Svfg.NInst _ -> (
      (* a load's slots are its μ objects, a store's its χ objects *)
      match Svfg.inst_of svfg n with
      | Inst.Load { lhs; ptr } ->
        let changed = ref false in
        Bitset.iter
          (fun o ->
            let s = Svfg.slot_of svfg n o in
            if s >= 0 then begin
              let cv = Versioning.consume_slot ver s in
              if not (Version.is_epsilon cv) then begin
                if Bytes.get t.subscribed s = '\000' then begin
                  Bytes.set t.subscribed s '\001';
                  t.subs.(cv) <- n :: t.subs.(cv)
                end;
                if Solver_common.union_pt c lhs ptk.(cv) then changed := true
              end
            end)
          (Solver_common.pt_of c ptr);
        if !changed then push_users lhs
      | Inst.Store { ptr; rhs } ->
        (* GEN only: the weak update is the reliance C -> Y registered in
           [add_weak_updates], and a spuriously annotated χ object (one the
           store does not write flow-sensitively) is nothing but that. *)
        let rhs_id = Solver_common.pt_id c rhs in
        Bitset.iter
          (fun o ->
            let s = Svfg.slot_of svfg n o in
            if s >= 0 then grow (Versioning.yield_slot ver s) rhs_id)
          (Solver_common.pt_of c ptr)
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
    match Svfg.kind svfg n with
    | Svfg.NInst _ ->
      (match Svfg.inst_of svfg n with
      | Inst.Store { ptr; _ } -> add_weak_updates t svfg n ptr
      | _ -> ());
      Engine.push eng n
    | _ -> ()
  done;
  Engine.run ?budget eng;
  t

let pt t v = Solver_common.pt_of t.c v
let pt_set t v = Solver_common.pt_id t.c v

(* Each owned version is one (object, version) set. *)
let fold_sets t f acc =
  let acc = ref acc in
  Array.iteri
    (fun v id ->
      let o = Versioning.owner t.ver v in
      if o >= 0 then acc := f o id !acc)
    t.ptk;
  !acc

let pt_version t o v =
  (* ε has no owner *)
  if v >= 0 && v < Array.length t.ptk && Versioning.owner t.ver v = o then
    Some (Ptset.view t.ptk.(v))
  else None

let consumed_pt t n o = pt_version t o (Versioning.consume t.ver n o)

(* Flow-insensitive collapse of an object's contents: the union of all its
   versions' points-to sets ("may contain anywhere"). Scans every
   version. *)
let object_pt t o =
  fold_sets t
    (fun o' id acc ->
      if o' = o then ignore (Bitset.union_into ~into:acc (Ptset.view id));
      acc)
    (Bitset.create ())

(* Every object's collapse in one pass over the versions; a set equal to
   the object's previous one is skipped. *)
let object_pts t =
  let n = Prog.n_vars (Svfg.prog t.c.Solver_common.svfg) in
  let acc = Array.init n (fun _ -> Bitset.create ()) in
  let last = Array.make n Ptset.empty in
  fold_sets t
    (fun o id () ->
      if not (Ptset.equal id last.(o)) then begin
        last.(o) <- id;
        ignore (Bitset.union_into ~into:acc.(o) (Ptset.view id))
      end)
    ();
  acc

(* §IV-C1: versioning with auxiliary (imprecise) points-to information "may
   give us more versions than necessary whereby two versions may be
   collapsible into a single version (both versions have equivalent
   points-to sets per the flow-sensitive analysis)". This counts that excess
   after solving: versions of the same object whose final sets are equal.
   With interned sets, equal sets share an id, so sorted (object, set id)
   keys put every collapsible version next to its twin. *)
let collapsible_versions t =
  let keys =
    List.sort Int.compare
      (fold_sets t (fun o id l -> Pair_key.pack o (Ptset.hash id) :: l) [])
  in
  let rec dups n = function
    | a :: (b :: _ as tl) -> dups (if a = b then n + 1 else n) tl
    | _ -> n
  in
  (dups 0 keys, List.length keys)

let callgraph t = t.c.Solver_common.cg_fs
let n_sets t = fold_sets t (fun _ _ n -> n + 1) 0

let tally t =
  let tl = Ptset.Tally.create () in
  fold_sets t (fun _ id () -> Ptset.Tally.visit tl id) ();
  tl

(* The versioning arrays, plus the solver's per-version lists: one word
   per version each and three per list cell. *)
let index_words t =
  let cells l = Array.fold_left (fun n l -> n + List.length l) 0 l in
  Versioning.words t.ver + (2 * Array.length t.late)
  + (3 * (cells t.late + cells t.subs))

let words t = index_words t + Ptset.Tally.shared_words (tally t)
let unshared_words t = index_words t + Ptset.Tally.unshared_words (tally t)
let n_unique_sets t = Ptset.Tally.unique (tally t)

let telemetry t = t.c.Solver_common.tel
let n_propagations t = !(t.c.Solver_common.props)
let processed t = (telemetry t).Telemetry.pops
