open Pta_ds
open Pta_ir
module Svfg = Pta_svfg.Svfg
module Engine = Pta_engine.Engine
module Telemetry = Pta_engine.Telemetry

(* IN and OUT per SVFG slot (a (node, object) pair, see {!Svfg}), with a
   flag byte each: an absent entry and an explicit [empty] one differ —
   stores pass through exactly the *materialised* INs, and only
   materialised entries count as sets — so reading a set records its
   existence. *)
type result = {
  c : Solver_common.t;
  ins : Ptset.t array;
  outs : Ptset.t array;
  in_made : Bytes.t;
  out_made : Bytes.t;
  late : int array array;
      (* slot -> ascending successor slots along the indirect-call edges
         this solve wired; [||] for almost every slot *)
}

let in_id t s =
  Bytes.set t.in_made s '\001';
  t.ins.(s)

let out_id t s =
  Bytes.set t.out_made s '\001';
  t.outs.(s)

(* Union [src] into the IN set of slot [s]; true iff it grew. *)
let union_in t s src =
  let cur = in_id t s in
  let s' = Ptset.union cur src in
  if Ptset.equal s' cur then false
  else begin
    t.ins.(s) <- s';
    true
  end

(* The set node [n] exposes to its successors through its slot [s]: stores
   expose OUT, everything else passes its IN through. *)
let out_for_id t n s =
  match Svfg.kind t.c.Solver_common.svfg n with
  | Svfg.NInst _ when Inst.is_store (Svfg.inst_of t.c.Solver_common.svfg n) ->
    out_id t s
  | _ -> in_id t s

type seed = {
  seed_pt : (Inst.var * Bitset.t) list;
  seed_ins : (int * Inst.var * Bitset.t) list;
  seed_outs : (int * Inst.var * Bitset.t) list;
  schedule : int list;
}

(* Build the solver state and its engine, seed every node (or, with a
   [seed], only its schedule), and run to fixpoint. *)
let solve ?strong_updates ?seed ?budget svfg =
  let tel = Telemetry.phase ~name:"sfs.solve" () in
  let c = Solver_common.create ?strong_updates ~tel svfg in
  let ns = Svfg.n_slots svfg in
  let t =
    { c; ins = Array.make ns Ptset.empty; outs = Array.make ns Ptset.empty;
      in_made = Bytes.make ns '\000'; out_made = Bytes.make ns '\000';
      late = Array.make ns [||] }
  in
  let props = c.Solver_common.props in
  (* [process] collects the nodes to (re)visit in [buf]; the engine owns
     scheduling and deduplication. *)
  let buf = ref [] in
  let push n = buf := n :: !buf in
  let push_users v = List.iter push (Svfg.users svfg v) in
  (* Propagate [set] along every outgoing edge of slot [s]. Callers pass
     either a full exposed set (phi-like pass-through nodes, where the
     memoized union makes re-propagation cheap) or just the delta a store
     added, which is what makes this difference propagation. *)
  let propagate s set =
    if not (Ptset.is_empty set) then begin
      let visit d =
        incr props;
        if union_in t d set then push (Svfg.slot_node svfg d)
      in
      let late = t.late.(s) in
      if Array.length late = 0 then Svfg.iter_slot_succs svfg s visit
      else begin
        (* the SVFG row and the late row are disjoint: merge the two *)
        let j = ref 0 in
        Svfg.iter_slot_succs svfg s (fun d ->
            while !j < Array.length late && late.(!j) < d do
              visit late.(!j);
              incr j
            done;
            visit d);
        for j = !j to Array.length late - 1 do
          visit late.(j)
        done
      end
    end
  in
  let on_call_edge s d =
    t.late.(s) <-
      Array.of_list (List.merge Int.compare [ d ] (Array.to_list t.late.(s)));
    incr props;
    (* A late edge needs a full sync: the destination missed every delta
       propagated before the edge existed. *)
    if union_in t d (out_for_id t (Svfg.slot_node svfg s) s) then
      push (Svfg.slot_node svfg d)
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
            if s >= 0 then
              if Solver_common.union_pt c lhs (in_id t s) then changed := true)
          (Solver_common.pt_of c ptr);
        if !changed then push_users lhs
      | Inst.Store { ptr; rhs } ->
        let ptr_pts = Solver_common.pt_of c ptr in
        let rhs_id = Solver_common.pt_id c rhs in
        let ptr_single = Solver_common.strong_update_ptr c ptr in
        Bitset.iter
          (fun o ->
            let s = Svfg.slot_of svfg n o in
            if s >= 0 then begin
              let out0 = out_id t s in
              let out1, d1 = Ptset.union_delta out0 rhs_id in
              let out2, d2 =
                if Solver_common.strong_update_ok c ~ptr_single o then
                  (out1, Ptset.empty)
                else Ptset.union_delta out1 (in_id t s)
              in
              if not (Ptset.equal out2 out0) then begin
                t.outs.(s) <- out2;
                propagate s (Ptset.union d1 d2)
              end
            end)
          ptr_pts;
        (* Spurious χ objects (the auxiliary analysis thought this store may
           define them, so the SVFG routes their def-use chain through this
           node, but flow-sensitively the store does not write them): pass
           materialised INs through to OUT unchanged — except for a
           statically strong-updated object, which is killed here no matter
           what. *)
        for s = Svfg.first_slot svfg n to Svfg.first_slot svfg (n + 1) - 1 do
          let o = Svfg.slot_obj svfg s in
          if
            Bytes.get t.in_made s <> '\000'
            && (not (Bitset.mem ptr_pts o))
            && not (Solver_common.strong_update_ok c ~ptr_single o)
          then begin
            let out0 = out_id t s in
            let out1, d = Ptset.union_delta out0 t.ins.(s) in
            if not (Ptset.equal out1 out0) then begin
              t.outs.(s) <- out1;
              propagate s d
            end
          end
        done
      | ins -> Solver_common.process_top_level c ~push_users ~on_call_edge ~node:n ins)
    | Svfg.NMemPhi _
    | Svfg.NFormalIn _
    | Svfg.NFormalOut _
    | Svfg.NActualIn _
    | Svfg.NActualOut _ ->
      let s = Svfg.first_slot svfg n in
      propagate s (in_id t s));
    !buf
  in
  let eng =
    Engine.create ~telemetry:tel ~scheduler:(Pta_engine.Scheduler.fifo ())
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
    let slot n o =
      let s = Svfg.slot_of svfg n o in
      if s < 0 then invalid_arg "Sfs.solve: seed entry is not an SVFG slot";
      s
    in
    List.iter
      (fun (n, o, set) -> ignore (union_in t (slot n o) (Ptset.of_bitset set)))
      s.seed_ins;
    List.iter
      (fun (n, o, set) ->
        let s = slot n o in
        ignore (out_id t s);
        t.outs.(s) <- Ptset.of_bitset set)
      s.seed_outs;
    List.iter (Engine.push eng) s.schedule);
  Engine.run ?budget eng;
  t

let pt t v = Solver_common.pt_of t.c v

let find made sets t n o =
  let s = Svfg.slot_of t.c.Solver_common.svfg n o in
  if s >= 0 && Bytes.get made s <> '\000' then Some (Ptset.view sets.(s))
  else None

let in_set t n o = find t.in_made t.ins t n o

(* Every materialised entry as (slot, set), in slot order. *)
let iter_made made sets f =
  Array.iteri (fun s id -> if Bytes.get made s <> '\000' then f s id) sets

let iter_all t f =
  iter_made t.in_made t.ins f;
  iter_made t.out_made t.outs f

(* Slot order is (node, object) order — what the per-function result
   artifacts are built from. *)
let iter_nonempty t made sets f =
  let svfg = t.c.Solver_common.svfg in
  iter_made made sets (fun s id ->
      if not (Ptset.is_empty id) then
        f (Svfg.slot_node svfg s) (Svfg.slot_obj svfg s) (Ptset.view id))

let iter_ins t f = iter_nonempty t t.in_made t.ins f
let iter_outs t f = iter_nonempty t t.out_made t.outs f

(* Flow-insensitive collapse of one object's contents over all program
   points: a scan of every slot. *)
let object_pt t o =
  let svfg = t.c.Solver_common.svfg in
  let acc = Bitset.create () in
  iter_all t (fun s id ->
      if Svfg.slot_obj svfg s = o then
        ignore (Bitset.union_into ~into:acc (Ptset.view id)));
  acc

(* Every object's collapse in one pass over the slots. Slots of one object
   often repeat its previous set, so a set equal to the object's last one
   is skipped. *)
let object_pts t =
  let svfg = t.c.Solver_common.svfg in
  let n = Prog.n_vars (Svfg.prog svfg) in
  let acc = Array.init n (fun _ -> Bitset.create ()) in
  let last = Array.make n Ptset.empty in
  iter_all t (fun s id ->
      let o = Svfg.slot_obj svfg s in
      if not (Ptset.equal id last.(o)) then begin
        last.(o) <- id;
        ignore (Bitset.union_into ~into:acc.(o) (Ptset.view id))
      end);
  acc

let callgraph t = t.c.Solver_common.cg_fs

let n_sets t =
  let k = ref 0 in
  iter_all t (fun _ _ -> incr k);
  !k

let tally t =
  let tl = Ptset.Tally.create () in
  iter_all t (fun _ id -> Ptset.Tally.visit tl id);
  tl

let words t = Ptset.Tally.shared_words (tally t)
let unshared_words t = Ptset.Tally.unshared_words (tally t)
let n_unique_sets t = Ptset.Tally.unique (tally t)

let telemetry t = t.c.Solver_common.tel
let n_propagations t = !(t.c.Solver_common.props)
let processed t = (telemetry t).Telemetry.pops
