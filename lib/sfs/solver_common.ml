open Pta_ds
open Pta_ir
module Telemetry = Pta_engine.Telemetry

type t = {
  svfg : Pta_svfg.Svfg.t;
  pt : Ptset.t Vec.t;
  cg_fs : Callgraph.t;
  callers : (Inst.func_id, (Callgraph.callsite * Inst.var option) list ref) Hashtbl.t;
  su_enabled : bool;
  tel : Telemetry.phase;
  top_adds : int ref;  (* cached telemetry extras — no hashing per event *)
  top_unions : int ref;
  props : int ref;
  call_edges : int ref;
}

let create ?(strong_updates = true) ~tel svfg =
  let prog = Pta_svfg.Svfg.prog svfg in
  let pt = Vec.create ~dummy:Ptset.empty () in
  Vec.grow_to pt (Prog.n_vars prog);
  { svfg; pt; cg_fs = Callgraph.create (); callers = Hashtbl.create 32;
    su_enabled = strong_updates; tel;
    top_adds = Telemetry.counter tel "top_adds";
    top_unions = Telemetry.counter tel "top_unions";
    props = Telemetry.counter tel "props";
    call_edges = Telemetry.counter tel "call_edges" }

let pt_id t v =
  (* Field objects may be interned after [create]; grow on demand. *)
  if v >= Vec.length t.pt then Vec.grow_to t.pt (v + 1);
  Vec.get t.pt v

let pt_of t v = Ptset.view (pt_id t v)

let add_pt t v o =
  incr t.top_adds;
  let s = pt_id t v in
  let s' = Ptset.add s o in
  if Ptset.equal s' s then false
  else begin
    Vec.set t.pt v s';
    true
  end

let union_pt t v src =
  incr t.top_unions;
  let s = pt_id t v in
  let s' = Ptset.union s src in
  if Ptset.equal s' s then false
  else begin
    Vec.set t.pt v s';
    true
  end

(* Strong updates are decided from the *auxiliary* points-to set of the
   pointer: [pt_aux(p) = {o}] with [o] a singleton. Using the flow-sensitive
   set (which grows during solving) would make the kill order-dependent: a
   store processed before [pt_fs(p)] reaches {o} would have already passed
   its IN through, polluting OUT irrevocably. The static condition is sound
   (pt_fs ⊆ pt_aux), deterministic, and applied identically by SFS, VSFS and
   the dense reference, preserving their precision equality. *)
let strong_update_ptr t ptr =
  t.su_enabled
  && Bitset.cardinal ((Pta_svfg.Svfg.aux t.svfg).Pta_memssa.Modref.pt ptr) = 1

let strong_update_ok t ~ptr_single o =
  ptr_single && Prog.is_singleton (Pta_svfg.Svfg.prog t.svfg) o

let resolve_targets t = function
  | Inst.Direct f -> [ f ]
  | Inst.Indirect fp ->
    let prog = Pta_svfg.Svfg.prog t.svfg in
    Bitset.fold
      (fun o acc ->
        match Prog.is_function_obj prog o with
        | Some f -> f :: acc
        | None -> acc)
      (pt_of t fp) []

let process_top_level t ~push_users ~on_call_edge ~node ins =
  let prog = Pta_svfg.Svfg.prog t.svfg in
  match ins with
  | Inst.Alloc { lhs; obj } -> if add_pt t lhs obj then push_users lhs
  | Inst.Copy { lhs; rhs } -> if union_pt t lhs (pt_id t rhs) then push_users lhs
  | Inst.Phi { lhs; rhs } ->
    let changed = ref false in
    List.iter (fun r -> if union_pt t lhs (pt_id t r) then changed := true) rhs;
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
  | Inst.Call { lhs; callee; args } ->
    let f, i =
      match Pta_svfg.Svfg.kind t.svfg node with
      | Pta_svfg.Svfg.NInst { f; i } -> (f, i)
      | _ -> invalid_arg "process_top_level: call node expected"
    in
    let cs = { Callgraph.cs_func = f; cs_inst = i } in
    List.iter
      (fun g ->
        if Callgraph.add t.cg_fs cs g then begin
          (* First discovery of this call edge: register the return
             subscription and wire its memory edges. Those depend only on
             static mod/ref and χ/μ, so a later pop would find none new. *)
          (match Hashtbl.find_opt t.callers g with
          | Some l -> l := (cs, lhs) :: !l
          | None -> Hashtbl.add t.callers g (ref [ (cs, lhs) ]));
          (match callee with
          | Inst.Indirect _ -> Callgraph.mark_indirect_target t.cg_fs g
          | Inst.Direct _ -> ());
          incr t.call_edges;
          on_call_edge cs g
        end;
        let callee_fn = Prog.func prog g in
        (* parameter passing *)
        let rec zip args params =
          match (args, params) with
          | a :: args, p :: params ->
            if union_pt t p (pt_id t a) then push_users p;
            zip args params
          | _ -> ()
        in
        zip args callee_fn.Prog.params;
        (* return value *)
        match (lhs, callee_fn.Prog.ret) with
        | Some l, Some r -> if union_pt t l (pt_id t r) then push_users l
        | _ -> ())
      (resolve_targets t callee)
  | Inst.Exit -> (
    (* Return flow to every discovered caller. *)
    match Pta_svfg.Svfg.kind t.svfg node with
    | Pta_svfg.Svfg.NInst { f; _ } -> (
      let fn = Prog.func prog f in
      match fn.Prog.ret with
      | None -> ()
      | Some r -> (
        match Hashtbl.find_opt t.callers f with
        | None -> ()
        | Some l ->
          List.iter
            (fun (_cs, lhs) ->
              match lhs with
              | Some lhs -> if union_pt t lhs (pt_id t r) then push_users lhs
              | None -> ())
            !l))
    | _ -> ())
  | Inst.Entry | Inst.Load _ | Inst.Store _ | Inst.Branch -> ()
