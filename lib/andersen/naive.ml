open Pta_ds
open Pta_ir
module Engine = Pta_engine.Engine
module Scheduler = Pta_engine.Scheduler
module Telemetry = Pta_engine.Telemetry

type result = {
  sets : (Inst.var, Ptset.t) Hashtbl.t;
  cg : Callgraph.t;
  tel : Telemetry.phase;
}

let pts_id r v =
  match Hashtbl.find_opt r.sets v with
  | Some s -> s
  | None ->
    Hashtbl.add r.sets v Ptset.empty;
    Ptset.empty

let pts r v = Ptset.view (pts_id r v)
let callgraph r = r.cg

let solve prog =
  let tel = Telemetry.phase ~name:"naive.solve" () in
  let r = { sets = Hashtbl.create 256; cg = Callgraph.create (); tel } in
  let changed = ref false in
  let union_into dst src =
    let s = pts_id r dst in
    let s' = Ptset.union s src in
    if not (Ptset.equal s' s) then begin
      Hashtbl.replace r.sets dst s';
      changed := true
    end
  in
  let add dst o =
    let s = pts_id r dst in
    let s' = Ptset.add s o in
    if not (Ptset.equal s' s) then begin
      Hashtbl.replace r.sets dst s';
      changed := true
    end
  in
  let apply_call fn i lhs callee args =
    let cs = { Callgraph.cs_func = fn.Prog.id; cs_inst = i } in
    let targets =
      match callee with
      | Inst.Direct fid -> [ fid ]
      | Inst.Indirect fp ->
        Ptset.fold
          (fun o acc ->
            match Prog.is_function_obj prog o with
            | Some fid ->
              Callgraph.mark_indirect_target r.cg fid;
              fid :: acc
            | None -> acc)
          (pts_id r fp) []
    in
    List.iter
      (fun fid ->
        if Callgraph.add r.cg cs fid then changed := true;
        let callee = Prog.func prog fid in
        let rec zip args params =
          match (args, params) with
          | a :: args, p :: params ->
            union_into p (pts_id r a);
            zip args params
          | _ -> ()
        in
        zip args callee.Prog.params;
        match (lhs, callee.Prog.ret) with
        | Some l, Some ret -> union_into l (pts_id r ret)
        | _ -> ())
      targets
  in
  let sweep () =
    Prog.iter_funcs prog (fun fn ->
        for i = 0 to Prog.n_insts fn - 1 do
          match Prog.inst fn i with
          | Inst.Alloc { lhs; obj } -> add lhs obj
          | Inst.Copy { lhs; rhs } -> union_into lhs (pts_id r rhs)
          | Inst.Phi { lhs; rhs } ->
            List.iter (fun x -> union_into lhs (pts_id r x)) rhs
          | Inst.Field { lhs; base; offset } ->
            (* interned sets are immutable, so iterating while extending
               [lhs] needs none of the defensive copies the mutable version
               took *)
            Ptset.iter
              (fun o ->
                match Prog.obj_kind prog o with
                | Prog.Func _ -> ()
                | _ -> add lhs (Prog.field_obj prog ~base:o ~offset))
              (pts_id r base)
          | Inst.Load { lhs; ptr } ->
            Ptset.iter (fun o -> union_into lhs (pts_id r o)) (pts_id r ptr)
          | Inst.Store { ptr; rhs } ->
            Ptset.iter (fun o -> union_into o (pts_id r rhs)) (pts_id r ptr)
          | Inst.Call { lhs; callee; args } -> apply_call fn i lhs callee args
          | Inst.Entry | Inst.Exit | Inst.Branch -> ()
        done)
  in
  (* Single-node engine domain: one "node" whose transfer is a full sweep,
     re-pushed while any set grew. Gets the naive oracle the same telemetry
     (sweeps = pops) and budget machinery as the real solvers for free. *)
  let process _ =
    changed := false;
    sweep ();
    if !changed then [ 0 ] else []
  in
  let eng =
    Engine.create ~telemetry:tel ~scheduler:(Scheduler.fifo ()) ~process ()
  in
  Engine.push eng 0;
  Engine.run eng;
  r

let telemetry r = r.tel
