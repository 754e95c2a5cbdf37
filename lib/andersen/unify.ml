open Pta_ds
open Pta_ir
module Engine = Pta_engine.Engine
module Scheduler = Pta_engine.Scheduler
module Telemetry = Pta_engine.Telemetry

(* Steensgaard-style analysis: near-linear, flow- and context-insensitive,
   and much coarser than Andersen — every variable gets one abstract
   pointee node, and assignments *unify* pointees instead of adding
   inclusion edges. Runs after Andersen (it is the cheapest tier of the
   serve lattice), so it must never grow the variable id space: field
   address-of goes through {!Prog.field_obj_opt}, and a missing field
   object falls back to the base object, which only coarsens the result.
   Offset-awareness (distinct field objects stay distinct unless unified
   through flow) is what keeps the classes from oversharing entirely. *)

type t = {
  prog : Prog.t;
  uf : Union_find.t;  (* over n_vars program vars + synthetic pointee nodes *)
  pointee : int Vec.t;  (* node -> pointee node (-1 none); authoritative at
                           representatives, canonicalised on read *)
  mutable n_nodes : int;
  mutable sealed : (int, Bitset.t) Hashtbl.t option;
      (* pointee-class root -> member objects, built once after solving *)
  tel : Telemetry.phase;
  merges : int ref;
  passes : int ref;
}

type result = t

let find t x = Union_find.find t.uf x

let fresh_node t =
  let id = t.n_nodes in
  t.n_nodes <- id + 1;
  Union_find.grow t.uf t.n_nodes;
  Vec.grow_to t.pointee t.n_nodes;
  id

let pointee_of t r =
  match Vec.get t.pointee r with -1 -> -1 | p -> find t p

(* Unify two nodes, recursively unifying their pointees (worklist form so
   long deref chains cannot overflow the stack). *)
let unite t a b =
  let pending = ref [ (a, b) ] in
  while !pending <> [] do
    match !pending with
    | [] -> ()
    | (a, b) :: rest -> (
      pending := rest;
      let ra = find t a and rb = find t b in
      if ra <> rb then begin
        let pa = pointee_of t ra and pb = pointee_of t rb in
        let r = Union_find.union t.uf ra rb in
        incr t.merges;
        match (pa, pb) with
        | -1, p | p, -1 -> Vec.set t.pointee r p
        | pa, pb ->
          Vec.set t.pointee r pa;
          if pa <> pb then pending := (pa, pb) :: !pending
      end)
  done

(* The pointee node of [x]'s class, created on demand. *)
let deref t x =
  let r = find t x in
  match pointee_of t r with
  | -1 ->
    let p = fresh_node t in
    Vec.set t.pointee r p;
    p
  | p -> p

let solve prog =
  let n = Prog.n_vars prog in
  let tel = Telemetry.phase ~name:"unify.solve" () in
  let t =
    {
      prog;
      uf = Union_find.create (max n 1);
      pointee = Vec.create ~dummy:(-1) ();
      n_nodes = max n 1;
      sealed = None;
      tel;
      merges = Telemetry.counter tel "merges";
      passes = Telemetry.counter tel "passes";
    }
  in
  Vec.grow_to t.pointee t.n_nodes;
  (* Simple constraints are stable under later merges (unification is
     transparent through [find]), so one pass suffices; field address-of
     and indirect calls enumerate class members, so they re-run until no
     merge happens. *)
  let geps = ref [] and icalls = ref [] in
  Prog.iter_funcs prog (fun fn ->
      for i = 0 to Prog.n_insts fn - 1 do
        match Prog.inst fn i with
        | Inst.Alloc { lhs; obj } -> unite t (deref t lhs) obj
        | Inst.Copy { lhs; rhs } -> unite t (deref t lhs) (deref t rhs)
        | Inst.Phi { lhs; rhs } ->
          List.iter (fun r -> unite t (deref t lhs) (deref t r)) rhs
        | Inst.Load { lhs; ptr } ->
          unite t (deref t lhs) (deref t (deref t ptr))
        | Inst.Store { ptr; rhs } ->
          unite t (deref t (deref t ptr)) (deref t rhs)
        | Inst.Field { lhs; base; offset } ->
          geps := (lhs, base, offset) :: !geps
        | Inst.Call { lhs; callee = Inst.Direct fid; args } -> (
          let callee = Prog.func prog fid in
          let rec zip args params =
            match (args, params) with
            | a :: args, p :: params ->
              unite t (deref t p) (deref t a);
              zip args params
            | _, _ -> ()
          in
          zip args callee.Prog.params;
          match (lhs, callee.Prog.ret) with
          | Some l, Some r -> unite t (deref t l) (deref t r)
          | _ -> ())
        | Inst.Call { lhs; callee = Inst.Indirect fp; args } ->
          icalls := (lhs, fp, args) :: !icalls
        | Inst.Entry | Inst.Exit | Inst.Branch -> ()
      done);
  let geps = !geps and icalls = !icalls in
  (* One fixpoint pass over the member-enumerating constraints: for every
     object currently in the pointee class of the base / function pointer,
     bind the field object (or the base object when no field object was
     ever materialised) / the callee signature. Buckets are recomputed per
     pass — merges are bounded by the node count, so so are passes. *)
  let members_of () =
    let h = Hashtbl.create 64 in
    for v = 0 to n - 1 do
      if Prog.is_object prog v then begin
        let r = find t v in
        Hashtbl.replace h r (v :: (try Hashtbl.find h r with Not_found -> []))
      end
    done;
    h
  in
  let one_pass () =
    incr t.passes;
    let before = !(t.merges) in
    let buckets = members_of () in
    let objects_in p =
      match Hashtbl.find_opt buckets (find t p) with
      | Some os -> os
      | None -> []
    in
    List.iter
      (fun (lhs, base, offset) ->
        List.iter
          (fun o ->
            match Prog.obj_kind prog o with
            | Prog.Func _ -> ()
            | _ -> (
              match Prog.field_obj_opt prog ~base:o ~offset with
              | Some f -> unite t (deref t lhs) f
              | None -> unite t (deref t lhs) o))
          (objects_in (deref t base)))
      geps;
    List.iter
      (fun (lhs, fp, args) ->
        List.iter
          (fun o ->
            match Prog.is_function_obj prog o with
            | None -> ()
            | Some fid -> (
              let callee = Prog.func prog fid in
              let rec zip args params =
                match (args, params) with
                | a :: args, p :: params ->
                  unite t (deref t p) (deref t a);
                  zip args params
                | _, _ -> ()
              in
              zip args callee.Prog.params;
              match (lhs, callee.Prog.ret) with
              | Some l, Some r -> unite t (deref t l) (deref t r)
              | _ -> ()))
          (objects_in (deref t fp)))
      icalls;
    !(t.merges) > before
  in
  (* Drive the pass loop as a single-node engine client so the unify tier
     reports pops/steps/wall like every other solver. *)
  let process _ = if one_pass () then [ 0 ] else [] in
  let eng =
    Engine.create ~telemetry:tel ~scheduler:(Scheduler.fifo ()) ~process ()
  in
  Engine.push eng 0;
  Engine.run eng;
  t

let seal t =
  match t.sealed with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 64 in
    let n = Prog.n_vars t.prog in
    for v = 0 to n - 1 do
      if Prog.is_object t.prog v then begin
        let r = find t v in
        let s =
          match Hashtbl.find_opt h r with
          | Some s -> s
          | None ->
            let s = Bitset.create () in
            Hashtbl.add h r s;
            s
        in
        ignore (Bitset.add s v)
      end
    done;
    t.sealed <- Some h;
    h

let empty = Bitset.create ()

let pts t v =
  if v < 0 || v >= Prog.n_vars t.prog then empty
  else
    match pointee_of t (find t v) with
    | -1 -> empty
    | p -> (
      match Hashtbl.find_opt (seal t) (find t p) with
      | Some s -> s
      | None -> empty)

let points_to t v o = Bitset.mem (pts t v) o

let merges t = !(t.merges)
let passes t = !(t.passes)
let telemetry t = t.tel
