open Pta_ir

exception Lower_error of Ast.pos * string

let fail pos fmt = Format.kasprintf (fun s -> raise (Lower_error (pos, s))) fmt

type ctx = {
  prog : Prog.t;
  funcs : (string, Prog.func) Hashtbl.t;
  globals : (string, Inst.var) Hashtbl.t;  (* name -> top-level handle *)
  fields : (string, int) Hashtbl.t;
  mutable next_field : int;
  mutable undef : Inst.var;  (* the shared value of [null]; defined in __init *)
  mutable heap_sites : int;
}

let field_offset ctx f =
  match Hashtbl.find_opt ctx.fields f with
  | Some k -> k
  | None ->
    let k = ctx.next_field in
    ctx.next_field <- k + 1;
    Hashtbl.replace ctx.fields f k;
    k

(* Per-function environment: variable name -> slot handle. Parameters are
   spilled to slots in the prologue so that [&param] works; mem2reg undoes
   the spill when the address is never taken. *)
type fenv = {
  b : Builder.t;
  slots : (string, Inst.var) Hashtbl.t;
  fname : string;
}

let lookup_slot env name = Hashtbl.find_opt env.slots name

let rec collect_decls pos seen acc stmts =
  List.fold_left
    (fun acc stmt ->
      match stmt with
      | Ast.Decl (p, names) ->
        List.fold_left
          (fun acc n ->
            if Hashtbl.mem seen n then fail p "duplicate local %s" n
            else begin
              Hashtbl.replace seen n ();
              n :: acc
            end)
          acc names
      | Ast.If (_, _, t, e) ->
        let acc = collect_decls pos seen acc t in
        collect_decls pos seen acc e
      | Ast.While (_, _, body) -> collect_decls pos seen acc body
      | Ast.For (_, init, _, step, body) ->
        let acc = collect_decls pos seen acc (Option.to_list init) in
        let acc = collect_decls pos seen acc (Option.to_list step) in
        collect_decls pos seen acc body
      | Ast.DoWhile (_, body, _) -> collect_decls pos seen acc body
      | Ast.Assign _ | Ast.Expr _ | Ast.Return _ -> acc)
    acc stmts

let rec lower_expr ctx env pos (e : Ast.expr) : Inst.var =
  let b = env.b in
  match e with
  | Ast.Null -> ctx.undef
  | Ast.Malloc ->
    ctx.heap_sites <- ctx.heap_sites + 1;
    let oname = Printf.sprintf "%s.heap%d" env.fname ctx.heap_sites in
    let p, _ = Builder.alloc b ~kind:Prog.Heap oname in
    p
  | Ast.Var x -> (
    match lookup_slot env x with
    | Some slot -> Builder.load b slot
    | None -> (
      match Hashtbl.find_opt ctx.globals x with
      | Some handle -> Builder.load b handle
      | None -> (
        match Hashtbl.find_opt ctx.funcs x with
        | Some f -> Builder.funaddr b f (* function-to-pointer decay *)
        | None -> fail pos "unbound variable %s" x)))
  | Ast.AddrVar x -> (
    match lookup_slot env x with
    | Some slot -> slot
    | None -> (
      match Hashtbl.find_opt ctx.globals x with
      | Some handle -> handle
      | None -> (
        match Hashtbl.find_opt ctx.funcs x with
        | Some f -> Builder.funaddr b f
        | None -> fail pos "unbound variable %s" x)))
  | Ast.AddrField (e, f) ->
    let base = lower_expr ctx env pos e in
    Builder.field b ~base (field_offset ctx f)
  | Ast.Arrow (e, f) ->
    let base = lower_expr ctx env pos e in
    Builder.load b (Builder.field b ~base (field_offset ctx f))
  | Ast.Deref e -> Builder.load b (lower_expr ctx env pos e)
  | Ast.Cmp (a, b') ->
    (* Evaluate for effects; the comparison result is not a pointer. *)
    ignore (lower_expr ctx env pos a);
    ignore (lower_expr ctx env pos b');
    ctx.undef
  | Ast.Call (callee, args) ->
    let direct =
      match callee with
      | Ast.Var f when lookup_slot env f = None
                       && not (Hashtbl.mem ctx.globals f) ->
        Hashtbl.find_opt ctx.funcs f
      | _ -> None
    in
    let callee =
      match direct with
      | Some f -> Inst.Direct f.Prog.id
      | None ->
        (* In C, dereferencing a function pointer is a no-op:
           "( *fp )(x)" calls through fp itself. *)
        let callee = match callee with Ast.Deref e -> e | e -> e in
        Inst.Indirect (lower_expr ctx env pos callee)
    in
    let args = List.map (lower_expr ctx env pos) args in
    Builder.call b ~callee args

let lower_lvalue_store ctx env pos lhs v =
  let b = env.b in
  match lhs with
  | Ast.Var x -> (
    match lookup_slot env x with
    | Some slot -> Builder.store b ~ptr:slot v
    | None -> (
      match Hashtbl.find_opt ctx.globals x with
      | Some handle -> Builder.store b ~ptr:handle v
      | None -> fail pos "assignment to unbound variable %s" x))
  | Ast.Deref e ->
    let p = lower_expr ctx env pos e in
    Builder.store b ~ptr:p v
  | Ast.Arrow (e, f) ->
    let base = lower_expr ctx env pos e in
    let p = Builder.field b ~base (field_offset ctx f) in
    Builder.store b ~ptr:p v
  | _ -> fail pos "invalid assignment target"

let rec lower_stmts ctx env stmts =
  match stmts with
  | [] -> ()
  | stmt :: rest -> (
    match stmt with
    | Ast.Decl _ -> lower_stmts ctx env rest (* hoisted *)
    | Ast.Assign (pos, lhs, rhs) ->
      let v = lower_expr ctx env pos rhs in
      lower_lvalue_store ctx env pos lhs v;
      lower_stmts ctx env rest
    | Ast.Expr (pos, e) ->
      ignore (lower_expr ctx env pos e);
      lower_stmts ctx env rest
    | Ast.Return (pos, e) ->
      let v = Option.map (lower_expr ctx env pos) e in
      Builder.return env.b v
      (* anything after a return in this arm is dead code: drop it *)
    | Ast.If (pos, cond, then_, else_) ->
      ignore (lower_expr ctx env pos cond);
      let lower_arm stmts b' =
        let env = { env with b = b' } in
        lower_stmts ctx env stmts
      in
      Builder.if_ env.b ~then_:(lower_arm then_) ~else_:(lower_arm else_);
      if Builder.cursor env.b = None then () else lower_stmts ctx env rest
    | Ast.While (pos, cond, body) ->
      Builder.while_ env.b ~body:(fun b' ->
          let env = { env with b = b' } in
          ignore (lower_expr ctx env pos cond);
          lower_stmts ctx env body);
      lower_stmts ctx env rest
    | Ast.For (pos, init, cond, step, body) ->
      (match init with Some s -> lower_stmts ctx env [ s ] | None -> ());
      Builder.while_ env.b ~body:(fun b' ->
          let env = { env with b = b' } in
          (match cond with
          | Some c -> ignore (lower_expr ctx env pos c)
          | None -> ());
          lower_stmts ctx env body;
          match step with Some s -> lower_stmts ctx env [ s ] | None -> ());
      lower_stmts ctx env rest
    | Ast.DoWhile (pos, body, cond) ->
      Builder.do_while_ env.b ~body:(fun b' ->
          let env = { env with b = b' } in
          lower_stmts ctx env body;
          ignore (lower_expr ctx env pos cond));
      lower_stmts ctx env rest)

let lower_function ctx (b : Builder.t) ~pos ~params ~body =
  let fname = (Builder.fn b).Prog.fname in
  let env = { b; slots = Hashtbl.create 16; fname } in
  (* Prologue: spill parameters, allocate locals. *)
  List.iter2
    (fun pname pvar ->
      let slot, _ =
        Builder.alloc b ~kind:Prog.Stack (Printf.sprintf "%s.%s" fname pname)
      in
      Builder.store b ~ptr:slot pvar;
      Hashtbl.replace env.slots pname slot)
    params (Builder.params b);
  let seen = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace seen p ()) params;
  let locals = List.rev (collect_decls pos seen [] body) in
  List.iter
    (fun lname ->
      let slot, _ =
        Builder.alloc b ~kind:Prog.Stack (Printf.sprintf "%s.%s" fname lname)
      in
      Hashtbl.replace env.slots lname slot)
    locals;
  lower_stmts ctx env body;
  Builder.finish b

let lower ?(promote = true) (program : Ast.program) =
  let prog = Prog.create () in
  let ctx =
    {
      prog;
      funcs = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      fields = Hashtbl.create 16;
      next_field = 1;
      undef = -1;
      heap_sites = 0;
    }
  in
  (* Declare all functions first so calls resolve forward. *)
  let builders =
    List.filter_map
      (function
        | Ast.Func { pos; name; params; body } ->
          if Hashtbl.mem ctx.funcs name then fail pos "duplicate function %s" name;
          let b = Builder.create prog ~name ~param_names:params in
          Hashtbl.replace ctx.funcs name (Builder.fn b);
          Some (b, pos, params, body)
        | Ast.Global _ -> None)
      program
  in
  (* Globals: handle + object. *)
  let global_pairs =
    List.filter_map
      (function
        | Ast.Global (pos, name, init) ->
          if Hashtbl.mem ctx.globals name then fail pos "duplicate global %s" name;
          let handle = Prog.fresh_top prog name in
          let obj = Prog.fresh_obj prog (name ^ ".o") Prog.Global in
          Hashtbl.replace ctx.globals name handle;
          Some (handle, obj, name, init, pos)
        | Ast.Func _ -> None)
      program
  in
  ctx.undef <- Prog.fresh_top prog "__undef";
  (* Lower function bodies. *)
  List.iter
    (fun (b, pos, params, body) -> lower_function ctx b ~pos ~params ~body)
    builders;
  (* __init: define __undef, allocate globals, run initialisers, call main. *)
  let main =
    match Hashtbl.find_opt ctx.funcs "main" with
    | Some f -> f
    | None -> (
      match builders with
      | (b, _, _, _) :: _ -> Builder.fn b
      | [] -> fail 0 "program has no functions")
  in
  let globals = List.map (fun (h, o, _, _, _) -> (h, o)) global_pairs in
  let init b =
    ignore (Builder.emit b (Inst.Phi { lhs = ctx.undef; rhs = [] }));
    List.iter
      (fun (handle, _, _, init, pos) ->
        match init with
        | None -> ()
        | Some e ->
          let env = { b; slots = Hashtbl.create 1; fname = "__init" } in
          let v = lower_expr ctx env pos e in
          Builder.store b ~ptr:handle v)
      global_pairs
  in
  ignore (Entrypoint.build prog ~globals ~init ~main ());
  if promote then Mem2reg.run prog;
  prog

let compile ?promote src = lower ?promote (Cparser.parse src)
