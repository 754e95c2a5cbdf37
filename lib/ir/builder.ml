type t = {
  prog : Prog.t;
  fn : Prog.func;
  mutable cur : int option;
  mutable ret_join : int option;  (* placeholder node all returns jump to *)
  mutable ret_vars : Inst.var list;  (* returned values, reversed *)
  mutable finished : bool;
}

let create prog ~name ~param_names =
  let params = List.map (Prog.fresh_top prog) param_names in
  let fn = Prog.declare_func prog name ~params in
  { prog; fn; cur = Some fn.Prog.entry_inst; ret_join = None; ret_vars = []; finished = false }

let prog b = b.prog
let fn b = b.fn
let params b = b.fn.Prog.params
let fresh_top b name = Prog.fresh_top b.prog name

let emit b i =
  let id = Prog.add_inst b.fn i in
  (match b.cur with
  | Some prev -> Prog.add_flow b.fn prev id
  | None -> failwith "Builder.emit: unreachable code (after return)");
  b.cur <- Some id;
  id

let cursor b = b.cur
let add_edge b u v = Prog.add_flow b.fn u v

let def_name ?name b prefix =
  match name with
  | Some n -> n
  | None -> Printf.sprintf "%s.%s%d" b.fn.Prog.fname prefix (Prog.n_insts b.fn)

let alloc b ?name ~kind oname =
  let o = Prog.fresh_obj b.prog oname kind in
  let p = fresh_top b (def_name ?name b "a") in
  ignore (emit b (Inst.Alloc { lhs = p; obj = o }));
  (p, o)

let funaddr b ?name f =
  let o = Prog.function_object b.prog f in
  let p = fresh_top b (def_name ?name b "fp") in
  ignore (emit b (Inst.Alloc { lhs = p; obj = o }));
  p

let copy b ?name rhs =
  let p = fresh_top b (def_name ?name b "c") in
  ignore (emit b (Inst.Copy { lhs = p; rhs }));
  p

let phi b ?name rhs =
  let p = fresh_top b (def_name ?name b "phi") in
  ignore (emit b (Inst.Phi { lhs = p; rhs }));
  p

let field b ?name ~base offset =
  let p = fresh_top b (def_name ?name b "f") in
  ignore (emit b (Inst.Field { lhs = p; base; offset }));
  p

let load b ?name ptr =
  let p = fresh_top b (def_name ?name b "l") in
  ignore (emit b (Inst.Load { lhs = p; ptr }));
  p

let store b ~ptr rhs = ignore (emit b (Inst.Store { ptr; rhs }))

let call b ?name ~callee args =
  let p = fresh_top b (def_name ?name b "r") in
  ignore (emit b (Inst.Call { lhs = Some p; callee; args }));
  p

let call_void b ~callee args =
  ignore (emit b (Inst.Call { lhs = None; callee; args }))

let if_ b ~then_ ~else_ =
  let cond = emit b Inst.Branch in
  b.cur <- Some cond;
  then_ b;
  let then_end = b.cur in
  b.cur <- Some cond;
  else_ b;
  let else_end = b.cur in
  match (then_end, else_end) with
  | None, None -> b.cur <- None
  | Some e, None | None, Some e -> b.cur <- Some e
  | Some te, Some ee ->
    if te = ee then
      (* Both arms empty: the condition node itself continues. *)
      b.cur <- Some te
    else begin
      let join = Prog.add_inst b.fn Inst.Branch in
      Prog.add_flow b.fn te join;
      Prog.add_flow b.fn ee join;
      b.cur <- Some join
    end

let while_ b ~body =
  let header = emit b Inst.Branch in
  b.cur <- Some header;
  body b;
  (match b.cur with
  | Some body_end -> Prog.add_flow b.fn body_end header
  | None -> ());
  b.cur <- Some header

let do_while_ b ~body =
  let start = emit b Inst.Branch in
  body b;
  (match b.cur with
  | Some body_end -> Prog.add_flow b.fn body_end start
  | None -> ());
  (* Continue from the body end (the loop exits after an iteration); if the
     body diverged, the loop never exits. *)
  ()

let return b v =
  let join =
    match b.ret_join with
    | Some j -> j
    | None ->
      let j = Prog.add_inst b.fn Inst.Branch in
      Prog.add_flow b.fn j b.fn.Prog.exit_inst;
      b.ret_join <- Some j;
      j
  in
  (match b.cur with
  | Some prev -> Prog.add_flow b.fn prev join
  | None -> failwith "Builder.return: unreachable code");
  (match v with Some v -> b.ret_vars <- v :: b.ret_vars | None -> ());
  b.cur <- None

let finish b =
  if b.finished then failwith "Builder.finish: already finished";
  b.finished <- true;
  (* A fall-off-the-end tail is an implicit void return. *)
  (match (b.cur, b.ret_join) with
  | Some tail, Some join -> Prog.add_flow b.fn tail join
  | Some tail, None -> Prog.add_flow b.fn tail b.fn.Prog.exit_inst
  | None, _ -> ());
  match List.rev b.ret_vars with
  | [] -> ()
  | [ v ] -> b.fn.Prog.ret <- Some v
  | vs ->
    (* Several returned values: the join placeholder becomes a PHI, which is
       what LLVM's UnifyFunctionExitNodes + mem2reg produce. *)
    let join = Option.get b.ret_join in
    let lhs = fresh_top b (b.fn.Prog.fname ^ ".retval") in
    Prog.set_inst b.fn join (Inst.Phi { lhs; rhs = vs });
    b.fn.Prog.ret <- Some lhs
