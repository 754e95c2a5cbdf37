(* Pretty-printing mini-C ASTs back to parsable source.

   The output always reparses (operands that the grammar cannot carry in a
   given position are parenthesised — parens are primaries), but it is a
   semantic, not byte-level, inverse of the parser: comparison operators all
   print as [==], which the lowering treats identically. *)

let rec expr buf e =
  match e with
  | Ast.Var x -> Buffer.add_string buf x
  | Ast.Null -> Buffer.add_string buf "null"
  | Ast.Malloc -> Buffer.add_string buf "malloc()"
  | Ast.Deref e ->
    Buffer.add_char buf '*';
    unary buf e
  | Ast.AddrVar x ->
    Buffer.add_char buf '&';
    Buffer.add_string buf x
  | Ast.AddrField (e, f) ->
    Buffer.add_char buf '&';
    postfix buf e;
    Buffer.add_string buf "->";
    Buffer.add_string buf f
  | Ast.Arrow (e, f) ->
    postfix buf e;
    Buffer.add_string buf "->";
    Buffer.add_string buf f
  | Ast.Call (callee, args) ->
    postfix buf callee;
    Buffer.add_char buf '(';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        expr buf a)
      args;
    Buffer.add_char buf ')'
  | Ast.Cmp (a, b) ->
    cmp_operand buf a;
    Buffer.add_string buf " == ";
    cmp_operand buf b

(* Operand of [*...]: anything unary-or-tighter; parenthesise comparisons. *)
and unary buf e =
  match e with
  | Ast.Cmp _ -> parens buf e
  | _ -> expr buf e

(* Base of [e->f] / callee of [e(...)]: postfix-or-tighter only. *)
and postfix buf e =
  match e with
  | Ast.Var _ | Ast.Null | Ast.Malloc | Ast.Arrow _ | Ast.Call _ ->
    expr buf e
  | Ast.Deref _ | Ast.AddrVar _ | Ast.AddrField _ | Ast.Cmp _ ->
    parens buf e

(* Operand of [a == b]: unary-or-tighter only. *)
and cmp_operand buf e =
  match e with Ast.Cmp _ -> parens buf e | _ -> unary buf e

and parens buf e =
  Buffer.add_char buf '(';
  expr buf e;
  Buffer.add_char buf ')'

let indent buf n =
  for _ = 1 to n do
    Buffer.add_string buf "  "
  done

let rec stmt buf d s =
  indent buf d;
  match s with
  | Ast.Decl (_, names) ->
    Buffer.add_string buf "var ";
    Buffer.add_string buf (String.concat ", " names);
    Buffer.add_string buf ";\n"
  | Ast.Assign (_, lhs, rhs) ->
    expr buf lhs;
    Buffer.add_string buf " = ";
    expr buf rhs;
    Buffer.add_string buf ";\n"
  | Ast.Expr (_, e) ->
    expr buf e;
    Buffer.add_string buf ";\n"
  | Ast.If (_, cond, then_, else_) ->
    Buffer.add_string buf "if (";
    expr buf cond;
    Buffer.add_string buf ") {\n";
    block buf d then_;
    if else_ <> [] then begin
      indent buf d;
      Buffer.add_string buf "} else {\n";
      block buf d else_
    end;
    indent buf d;
    Buffer.add_string buf "}\n"
  | Ast.While (_, cond, body) ->
    Buffer.add_string buf "while (";
    expr buf cond;
    Buffer.add_string buf ") {\n";
    block buf d body;
    indent buf d;
    Buffer.add_string buf "}\n"
  | Ast.For (_, init, cond, step, body) ->
    let simple s =
      (* init/step print without the trailing ';' the statement form adds *)
      match s with
      | Ast.Assign (_, lhs, rhs) ->
        expr buf lhs;
        Buffer.add_string buf " = ";
        expr buf rhs
      | Ast.Expr (_, e) -> expr buf e
      | _ -> invalid_arg "Ast_print: for-init/step must be assign or expr"
    in
    Buffer.add_string buf "for (";
    Option.iter simple init;
    Buffer.add_string buf "; ";
    Option.iter (expr buf) cond;
    Buffer.add_string buf "; ";
    Option.iter simple step;
    Buffer.add_string buf ") {\n";
    block buf d body;
    indent buf d;
    Buffer.add_string buf "}\n"
  | Ast.DoWhile (_, body, cond) ->
    Buffer.add_string buf "do {\n";
    block buf d body;
    indent buf d;
    Buffer.add_string buf "} while (";
    expr buf cond;
    Buffer.add_string buf ");\n"
  | Ast.Return (_, e) ->
    Buffer.add_string buf "return";
    Option.iter
      (fun e ->
        Buffer.add_char buf ' ';
        expr buf e)
      e;
    Buffer.add_string buf ";\n"

and block buf d stmts = List.iter (stmt buf (d + 1)) stmts

let def buf = function
  | Ast.Global (_, name, init) ->
    Buffer.add_string buf "global ";
    Buffer.add_string buf name;
    Option.iter
      (fun e ->
        Buffer.add_string buf " = ";
        expr buf e)
      init;
    Buffer.add_string buf ";\n"
  | Ast.Func { name; params; body; _ } ->
    Buffer.add_string buf "func ";
    Buffer.add_string buf name;
    Buffer.add_char buf '(';
    Buffer.add_string buf (String.concat ", " params);
    Buffer.add_string buf ") {\n";
    block buf 0 body;
    Buffer.add_string buf "}\n"

let program p =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf '\n';
      def buf d)
    p;
  Buffer.contents buf
