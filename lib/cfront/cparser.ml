open Lexer

exception Parse_error of int * string

type state = { toks : (token * int) array; mutable pos : int }

let fail_at line fmt =
  Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let peek st = fst st.toks.(st.pos)
let line st = snd st.toks.(st.pos)

let advance st =
  let t = st.toks.(st.pos) in
  if fst t <> EOF then st.pos <- st.pos + 1;
  fst t

let expect st tok =
  let got = peek st in
  if got = tok then ignore (advance st)
  else
    fail_at (line st) "expected %s, got %s" (token_to_string tok)
      (token_to_string got)

let expect_ident st =
  match advance st with
  | IDENT s -> s
  | t -> fail_at (line st) "expected identifier, got %s" (token_to_string t)

(* expr := cmp (('&&' | '||') cmp)* ; both operands are lowered for their
   effects (a sound over-approximation of short-circuiting for a
   may-analysis) *)
let rec parse_expr st =
  let lhs = ref (parse_cmp st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | ANDAND | OROR ->
      ignore (advance st);
      lhs := Ast.Cmp (!lhs, parse_cmp st)
    | _ -> continue := false
  done;
  !lhs

and parse_cmp st =
  let lhs = parse_unary st in
  match peek st with
  | EQ | NEQ ->
    ignore (advance st);
    let rhs = parse_unary st in
    Ast.Cmp (lhs, rhs)
  | _ -> lhs

and parse_unary st =
  match peek st with
  | STAR ->
    ignore (advance st);
    Ast.Deref (parse_unary st)
  | AMP -> (
    ignore (advance st);
    let l = line st in
    match parse_unary st with
    | Ast.Var x -> Ast.AddrVar x
    | Ast.Arrow (e, f) -> Ast.AddrField (e, f)
    | _ -> fail_at l "'&' must be applied to a variable or field access")
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | ARROW ->
      ignore (advance st);
      let f = expect_ident st in
      e := Ast.Arrow (!e, f)
    | LPAREN ->
      ignore (advance st);
      let args = parse_args st in
      e := Ast.Call (!e, args)
    | _ -> continue := false
  done;
  !e

and parse_args st =
  if peek st = RPAREN then begin
    ignore (advance st);
    []
  end
  else begin
    let rec go acc =
      let e = parse_expr st in
      match advance st with
      | COMMA -> go (e :: acc)
      | RPAREN -> List.rev (e :: acc)
      | t -> fail_at (line st) "expected ',' or ')', got %s" (token_to_string t)
    in
    go []
  end

and parse_primary st =
  let l = line st in
  match advance st with
  | IDENT x -> Ast.Var x
  | INT _ | KW_NULL -> Ast.Null
  | KW_MALLOC ->
    expect st LPAREN;
    expect st RPAREN;
    Ast.Malloc
  | LPAREN ->
    let e = parse_expr st in
    expect st RPAREN;
    e
  | t -> fail_at l "unexpected token %s in expression" (token_to_string t)

let rec parse_stmt st =
  let l = line st in
  match peek st with
  | KW_VAR ->
    ignore (advance st);
    let rec names acc =
      let x = expect_ident st in
      match advance st with
      | COMMA -> names (x :: acc)
      | SEMI -> List.rev (x :: acc)
      | t -> fail_at (line st) "expected ',' or ';', got %s" (token_to_string t)
    in
    Ast.Decl (l, names [])
  | KW_IF ->
    ignore (advance st);
    expect st LPAREN;
    let cond = parse_expr st in
    expect st RPAREN;
    let then_ = parse_block st in
    let else_ =
      if peek st = KW_ELSE then begin
        ignore (advance st);
        if peek st = KW_IF then [ parse_stmt st ] else parse_block st
      end
      else []
    in
    Ast.If (l, cond, then_, else_)
  | KW_WHILE ->
    ignore (advance st);
    expect st LPAREN;
    let cond = parse_expr st in
    expect st RPAREN;
    let body = parse_block st in
    Ast.While (l, cond, body)
  | KW_FOR ->
    ignore (advance st);
    expect st LPAREN;
    let simple () =
      (* assignment or expression, no trailing ';' *)
      let e = parse_expr st in
      if peek st = ASSIGN then begin
        ignore (advance st);
        let rhs = parse_expr st in
        Ast.Assign (l, e, rhs)
      end
      else Ast.Expr (l, e)
    in
    let init = if peek st = SEMI then None else Some (simple ()) in
    expect st SEMI;
    let cond = if peek st = SEMI then None else Some (parse_expr st) in
    expect st SEMI;
    let step = if peek st = RPAREN then None else Some (simple ()) in
    expect st RPAREN;
    let body = parse_block st in
    Ast.For (l, init, cond, step, body)
  | KW_DO ->
    ignore (advance st);
    let body = parse_block st in
    (match advance st with
    | KW_WHILE -> ()
    | t -> fail_at (line st) "expected 'while' after do-block, got %s" (token_to_string t));
    expect st LPAREN;
    let cond = parse_expr st in
    expect st RPAREN;
    expect st SEMI;
    Ast.DoWhile (l, body, cond)
  | KW_RETURN ->
    ignore (advance st);
    if peek st = SEMI then begin
      ignore (advance st);
      Ast.Return (l, None)
    end
    else begin
      let e = parse_expr st in
      expect st SEMI;
      Ast.Return (l, Some e)
    end
  | _ ->
    let e = parse_expr st in
    if peek st = ASSIGN then begin
      ignore (advance st);
      let rhs = parse_expr st in
      expect st SEMI;
      Ast.Assign (l, e, rhs)
    end
    else begin
      expect st SEMI;
      Ast.Expr (l, e)
    end

and parse_block st =
  expect st LBRACE;
  let rec go acc =
    if peek st = RBRACE then begin
      ignore (advance st);
      List.rev acc
    end
    else go (parse_stmt st :: acc)
  in
  go []

let parse_def st =
  let l = line st in
  match advance st with
  | KW_GLOBAL -> (
    let name = expect_ident st in
    match peek st with
    | ASSIGN ->
      ignore (advance st);
      let init = Some (parse_expr st) in
      expect st SEMI;
      [ Ast.Global (l, name, init) ]
    | COMMA ->
      (* [global g, h;] — no initialisers in the multi-name form *)
      let rec names acc =
        match advance st with
        | COMMA -> names (expect_ident st :: acc)
        | SEMI -> List.rev acc
        | t -> fail_at (line st) "expected ',' or ';', got %s" (token_to_string t)
      in
      List.map (fun n -> Ast.Global (l, n, None)) (names [ name ])
    | _ ->
      expect st SEMI;
      [ Ast.Global (l, name, None) ])
  | KW_FUNC ->
    let name = expect_ident st in
    expect st LPAREN;
    let params =
      if peek st = RPAREN then begin
        ignore (advance st);
        []
      end
      else begin
        let rec go acc =
          let p = expect_ident st in
          match advance st with
          | COMMA -> go (p :: acc)
          | RPAREN -> List.rev (p :: acc)
          | t ->
            fail_at (line st) "expected ',' or ')', got %s" (token_to_string t)
        in
        go []
      end
    in
    let body = parse_block st in
    [ Ast.Func { pos = l; name; params; body } ]
  | t -> fail_at l "expected 'global' or 'func', got %s" (token_to_string t)

let parse src =
  let st = { toks = Array.of_list (tokens src); pos = 0 } in
  let rec go acc =
    if peek st = EOF then List.concat (List.rev acc)
    else go (parse_def st :: acc)
  in
  go []
