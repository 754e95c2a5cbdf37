exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

(* ---------- tokenizer ---------- *)

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '_' | '.' | '%' | '@' | '&' | '*' -> true
  | _ -> false

let tokenize lineno s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '#' then i := n (* comment *)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && s.[!i + 1] = '>' then begin
      tokens := "->" :: !tokens;
      i := !i + 2
    end
    else if c = '(' || c = ')' || c = ',' || c = '{' || c = '}' || c = '=' || c = ':'
    then begin
      tokens := String.make 1 c :: !tokens;
      incr i
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      tokens := String.sub s start (!i - start) :: !tokens
    end
    else fail lineno "unexpected character %C" c
  done;
  List.rev !tokens

let strip_percent name =
  if String.length name > 0 && name.[0] = '%' then
    String.sub name 1 (String.length name - 1)
  else name

(* ---------- parser state ---------- *)

type fstate = {
  fn : Prog.func;

  locals : (string, Inst.var) Hashtbl.t;
  mutable pending_fallthrough : int option;
  mutable ret_name : string option;
  mutable header_line : int;
}

let parse text =
  let prog = Prog.create () in
  let lines = String.split_on_char '\n' text in
  let numbered = List.mapi (fun i l -> (i + 1, tokenize (i + 1) l)) lines in
  let numbered = List.filter (fun (_, toks) -> toks <> []) numbered in
  (* Pass 1: declare all functions so calls can be resolved forward. *)
  let funcs : (string, fstate) Hashtbl.t = Hashtbl.create 16 in
  let func_order = ref [] in
  let parse_header line toks =
    (* func NAME ( p, q ) [-> r] { *)
    let rec split_params acc = function
      | ")" :: rest -> (List.rev acc, rest)
      | "," :: rest -> split_params acc rest
      | p :: rest -> split_params (strip_percent p :: acc) rest
      | [] -> fail line "unterminated parameter list"
    in
    match toks with
    | "func" :: name :: "(" :: rest ->
      let params, rest = split_params [] rest in
      let ret_name, rest =
        match rest with
        | "->" :: r :: rest -> (Some (strip_percent r), rest)
        | rest -> (None, rest)
      in
      (match rest with
      | [ "{" ] -> ()
      | _ -> fail line "expected '{' at end of function header");
      if Hashtbl.mem funcs name then fail line "duplicate function %s" name;
      let locals = Hashtbl.create 16 in
      let params =
        List.map
          (fun p ->
            let v = Prog.fresh_top prog p in
            Hashtbl.replace locals p v;
            v)
          params
      in
      let fn = Prog.declare_func prog name ~params in
      let st =
        { fn; locals; pending_fallthrough = None; ret_name;
          header_line = line }
      in
      Hashtbl.add funcs name st;
      func_order := name :: !func_order
    | _ -> fail line "malformed function header"
  in
  List.iter
    (fun (line, toks) ->
      match toks with "func" :: _ -> parse_header line toks | _ -> ())
    numbered;
  (* Globals and objects are program-wide. *)
  let globals : (string, Inst.var) Hashtbl.t = Hashtbl.create 16 in
  let objects : (string, Inst.var) Hashtbl.t = Hashtbl.create 16 in
  let entry_name = ref None in
  let resolve_var st line name =
    let name = strip_percent name in
    if name = "" then fail line "empty variable name";
    match Hashtbl.find_opt st.locals name with
    | Some v -> v
    | None -> (
      match Hashtbl.find_opt globals name with
      | Some v -> v
      | None ->
        let v = Prog.fresh_top prog name in
        Hashtbl.replace st.locals name v;
        v)
  in
  let resolve_obj line kind name =
    match kind with
    | "func" ->
      let fname =
        if String.length name > 0 && name.[0] = '&' then
          String.sub name 1 (String.length name - 1)
        else name
      in
      (match Hashtbl.find_opt funcs fname with
      | Some st -> Prog.function_object prog st.fn
      | None -> fail line "unknown function in @func:%s" name)
    | "stack" | "global" | "heap" -> (
      match Hashtbl.find_opt objects name with
      | Some o -> o
      | None ->
        let k =
          match kind with
          | "stack" -> Prog.Stack
          | "global" -> Prog.Global
          | _ -> Prog.Heap
        in
        let o = Prog.fresh_obj prog name k in
        Hashtbl.replace objects name o;
        o)
    | _ -> fail line "bad object kind @%s" kind
  in
  let parse_obj line = function
    | kind :: ":" :: name :: rest when String.length kind > 0 && kind.[0] = '@' ->
      (resolve_obj line (String.sub kind 1 (String.length kind - 1)) name, rest)
    | _ -> fail line "expected object (@kind:name)"
  in
  let rec parse_args st line acc = function
    | ")" :: rest -> (List.rev acc, rest)
    | "," :: rest -> parse_args st line acc rest
    | a :: rest -> parse_args st line (resolve_var st line a :: acc) rest
    | [] -> fail line "unterminated argument list"
  in
  let parse_callee st line name args_toks =
    let callee =
      if String.length name > 0 && name.[0] = '*' then
        Inst.Indirect (resolve_var st line (String.sub name 1 (String.length name - 1)))
      else
        match Hashtbl.find_opt funcs name with
        | Some st' -> Inst.Direct st'.fn.Prog.id
        | None -> fail line "call to unknown function %s" name
    in
    match args_toks with
    | "(" :: rest ->
      let args, rest = parse_args st line [] rest in
      (callee, args, rest)
    | _ -> fail line "expected '(' after callee"
  in
  (* Parses an instruction; returns (inst, remaining tokens). *)
  let parse_inst st line toks =
    match toks with
    | "entry" :: rest -> (Inst.Entry, rest)
    | "exit" :: rest -> (Inst.Exit, rest)
    | "br" :: rest -> (Inst.Branch, rest)
    | "store" :: p :: q :: rest ->
      (Inst.Store { ptr = resolve_var st line p; rhs = resolve_var st line q }, rest)
    | "call" :: name :: rest ->
      let callee, args, rest = parse_callee st line name rest in
      (Inst.Call { lhs = None; callee; args }, rest)
    | lhs :: "=" :: rhs -> (
      let lhs = resolve_var st line lhs in
      match rhs with
      | "alloc" :: rest ->
        let obj, rest = parse_obj line rest in
        (Inst.Alloc { lhs; obj }, rest)
      | "copy" :: r :: rest -> (Inst.Copy { lhs; rhs = resolve_var st line r }, rest)
      | "load" :: r :: rest -> (Inst.Load { lhs; ptr = resolve_var st line r }, rest)
      | "field" :: b :: k :: rest -> (
        match int_of_string_opt k with
        | Some offset ->
          (Inst.Field { lhs; base = resolve_var st line b; offset }, rest)
        | None -> fail line "field offset must be an integer")
      | "phi" :: "(" :: rest ->
        let args, rest = parse_args st line [] rest in
        (Inst.Phi { lhs; rhs = args }, rest)
      | "call" :: name :: rest ->
        let callee, args, rest = parse_callee st line name rest in
        (Inst.Call { lhs = Some lhs; callee; args }, rest)
      | _ -> fail line "malformed right-hand side")
    | _ -> fail line "malformed instruction"
  in
  let parse_label line tok =
    if String.length tok >= 2 && tok.[0] = 'L' then
      match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
      | Some k -> k
      | None -> fail line "bad label %s" tok
    else fail line "expected label, got %s" tok
  in
  let parse_succs line toks =
    match toks with
    | [] -> None
    | "->" :: rest ->
      if rest = [] then fail line "empty successor list";
      Some (List.map (parse_label line) rest)
    | t :: _ -> fail line "trailing tokens starting at %s" t
  in
  (* Pass 2. *)
  let current : fstate option ref = ref None in
  List.iter
    (fun (line, toks) ->
      match (toks, !current) with
      | "entry" :: name :: [], None -> entry_name := Some name
      | "global" :: g :: [], None ->
        let name = strip_percent g in
        if not (Hashtbl.mem globals name) then
          Hashtbl.replace globals name (Prog.fresh_top prog name)
      | "func" :: name :: _, None -> current := Some (Hashtbl.find funcs name)
      | [ "}" ], Some st ->
        (match st.ret_name with
        | Some r -> (
          match Hashtbl.find_opt st.locals r with
          | Some v -> st.fn.Prog.ret <- Some v
          | None -> (
            match Hashtbl.find_opt globals r with
            | Some v -> st.fn.Prog.ret <- Some v
            | None -> fail st.header_line "return variable %%%s never defined" r))
        | None -> ());
        current := None
      | _, Some st -> (
        match toks with
        | label :: ":" :: rest ->
          let k = parse_label line label in
          let ins, rest = parse_inst st line rest in
          let id =
            if k = st.fn.Prog.entry_inst then begin
              (match ins with
              | Inst.Entry -> ()
              | _ -> fail line "L0 must be entry");
              k
            end
            else if k = st.fn.Prog.exit_inst then begin
              (match ins with
              | Inst.Exit -> ()
              | _ -> fail line "L1 must be exit");
              k
            end
            else Prog.add_inst st.fn ins
          in
          if id <> k then fail line "labels must be consecutive (expected L%d)" id;
          (match st.pending_fallthrough with
          | Some prev -> Prog.add_flow st.fn prev id
          | None -> ());
          (match parse_succs line rest with
          | Some succs ->
            List.iter (fun s -> Prog.add_flow st.fn id s) succs;
            st.pending_fallthrough <- None
          | None ->
            st.pending_fallthrough <-
              (if id = st.fn.Prog.exit_inst then None else Some id))
        | _ -> fail line "expected instruction line")
      | t :: _, None -> fail line "unexpected token %s at top level" t
      | [], _ -> ())
    numbered;
  (match !current with
  | Some st -> fail st.header_line "unterminated function %s" st.fn.Prog.fname
  | None -> ());
  (* Entry selection: explicit, then __init, then main, then first. *)
  let set name =
    match Hashtbl.find_opt funcs name with
    | Some st -> Prog.set_entry prog st.fn.Prog.id
    | None -> failwith ("entry function not found: " ^ name)
  in
  (match !entry_name with
  | Some n -> set n
  | None ->
    if Hashtbl.mem funcs "__init" then set "__init"
    else if Hashtbl.mem funcs "main" then set "main"
    else (
      match List.rev !func_order with
      | first :: _ -> set first
      | [] -> failwith "empty program"));
  prog
