(** Recursive-descent parser for mini-C (grammar in {!Ast}). *)

exception Parse_error of int * string

val parse : string -> Ast.program
