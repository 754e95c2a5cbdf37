(** Lowering mini-C to the partial-SSA IR.

    Mirrors the clang/LLVM pipeline the paper assumes:
    - every local (and parameter) first becomes an alloca slot accessed
      through loads/stores;
    - {!Mem2reg.run} then promotes the slots whose address never escapes to
      top-level SSA variables with PHIs, leaving genuinely address-taken
      variables as memory objects;
    - globals become objects allocated in a synthetic [__init] function,
      which also runs global initialisers and calls [main]
      ({!Pta_ir.Entrypoint}).

    Field names are interned program-wide to offsets (1-based), giving
    field-name sensitivity; [malloc()] allocates one abstract heap object per
    call site; a function name in expression position decays to a pointer
    ([fp = f;]). Loop conditions are evaluated at the top of the loop body,
    which is equivalent for the analysis's purposes. *)

exception Lower_error of Ast.pos * string

val lower : ?promote:bool -> Ast.program -> Pta_ir.Prog.t
(** [promote] (default [true]) controls whether mem2reg runs. *)

val compile : ?promote:bool -> string -> Pta_ir.Prog.t
(** Parse + lower a mini-C source string. *)
