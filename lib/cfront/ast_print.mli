(** Pretty-printer from mini-C ASTs back to parsable source.

    [Cparser.parse (program p)] always succeeds on ASTs the parser (or the
    {!Pta_fuzz} mutator, which preserves the grammar's shape invariants) can
    produce, and lowers to the same analysis semantics; it is not a
    byte-level inverse (all comparison operators print as [==], which the
    lowering treats identically). This is the substrate for AST-level
    mutation and delta-debugging shrinks. *)

val program : Ast.program -> string
