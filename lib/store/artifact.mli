(** Typed (de)serializers for each pipeline stage's artifacts.

    Each [encode_*] is deterministic (equal artifacts → equal bytes, so
    re-saving an unchanged result rewrites an identical entry); each
    [decode_*] fully validates and raises {!Codec.Corrupt} on malformed
    input — including replay errors from the IR layer — so callers treat
    any failure as a cache miss.

    The program is serialized as its binary variable/function tables rather
    than printed IR: Andersen's constraint expansion creates field objects
    with no [Alloc] site, and the id space must survive round-trips exactly
    for every downstream artifact (points-to sets, SVFG node kinds,
    versioning maps) to keep meaning. Decoding replays the tables through
    {!Pta_ir.Prog.restore_var} / [declare_func] / [add_inst] / [add_flow],
    which also restores the field-object intern table. *)

(* Stage 1: the lowered, validated, singleton-refined program ------------- *)

val encode_prog : Pta_ir.Prog.t -> string
val decode_prog : string -> Pta_ir.Prog.t

(* Stage 2: Andersen's auxiliary results ---------------------------------- *)

type aux = {
  pts : Pta_ds.Bitset.t array;  (** per-variable auxiliary points-to sets *)
  cg : Pta_ir.Callgraph.t;  (** auxiliary call graph *)
}

val to_aux : aux -> Pta_memssa.Modref.aux
(** The view the memory-SSA layer and the SVFG consume. *)

val encode_aux : aux -> string

val decode_aux : n_vars:int -> string -> aux
(** [n_vars] must match the program the sets index into. *)

(* Stage 3: the SVFG ------------------------------------------------------ *)

val encode_svfg : Pta_svfg.Svfg.raw -> string
val decode_svfg : string -> Pta_svfg.Svfg.raw

(* Stage 4: meld labelling / versioning ----------------------------------- *)

val encode_versioning : Vsfs_core.Versioning.raw -> string
val decode_versioning : string -> Vsfs_core.Versioning.raw

(* Stage 5: final flow-sensitive points-to results ------------------------ *)

type points_to = {
  top : Pta_ds.Bitset.t array;  (** per-variable top-level points-to sets *)
  obj : Pta_ds.Bitset.t array;  (** per-object merged address-taken sets *)
}

val encode_points_to : points_to -> string
val decode_points_to : string -> points_to
