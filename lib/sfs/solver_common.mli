(** Machinery shared by the SFS and VSFS solvers: the global top-level
    points-to sets (one per variable, valid program-wide thanks to partial
    SSA), the flow-sensitively resolved call graph, and the top-level
    transfer functions (ADDR, COPY, PHI, FIELD, CALL, RET of Fig. 10). The
    two solvers differ only in how address-taken objects' points-to sets are
    stored and propagated, which is exactly the paper's point.

    Both solvers run on {!Pta_engine.Engine}; [create] takes the solve's
    telemetry phase and caches the hot extras ([top_adds], [top_unions],
    [props], [call_edges]) as refs. *)

open Pta_ir

type t = {
  svfg : Pta_svfg.Svfg.t;
  pt : Pta_ds.Ptset.t Pta_ds.Vec.t;  (** interned top-level sets, one id per var *)
  cg_fs : Callgraph.t;  (** call edges discovered flow-sensitively *)
  callers : (Inst.func_id, (Callgraph.callsite * Inst.var option) list ref) Hashtbl.t;
  su_enabled : bool;  (** strong updates enabled (ablation switch) *)
  tel : Pta_engine.Telemetry.phase;
  top_adds : int ref;
  top_unions : int ref;
  props : int ref;  (** sparse-edge propagations (the solver bumps it) *)
  call_edges : int ref;  (** call edges wired, one per first discovery *)
}

val create :
  ?strong_updates:bool -> tel:Pta_engine.Telemetry.phase -> Pta_svfg.Svfg.t -> t
(** [strong_updates] defaults to [true]; [false] disables [SU] entirely
    (benchmarked as an ablation — both solvers lose the same precision). *)

val pt_id : t -> Inst.var -> Pta_ds.Ptset.t
(** Interned id of [pt v] (grows the table on demand for late field
    objects). *)

val pt_of : t -> Inst.var -> Pta_ds.Bitset.t
(** Read-only canonical view of [pt v] — shared with the intern pool, never
    mutate it. *)

val add_pt : t -> Inst.var -> Inst.var -> bool
val union_pt : t -> Inst.var -> Pta_ds.Ptset.t -> bool

val strong_update_ptr : t -> Inst.var -> bool
(** [strong_update_ptr t ptr]: strong updates are enabled and the auxiliary
    [pt(ptr)] is a singleton. Depends on the pointer only: compute it once
    per store pop. *)

val strong_update_ok : t -> ptr_single:bool -> Inst.var -> bool
(** [strong_update_ok t ~ptr_single:(strong_update_ptr t ptr) o]: the store
    [*ptr = _] may strongly update [o], i.e. [pt(ptr) = {o}] and
    [o ∈ SN]. *)

val process_top_level :
  t ->
  push_users:(Inst.var -> unit) ->
  on_call_edge:(int -> int -> unit) ->
  node:int ->
  Inst.t ->
  unit
(** Applies the top-level rules for one instruction node. [push_users v] is
    invoked whenever [pt v] changed. When the node is an indirect call that
    first resolves to a target, [on_call_edge s d] is invoked for each
    interprocedural edge of that call edge ({!Pta_svfg.Svfg.iter_call_edges}),
    from slot [s] to slot [d]: edges the SVFG does not hold, which the
    solver wires in its own state. Loads and stores are ignored here
    (solver-specific). *)

val resolve_targets : t -> Inst.callee -> Inst.func_id list
(** Current flow-sensitive targets of a callee expression. *)
