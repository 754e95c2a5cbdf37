(** End-to-end analysis pipeline, organised as a staged lattice:

    mini-C source → compile (lower + mem2reg + validate) → Andersen
    (auxiliary) → singleton refinement → SVFG (+ static direct-call edges)
    → meld versioning → SFS / VSFS / dense / unify solvers.

    Every step is a {!Stage.t}: a typed input → output function with a
    stable key (also its {!Pta_store} stage name), an optional store
    import/export pair, and a timing hook. {!Stage.run} is the single
    cold/cached code path — with a store in the {!ctx} it probes the
    artifact first, falls back to the body on a miss (or a corrupt entry),
    and persists the cold result; every execution appends
    [(key, seconds, warm)] to the context's stage log. Stages compose with
    {!Stage.( >>> )}.

    The SVFG and the versioning are read-only once their stages return:
    solvers keep what they discover (on-the-fly call edges, version
    reliances) in their own state, so one graph serves every solver run of
    a program. *)

type built = {
  prog : Pta_ir.Prog.t;
  aux : Pta_memssa.Modref.aux;  (** auxiliary points-to + call graph *)
  loc : int;
  src_bytes : int;
  src_digest : string;  (** content hash of the source, the cache key root *)
  andersen_seconds : float;  (** 0. when Andersen was loaded from the store *)
  pre_merged : int;
  pre_vars : int;
      (** [pre_merged] and [pre_vars] are always 0: Andersen runs unseeded.
          They stay only because the benchmark harness ([perfbench/pb.ml])
          reads them, and the harness changes only together with the
          benchmark itself; drop both in that change. *)
}

(* Execution context ------------------------------------------------------ *)

type ctx
(** Carries the optional artifact store, cache label and the per-stage log.
    One context per logical pipeline run; safe to reuse across stages (the
    log accumulates). *)

val context : ?store:Pta_store.Store.t -> ?label:string -> unit -> ctx

val stage_log : ctx -> (string * float * bool) list
(** [(key, seconds, warm)] per executed stage, oldest first. *)

val stage_seconds : ctx -> string -> float
(** Seconds of the most recent run of the named stage (0. if never ran). *)

val stage_warm : ctx -> string -> bool
(** Whether the most recent run of the named stage was a store import. *)

val json_of_stages : ctx -> string
(** The stage log as a JSON array of
    [{"stage": k, "seconds": s, "warm": b}] — the bench's per-stage
    timing section. *)

module Stage : sig
  type ('a, 'b) t

  val v :
    key:string ->
    ?load:(ctx -> Pta_store.Store.t -> 'a -> 'b option) ->
    ?save:(ctx -> Pta_store.Store.t -> 'a -> 'b -> unit) ->
    (ctx -> 'a -> 'b) -> ('a, 'b) t
  (** A primitive stage. [load] decodes through {!Pta_store.Store.load},
      so a corrupt entry is a miss; it may also raise [Invalid_argument]
      (an import that does not fit the program). Both demote to the cold
      body (which is then [save]d). *)

  val key : ('a, 'b) t -> string

  val run : ctx -> ('a, 'b) t -> 'a -> 'b

  val ( >>> ) : ('a, 'b) t -> ('b, 'c) t -> ('a, 'c) t
  (** Composition; each component keeps its own probe/timing (the composite
      itself is not logged). *)
end

(* The stages --------------------------------------------------------------- *)

val stage_build :
  ?compile:(string -> Pta_ir.Prog.t) -> unit -> (string, built) Stage.t
(** compile ∘ andersen (each logged separately on a cold run), fused
    behind one store probe: a warm hit imports the program + Andersen
    artifacts and skips the whole prefix. *)

val stage_svfg : (built, built * Pta_svfg.Svfg.t) Stage.t
val stage_versioning :
  (built * Pta_svfg.Svfg.t,
   built * Pta_svfg.Svfg.t * Vsfs_core.Versioning.t) Stage.t

val stage_sfs : (built * Pta_svfg.Svfg.t, Pta_sfs.Sfs.result) Stage.t
val stage_vsfs :
  (built * Pta_svfg.Svfg.t * Vsfs_core.Versioning.t,
   Vsfs_core.Vsfs.result * Vsfs_core.Versioning.t) Stage.t

(* Drivers ----------------------------------------------------------------- *)

val build_source : ?ctx:ctx -> ?compile:(string -> Pta_ir.Prog.t) -> string -> built
(** [compile] turns the source text into a program (default:
    {!Pta_cfront.Lower.compile}; the CLI passes the IR parser for [.ir]
    files). @raise Failure on invalid programs (validation runs). *)

val build : ?ctx:ctx -> Gen.config -> built

val build_cached :
  store:Pta_store.Store.t -> ?compile:(string -> Pta_ir.Prog.t) ->
  ?label:string -> string -> built * bool
(** [build_source] through a store-backed context; the [bool] is the
    ["build"] stage's warm flag. Equivalent to
    [let ctx = context ~store ~label () in
     (build_source ~ctx src, stage_warm ctx "build")]. *)

val fresh_svfg : ?ctx:ctx -> built -> Pta_svfg.Svfg.t
(** The program's SVFG, direct-call interprocedural edges included: the
    ["svfg"] stage, imported from the context's store when possible. *)

type solver_run = {
  seconds : float;  (** main phase only *)
  pre_seconds : float;  (** versioning time (0 for SFS/dense and for
                            versioning imported from the store) *)
  sets : int;
  set_words : int;
      (** structure-shared memory: each distinct set once + 1 word/slot *)
  unshared_words : int;
      (** pre-interning cost: words summed over every slot (0 for dense) *)
  unique_sets : int;  (** distinct points-to sets across all slots (0 for dense) *)
  props : int;
  pops : int;
  engine : Pta_engine.Telemetry.snapshot option;
      (** the solve phase's engine counters (pushes/pops/steps/grew/wall) *)
}

val run_sfs :
  ?ctx:ctx -> ?svfg:Pta_svfg.Svfg.t -> built ->
  Pta_sfs.Sfs.result * solver_run

val run_vsfs :
  ?ctx:ctx -> ?svfg:Pta_svfg.Svfg.t -> built ->
  Vsfs_core.Vsfs.result * solver_run
(** [svfg] is the program's graph when the caller already has one (it is
    read-only, so one serves both solvers); without it the ["svfg"] stage
    runs, as in {!fresh_svfg}. With a store in [ctx], the SVFG and for VSFS
    the versioning are imported when cached, so only the solve phase itself
    runs (and [pre_seconds] reads 0). *)

val run_dense :
  ?ctx:ctx -> built ->
  Pta_sfs.Dense.result * solver_run

val run_unify : ?ctx:ctx -> built -> Pta_andersen.Unify.result * float
(** The unification tier as a measured solver run (result, seconds). *)

val json_of_run : solver_run -> string
(** One JSON object per solver run — the schema behind [bench --json]:
    [seconds], [pre_seconds], [words], [unshared_words], [unique_sets],
    [sets], [props], [pops] and [engine] (a {!Pta_engine.Telemetry.snapshot}
    as emitted by {!Pta_engine.Telemetry.snapshot_to_json}, or [null]). *)

(* Final-result artifacts ------------------------------------------------- *)

val points_to_of_sfs :
  built -> Pta_sfs.Sfs.result -> Pta_store.Artifact.points_to
(** Every variable's final answer: [pt] for top-level variables and the
    flow-insensitive collapse for live objects, extracted in one pass over
    the solver's tables ({!Pta_sfs.Sfs.object_pts}). *)

val points_to_of_vsfs :
  built -> Vsfs_core.Vsfs.result -> Pta_store.Artifact.points_to
(** The same from a VSFS solve ({!Vsfs_core.Vsfs.object_pts}). *)

val save_points_to :
  store:Pta_store.Store.t -> ?label:string -> built -> solver:string ->
  Pta_store.Artifact.points_to -> unit

val load_points_to :
  store:Pta_store.Store.t -> built -> solver:string ->
  Pta_store.Artifact.points_to option
(** The final points-to summary under stage ["results-<solver>"]; a hit
    lets a client skip the solve (and everything before it) entirely. *)

val time : (unit -> 'a) -> 'a * float
