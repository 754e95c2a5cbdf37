(** Function-level incremental re-analysis (the [vsfs serve] reload path).

    Splits the flow-sensitive solve's state along function boundaries and
    content-addresses each function's results by a digest of its
    *dependency closure* — every function whose content can influence its
    values, computed over a superset of the value-flow edges the solver can
    ever exercise (static SVFG edges, top-level def-use, and the auxiliary
    call graph's potential call boundaries). All digests are name-based, so
    they are stable under edits that shift variable/function ids.

    {!run_sfs_spliced} consults the store per function: closure hits are
    seeded verbatim into {!Pta_sfs.Sfs.solve} and never re-processed;
    misses are re-solved against boundary-injected inputs, and their fresh
    artifacts saved. With sound seeds the result is bit-identical to a cold
    {!Pta_sfs.Sfs.solve} — the [serve] fuzz oracle and [test_serve] enforce
    exactly that — while engine pops shrink to the dirty region.

    Every degenerate case (non-unique names, undecodable or missing
    artifacts) falls back towards "more things dirty", never towards wrong
    results. *)

type table
(** Digest table of one built program: per-function local and closure
    digests plus the structural indexes planning needs. Compute on a fresh
    (pre-solve) SVFG — solving mutates the graph. *)

val digest_table : Pipeline.built -> Pta_svfg.Svfg.t -> table option
(** [None] if variable or function names are not unique (splicing needs
    name-keyed identity across program versions). *)

val manifest_funcs : table -> (string * string) list
(** [(function name, closure digest)] per function — the per-function
    digest entries recorded on the program's manifest line. *)

type stats = {
  funcs_total : int;
  funcs_reused : int;  (** closure hits: seeded, not re-processed *)
  funcs_dirty : int;
  scheduled : int;  (** nodes queued initially (whole graph when cold) *)
  spliceable : bool;  (** [false]: name clash, whole-program fallback *)
}

val run_sfs_spliced :
  store:Pta_store.Store.t ->
  ?label:string ->
  Pipeline.built ->
  Pta_svfg.Svfg.t ->
  Pta_sfs.Sfs.result * stats * table option
(** Plan against the store, seed, solve, persist missing per-function
    artifacts (stage ["fnresult"], keyed by closure digest). The SVFG must
    be fresh ({!Pipeline.fresh_svfg}); it is mutated by the solve. The
    returned result is bit-identical to [Sfs.solve] of the same graph. *)
