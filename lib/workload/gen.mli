(** Deterministic mini-C program generator.

    Stands in for the paper's 15 open-source benchmark programs (we cannot
    ship LLVM bitcode of coreutils, bash, etc.). The generator produces
    mini-C source with the traits that drive the costs the paper measures:
    heap-allocating builder functions that link structures through stores,
    walker functions with load-heavy loops (many instructions consuming the
    same object state — the single-object redundancy VSFS removes), shared
    global pools touched across deep call chains (which blow up SFS's
    per-call-boundary IN/OUT duplication), and function-pointer dispatch
    (exercising δ nodes / on-the-fly call-graph resolution).

    Same config (including [seed]) → byte-identical source. *)

type config = {
  seed : int;
  n_functions : int;  (** besides [main] *)
  n_globals : int;  (** shared data globals *)
  n_fp_globals : int;  (** function-pointer globals (dispatch) *)
  locals_per_fn : int;
  stmts_per_fn : int;
  max_depth : int;  (** if/while nesting *)
  heap_ratio : float;  (** P(malloc) vs & of a local, at initialisation *)
  load_bias : float;  (** weight of loads vs stores — redundancy lever *)
  field_ratio : float;  (** share of pointer ops going through fields *)
  indirect_ratio : float;  (** share of calls through function pointers *)
  call_density : float;  (** expected calls per function *)
  recursion_ratio : float;  (** share of calls allowed to go backwards *)
  global_traffic : float;  (** share of ops touching the global pool *)
  empty_fn_ratio : float;
      (** P(a function is empty: no locals, no statements) — degenerate
          CFGs and mod/ref sets. Adversarial lever (defaults 0; only
          {!Pta_fuzz} turns it on — likewise for the five below). *)
  dead_block_ratio : float;
      (** share of statements that are guarded stores into a write-only
          global sink ([gdead]) — definitions flowing nowhere *)
  mutual_recursion_ratio : float;
      (** share of calls targeting self or the immediate predecessor,
          closing tight call-graph cycles *)
  null_reset_ratio : float;
      (** share of statements that null a pointer then re-point it
          (realloc-style re-stores; strong-update stress) *)
  chain_depth : int;  (** max depth of [p->f->g->...] load chains (0 = off) *)
  phi_fanin : int;
      (** max width of if/else cascades assigning one variable — PHI
          fan-in at the join (0 = off) *)
}

val default : config

val clamp : config -> config
(** Totalisation: clamp negative/oversized counts and out-of-range or NaN
    ratios into the generator's valid domain. Identity on valid configs;
    {!source} and {!small_random} apply it, so hostile configs degrade to
    their nearest valid neighbour instead of crashing the generator or
    emitting references to undeclared globals. *)

val source : config -> string
(** The generated mini-C program text ([main] included). *)

val loc : string -> int
(** Non-blank lines of code of a source string (the paper's LOC metric). *)

val small_random : int -> config
(** A small config fuzzed from the given seed, for property-based
    differential testing (programs of a few hundred LOC). *)
