(** The deterministic fuzz-campaign driver.

    Each case derives its own seed from the campaign seed and case index,
    picks a generation mode (plain {!Pta_workload.Gen.small_random} config,
    adversarial config with the edge-case levers up, or an AST mutant of a
    generated program), and walks the {!Oracle} tower cheap-to-expensive.
    The first failing oracle triggers {!Shrink.minimize} and, when a corpus
    directory is configured, persists the reproducer via {!Corpus.save}.
    A case no oracle failed ends with {!Pta_ds.Ptset.check_pool} on the
    pool its oracles shared; a violation is reported as a failure of
    oracle ["pool"], class ["pool-invariant"], unshrunk.

    Determinism contract (tested): the same [config] produces the same
    {!report} and the same {!report_to_string} bytes — reports carry no
    wall-clock data, and all randomness flows from the campaign seed.
    The contract extends across parallelism: cases fan out over a
    {!Pta_par.Pool} of [jobs] worker domains (each case re-derives its seed
    from its index and runs against domain-local solver state), and the
    join folds outcomes in case order, so every [jobs] count prints the
    same bytes. *)

type config = {
  runs : int;
  seed : int;
  max_shrink_steps : int;
  oracle : string option;  (** [None] = the whole tower *)
  corpus_dir : string option;  (** persist shrunk reproducers here *)
}

val default : config
(** 100 runs, seed 1, 200 shrink steps, whole tower, no persistence. *)

type failure = {
  case : int;
  case_seed : int;
  oracle_name : string;
  cls : string;
  detail : string;
  shrunk_loc : int;
  shrink_steps : int;
  corpus_path : string option;
}

type report = {
  cfg : config;
  cases : int;
  rejected : int;  (** mutants the frontend cleanly refused *)
  gen_cases : int;
  adversarial_cases : int;
  mutant_cases : int;
  total_loc : int;
  failures : failure list;
}

val run : ?jobs:int -> config -> (report, string) result
(** [Error] only for an unknown oracle name. [jobs] (default 1) sizes the
    worker-domain pool; it never changes the report, only the wall-clock. *)

val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string
