(** The differential-oracle tower.

    Each oracle takes mini-C source and returns a verdict. [Rejected] means
    the frontend refused the program with a clean diagnostic
    ([Parse_error]/[Lower_error] — possible for mutated inputs, never a
    finding); [Fail] is a real finding, with [cls] a short stable class tag
    (used by the shrinker to insist on reproducing the {e same} failure) and
    [detail] a human report naming the offending variables/nodes. *)

type outcome =
  | Pass
  | Rejected of string
  | Fail of { cls : string; detail : string }

type t = { name : string; doc : string; check : string -> outcome }

val all : t list
(** The tower, cheap to expensive: ["crash"] (per-stage exception capture
    over parse/lower/mem2reg/validate/andersen), ["andersen"] (wave solver
    vs the naive reference fixpoint, soundness direction distinguished),
    ["equiv"] (Dense = SFS = VSFS bit-equality via {!Vsfs_core.Equiv}),
    ["unify"] (the unification tier bounds Andersen and a unify-seeded
    solve is bit-identical), ["sched"] (every scheduler lands on the same
    fixpoint), ["store"] (cold vs warm-started {!Pta_store} pipeline
    bit-equality, catching cache-staleness and codec bugs), ["par"]
    (worker-domain vs caller-domain bit-equality) and ["serve"] (daemon
    session vs cold batch solve). *)

val find : string -> t option
val names : string list
