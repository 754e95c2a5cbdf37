(** Steensgaard-style unification-based points-to analysis — the cheapest
    tier of the solver lattice.

    {!solve} runs the classic near-linear analysis: one abstract pointee
    class per equivalence class, assignments unify pointees. Field
    address-of stays offset-aware — it binds the interned field object per
    (base, offset) rather than smashing fields into their base — which is
    what keeps classes from oversharing. The result is a sound
    over-approximation of Andersen (and hence of SFS/VSFS); it is never
    used for final answers, only as the cheap tier of [vsfs serve] and as
    a fuzzing oracle bound. Runs after Andersen and never allocates
    variables: unknown field objects fall back to their base object. *)

type t
type result = t

val solve : Pta_ir.Prog.t -> t

val pts : t -> Pta_ir.Inst.var -> Pta_ds.Bitset.t
(** Object members of [v]'s pointee class (empty when [v] was never a
    pointer). Shared across the class — do not mutate. *)

val points_to : t -> Pta_ir.Inst.var -> Pta_ir.Inst.var -> bool

val merges : t -> int
val passes : t -> int

val telemetry : t -> Pta_engine.Telemetry.phase
(** Phase ["unify.solve"] (extras [merges], [passes]). *)
