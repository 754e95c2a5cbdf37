(** Object versions and the meld operator (§IV-B).

    A version denotes the set of prelabels (store sites / δ introductions)
    whose modifications it relies on; melding is set union. Versions are
    hash-consed: a version is an [int], equality is [Int.equal], and each
    distinct label set is represented once — which is what lets many SVFG
    nodes share one points-to set per object.

    The meld operator is commutative, associative, idempotent, and has
    {!epsilon} (the empty label set) as identity; these laws are
    property-tested. *)

type t = int
type table

val create : unit -> table

val epsilon : t
(** The identity version ε: relies on nothing; its points-to set is empty
    forever. *)

val is_epsilon : t -> bool

val fresh : table -> t
(** A brand-new prelabel (a singleton label set). *)

val meld : table -> t -> t -> t
(** κ₁ ⊙ κ₂. O(set size) on first encounter, memoised afterwards. *)

val labels : table -> t -> int list
(** The underlying prelabel ids (sorted).
    @raise Invalid_argument after {!seal}. *)

val seal : table -> unit
(** Releases the label sets and meld memo. After meld labelling the solver
    compares versions only by id, so the sets are dead weight (a large share
    of memory on big programs; cf. the paper's §V-B remark on the
    off-the-shelf SparseBitVector representation). {!meld} and {!labels}
    raise afterwards; {!n_versions} keeps reporting the sealed count. *)

val n_versions : table -> int
(** Distinct versions created so far (including ε). *)

val import_sealed : n_prelabels:int -> n_versions:int -> table
(** A sealed table restored from recorded counts, for deserializing a
    versioning result ({!Pta_store}): after meld labelling the solver only
    compares version ids, so a sealed table is fully described by its counts.
    [n_versions] includes ε (so it is ≥ 1). @raise Invalid_argument on
    negative counts. *)

val n_prelabels : table -> int

val words : table -> int
(** Approximate memory footprint of the version table in words. *)

val pp : table -> Format.formatter -> t -> unit
