(** Hash-consed, immutable points-to sets with memoized set operations.

    A value of type {!t} is a small integer id into a domain-local intern
    pool of canonical sets: structurally equal sets share one id and one
    heap representation, so equality is [Int.equal] and a set duplicated
    across thousands of (node, object) or (object, version) slots is stored
    exactly once. The hot operations — {!add}, {!union}, {!union_delta} and
    {!diff} — are memoized by operand id, with hit/miss counts published
    through {!Stats} under ["ptset.add_hits"], ["ptset.add_misses"],
    ["ptset.union_hits"], ["ptset.union_misses"], ["ptset.delta_hits"],
    ["ptset.delta_misses"], ["ptset.diff_hits"], ["ptset.diff_misses"] and
    ["ptset.interned"].

    Ids and elements must stay below {!key_limit} [= 2^31] (checked —
    [Invalid_argument] otherwise) so operand pairs pack into single-int
    memo keys. *)

type t = private int
(** An interned set. Ids are only meaningful against the current pool
    generation (see {!reset}) {e of the current domain}: the pool and every
    memo table live in domain-local storage ([Domain.DLS]), so each worker
    domain of a parallel batch owns a private, lock-free generation. Never
    ship a [t] (or a closure capturing one) to another domain — convert to
    {!Bitset.t} ({!view} + copy, or {!elements}) at the boundary. *)

(** {2 Construction and operations} *)

val empty : t
(** The empty set; always id 0. *)

val singleton : int -> t
val of_list : int list -> t

val of_bitset : Bitset.t -> t
(** Intern a copy of [s]; the argument is not retained and may be mutated
    freely afterwards. *)

val view : t -> Bitset.t
(** The canonical bitset behind an id — the pooled value itself, shared by
    every holder of the id: treat it as read-only, since mutating it
    corrupts the pool. Ids are not tagged with their generation: only an id
    at or past the current generation's {!n_unique} raises
    [Invalid_argument]; a stale id from a previous generation (see
    {!reset}) or another domain that happens to be in range silently names
    whatever set now has that number. *)

val is_empty : t -> bool
val mem : t -> int -> bool
val equal : t -> t -> bool
val hash : t -> int

val compare_id : t -> t -> int
(** Total order on ids (creation order), {e not} a structural order. *)

val add : t -> int -> t
(** [add s x] is the set [s ∪ {x}] — [s] itself when [x ∈ s]. Memoized. *)

val union : t -> t -> t
(** Memoized (commutative — one cache entry per unordered pair), with
    subset fast paths that return an existing id without allocating. *)

val union_delta : t -> t -> t * t
(** [union_delta a b] is [(union a b, d)] where [d] is the interned set of
    elements of [b] not already in [a] — exactly what a difference-
    propagating solver must forward to users when [a] grows by [b].
    [d = empty] iff the union left [a] unchanged. Memoized on the ordered
    pair, sharing union results with {!union}'s cache. *)

val diff : t -> t -> t
(** Memoized on the ordered pair. *)

val inter : t -> t -> t

val subset : t -> t -> bool
val cardinal : t -> int
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'acc -> 'acc) -> t -> 'acc -> 'acc
val elements : t -> int list
val choose : t -> int option

(** {2 Packed memo keys} *)

val key_bits : int
(** Width of each half of a packed memo key ({!Pair_key.bits}, 31). *)

val key_limit : int
(** [2^key_bits]. Ids and elements at or above this are rejected with
    [Invalid_argument] by every memoized operation (~2·10⁹). *)

(** {2 Pool accounting} *)

val words : t -> int
(** Heap words of the canonical bitset (counted once per unique set,
    however many ids reference it — see {!Tally}). *)

val n_unique : unit -> int
(** Number of distinct sets interned since the last {!reset}. *)

val pool_words : unit -> int
(** Total heap words of all canonical sets in the pool. *)

val reset : unit -> unit
(** Drop the current domain's pool and every memo cache, starting a fresh
    generation (other domains' generations are untouched). Outstanding
    ids become invalid (previously obtained {!view}s remain valid plain
    bitsets). Only for tests and per-task batch isolation — never call it
    while any solver result is still alive. *)

val pp : Format.formatter -> t -> unit

val check_pool : unit -> (unit, string) result
(** The calling domain's pool invariant: every interned set re-interns to
    its own id, and every {!add}, {!union}, {!union_delta} and {!diff} memo
    entry equals a fresh {!Bitset} recomputation from its operands — which
    catches packed-key collisions, stale entries and mutated pool values.
    [Error] names the first violation found. Walks the whole pool and every
    memo table: a test and fuzzing check, not a solver-loop one. *)

(** Accumulates the memory footprint of a result that references interned
    sets from many slots: visit every reference, then read off the number
    of distinct sets, the structure-shared footprint (each unique set once
    plus one word per reference) and the unshared footprint a per-slot
    materialisation would have cost. *)
module Tally : sig
  type ptset := t
  type t

  val create : unit -> t
  val visit : t -> ptset -> unit
  val unique : t -> int
  val refs : t -> int

  val shared_words : t -> int
  (** Σ words of distinct sets + one word per visited reference. *)

  val unshared_words : t -> int
  (** Σ words over {e all} visited references — the pre-interning cost. *)
end
