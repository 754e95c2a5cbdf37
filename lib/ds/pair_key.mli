(** Packed pair keys: two ids in one [int], and hash tables over them.

    The solvers key most of their tables by a pair of small ids — (node,
    object), (object, version), (set id, set id). Packing the pair into one
    [int] avoids a tuple allocation per lookup, and {!Tbl} replaces the
    polymorphic hash and compare of a plain [Hashtbl] with one multiply and
    an integer equality. *)

val bits : int
(** Width of each half (31). *)

val limit : int
(** [2^bits]. *)

val pack : int -> int -> int
(** [pack a b] is [(a lsl bits) lor b]. Raises [Invalid_argument] when
    either half is negative or at least {!limit}. *)

val unpack : int -> int * int
(** Inverse of {!pack}. *)

val hi : int -> int
(** First half of a packed key. *)

val lo : int -> int
(** Second half of a packed key. *)

module Tbl : Hashtbl.S with type key = int
(** Hash tables keyed by packed pairs (or by any non-negative [int]). The
    hash mixes both halves, so keys that share one half still spread over
    the buckets. Iteration order differs from a polymorphic [Hashtbl]'s:
    callers that export or print must sort or fold order-free. *)
