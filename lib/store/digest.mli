(** Content hashing for the analysis store.

    Cache entries are keyed by a hex digest of everything that determines
    their contents: the source bytes, the stage name and its parameters, and
    the on-disk format version ({!Store.format_version}). Any change to an
    input therefore changes the key, so stale entries are never *found* —
    they simply stop being addressed ([vsfs cache clear] drops them).

    MD5 (the OCaml standard library's [Digest]) is used: this is an
    integrity/addressing checksum against truncation, bit rot and version
    skew, not an adversarial boundary — the cache directory is as trusted as
    the analysis binary itself. *)

val hex : string -> string
(** 32-character lowercase hex MD5 of the bytes. *)

val combine : string list -> string
(** Digest of the parts, NUL-separated so part boundaries are unambiguous
    ([combine ["ab"; "c"] <> combine ["a"; "bc"]). *)
