(** The store's human-greppable index: one TSV line per entry.

    The manifest is advisory — the entry files themselves are authoritative
    ({!Store.load} verifies their framed checksums) — but it is what
    [vsfs cache ls] prints and what [gc] uses to find candidates, so
    {!Store} keeps it in sync on every save and delete. A missing or
    partially unreadable manifest degrades gracefully: unparseable lines
    are skipped and the file is rebuilt on the next write. *)

type entry = {
  stage : string;  (** pipeline stage ("prog", "andersen", "svfg", ...) *)
  key : string;  (** content hash, {!Digest.combine} hex *)
  file : string;  (** basename of the entry file within the store dir *)
  bytes : int;  (** payload + frame size on disk *)
  created : float;  (** Unix time of the write *)
  label : string;  (** human hint (source file / benchmark name); may be "" *)
}

val load : string -> entry list
(** Parse the manifest at the path; [[]] if absent; malformed lines
    (anything but six TSV columns) are dropped silently. *)

val save : string -> entry list -> unit
(** Atomically (temp file + rename) rewrite the manifest. *)

val add : string -> entry -> unit
(** Load, replace any entry with the same [(stage, key)], append, save. *)

val remove : string -> (entry -> bool) -> unit
(** Load, drop entries satisfying the predicate, save. *)
