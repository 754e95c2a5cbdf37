(** The on-disk analysis store: framed, checksummed, content-addressed blobs.

    Layout: one directory holding [<stage>-<key>.bin] entry files plus a
    [MANIFEST.tsv] index ({!Manifest}). Each entry file is framed as

    {v magic "PTAS" | format version | stage | key | MD5(payload) | payload v}

    (all but the magic in {!Codec} encoding). {!load} verifies the whole
    frame and decodes the payload; any mismatch — truncation, bit rot, a
    different format version, a file renamed across keys, a payload its
    decoder rejects — deletes the entry and reports a miss, so corruption
    degrades to recomputation, never to wrong results. Writes go
    through a uniquely named temp file (pid + counter, so concurrent
    writers never share an inode) published by one atomic [rename]: a crash
    mid-write leaves either the old entry or none, and a reader racing any
    number of writers — parallel batch jobs share one store — only ever
    opens a complete frame. In-process manifest updates serialise on an
    internal lock; a cross-process manifest race can at worst drop index
    lines, which {!gc} rebuilds from the frames.

    Keys come from {!key}: the hex digest of the {!format_version}, the
    stage name and every input that determines the artifact (source bytes
    first among them). Stale entries are therefore never addressed.

    All operations bump {!Pta_ds.Stats} counters ([store.hits],
    [store.misses], [store.corrupt], [store.writes], and per-stage
    [store.hit.<stage>] / [store.miss.<stage>]) so [--stats] output shows
    cache behaviour.

    Cross-process safety: manifest updates additionally take an advisory
    [lockf] region on [MANIFEST.lock], so a resident [vsfs serve] daemon
    and a concurrent [vsfs cache gc] (or another daemon) sharing one store
    cannot interleave read-modify-write cycles and drop each other's index
    lines; [gc] also leaves temp files younger than a minute alone, since
    they may be a live writer's in-flight frame rather than a crashed
    one's. *)

val format_version : int
(** The version written into frame headers and folded into every {!key}
    (3: block-pooled set pools), and the only one {!load} accepts. Bump on
    any {!Codec}/{!Artifact} encoding change. *)

type t

val open_ : string -> t
(** Opens (creating directories as needed) the store rooted at the path.
    Raises [Failure] if the path exists and is not a directory. *)

val dir : t -> string

val key : stage:string -> string list -> string
(** [key ~stage inputs] — the content address: digest of the key
    version, the stage name and the inputs, in that order. *)

val save : t -> stage:string -> key:string -> ?label:string -> string -> unit
(** Atomically write the payload under [(stage, key)], replacing any
    previous entry, and index it in the manifest. [label] is a human hint
    shown by [cache ls]. *)

val load : t -> stage:string -> key:string -> (string -> 'a) -> 'a option
(** [load t ~stage ~key decode] is the verified payload passed through
    [decode], or [None] if the entry is absent, corrupt or version-skewed,
    or [decode] raises {!Codec.Corrupt} (such entries are deleted and
    counted in [store.corrupt]). *)

val ls : t -> Manifest.entry list
(** Indexed entries, oldest first. *)

val gc : t -> kept:int ref -> removed:int ref -> unit
(** Verify every [*.bin] file in the store: delete corrupt or
    version-skewed entries, drop dangling manifest lines, re-index valid
    files the manifest lost track of, and reclaim stale temp files left by
    crashed writers. *)

val clear : t -> int
(** Delete every entry (and the manifest); returns how many files went. *)
