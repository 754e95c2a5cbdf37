(** Structured telemetry for {!Engine} runs.

    Each solver activation opens a {!phase}; the engine maintains the
    push/pop counters and wall time, the solver registers named extras
    ([counter] hands back a cached [int ref] so hot loops pay no hashing).
    Phases live in a sink — default {!global}, which the CLI's [--stats]
    prints and which keeps only the most recent activations (bounded, so
    long fuzzing campaigns don't accumulate). {!snapshot} freezes a phase
    into an immutable record for the bench's JSON output.

    The default sink is domain-local: {!global} returns the calling
    domain's sink ([Domain.DLS]), so parallel batch workers record phases
    privately and cross the domain boundary only via {!snapshot}s. *)

type phase = {
  name : string;  (** e.g. ["vsfs.solve"] *)
  mutable pushes : int;  (** accepted pushes *)
  mutable dups : int;  (** pushes dropped as already-queued *)
  mutable pops : int;  (** process() invocations *)
  mutable grew : int;  (** pops that produced successor work *)
  mutable runs : int;  (** run segments: 1 + number of resumes *)
  mutable paused : int;  (** segments stopped by a budget *)
  mutable wall : float;  (** seconds inside [Engine.run], summed *)
  extras : (string, int ref) Hashtbl.t;
}

type t

val create : unit -> t

val global : unit -> t
(** The calling domain's default sink. *)

val reset : t -> unit

val phase : ?sink:t -> name:string -> unit -> phase
(** Registers (and returns) a fresh phase in [sink] (default {!global}). *)

val phases : t -> phase list
(** Oldest first (most recent activations only — the sink is bounded). *)

val counter : phase -> string -> int ref
(** The named extra's ref, created at zero on first use. *)

val bump : phase -> string -> int -> unit
val extra : phase -> string -> int

type snapshot = {
  phase : string;
  s_pushes : int;
  s_dups : int;
  s_pops : int;
  s_grew : int;
  s_runs : int;
  s_paused : int;
  s_wall : float;
  s_extras : (string * int) list;  (** sorted by key *)
}

val snapshot : phase -> snapshot

val json_escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    quote, backslash and control characters escaped, all other bytes
    verbatim. *)

val snapshot_to_json : snapshot -> string
(** One JSON object: [{"phase": ..., "pushes": n, "dups": n, "pops": n,
    "grew": n, "runs": n, "paused": n, "wall_seconds": s,
    "extras": {...}}]. *)

val pp_phase : Format.formatter -> phase -> unit
val pp : Format.formatter -> t -> unit
