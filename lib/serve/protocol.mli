(** The daemon's wire protocol: length-prefixed binary frames over a Unix
    domain socket.

    Frame layout: {v magic "PTAQ" | varint body length | body v} with the
    varint and every body field in {!Pta_store.Codec} encoding. Bodies are
    tagged unions ({!request} one way, {!reply} the other); one frame
    carries exactly one of them. Anything malformed — wrong magic, runaway
    or oversized length, truncation, an unknown tag, trailing bytes —
    raises {!Pta_store.Codec.Corrupt}; the server answers with {!Error} and
    drops the connection, it never dies. *)

val magic : string

val max_frame : int
(** Hard bound on a frame body (64 MiB): a garbage length prefix must not
    provoke a giant allocation. *)

type tier = Unify | Andersen | Exact
(** The solver lattice's precision/cost ladder, cheapest first. A query
    names the least precise tier it accepts; the daemon answers from that
    tier's snapshot (unification classes / Andersen's flow-insensitive
    sets / the flow-sensitive SFS results) and echoes the tier served. *)

val tier_name : tier -> string

type query =
  | Points_to of string  (** set of objects the named var/object points to *)
  | May_alias of string * string  (** do the two points-to sets intersect *)
  | Points_to_null of string  (** empty points-to set (may be null) *)
  | Callees of string  (** functions bound in the var's points-to set *)

type request =
  | Query of tier * query list  (** batched; answered in order *)
  | Vars  (** every queryable variable/object name *)
  | Report  (** the [analyze] default report: global objects' contents *)
  | Stats  (** daemon/session counters as printable pairs *)
  | Reload of string option  (** re-analyse: same file, or a new path *)
  | Shutdown

type answer =
  | Set of string list
  | Bool of bool
  | Unknown of string  (** no variable of that name *)

type reload_info = {
  r_total : int;
  r_reused : int;  (** functions spliced from the store, not re-solved *)
  r_dirty : int;
  r_scheduled : int;  (** SVFG nodes initially queued *)
  r_pops : int;  (** engine pops the re-solve actually took *)
  r_spliceable : bool;
  r_warm_build : bool;  (** program + Andersen came from the store *)
}

type reply =
  | Answers of tier * answer list  (** the tier that actually answered *)
  | Names of string list
  | Report_r of (string * string list) list
  | Stats_r of (string * string) list
  | Reloaded of reload_info
  | Shutting_down
  | Error of string

val encode_request : request -> string
val decode_request : string -> request
val encode_reply : reply -> string
val decode_reply : string -> reply

val write_frame : Unix.file_descr -> string -> unit
(** Frame and send one body. @raise Invalid_argument beyond {!max_frame}. *)

val read_frame : Unix.file_descr -> string option
(** One frame's body; [None] on clean end-of-stream (peer closed between
    frames). @raise Pta_store.Codec.Corrupt on malformed or truncated
    input. *)
