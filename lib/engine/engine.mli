(** The generic fixpoint engine every solver runs on.

    A solver supplies a [process : node -> node list] transfer step (returns
    the nodes whose inputs grew and must be (re)visited) and a
    {!Scheduler.t}; the engine owns the worklist loop — deduplicated pushes,
    pops in the policy's order, budget checks, telemetry. [process] must be
    monotone for termination: re-processing a node with unchanged inputs
    must return [[]] eventually.

    Budgets make adversarial inputs fail fast instead of hanging:
    [run ~budget] gives up after [max_steps] pops or [max_seconds] of wall
    time and raises {!Exhausted}. The partial state is not an answer and
    cannot be resumed; a caller that must stay available keeps its previous
    result. *)

type budget = { max_steps : int option; max_seconds : float option }

val unlimited : budget
val step_budget : int -> budget
val time_budget : float -> budget

exception Exhausted
(** The budget ran out with work still queued. *)

type t

val create :
  ?telemetry:Telemetry.phase ->
  scheduler:Scheduler.t ->
  process:(int -> int list) ->
  unit ->
  t

val push : t -> int -> unit
(** Seed (or re-seed) a node. Deduplicated; counted in telemetry. *)

val run : ?budget:budget -> t -> unit
(** Pops and processes until the worklist drains (default {!unlimited}).
    The telemetry phase records the pops and wall time either way.
    @raise Exhausted when the budget runs out first. *)
