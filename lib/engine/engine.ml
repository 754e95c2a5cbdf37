type budget = { max_steps : int option; max_seconds : float option }

let unlimited = { max_steps = None; max_seconds = None }
let step_budget n = { max_steps = Some n; max_seconds = None }
let time_budget s = { max_steps = None; max_seconds = Some s }

type t = {
  sched : Scheduler.t;
  process : int -> int list;
  tel : Telemetry.phase option;
}

type outcome = Fixpoint | Paused of t

let create ?telemetry ~scheduler ~process () =
  { sched = scheduler; process; tel = telemetry }

let push t n =
  if Scheduler.push t.sched n then
    match t.tel with
    | Some p -> p.Telemetry.pushes <- p.Telemetry.pushes + 1
    | None -> ()
  else
    match t.tel with
    | Some p -> p.Telemetry.dups <- p.Telemetry.dups + 1
    | None -> ()

let pending t = Scheduler.length t.sched

let run ?(budget = unlimited) t =
  (match t.tel with
  | Some p -> p.Telemetry.runs <- p.Telemetry.runs + 1
  | None -> ());
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun s -> t0 +. s) budget.max_seconds in
  let steps = ref 0 in
  (* Budgets are per-[run] segment: a resumed engine gets a fresh
     allowance. Checked before each pop, so a paused engine still holds the
     node it would have processed next. *)
  let exhausted () =
    (match budget.max_steps with Some m -> !steps >= m | None -> false)
    || (match deadline with
       | Some d -> Unix.gettimeofday () > d
       | None -> false)
  in
  let rec loop () =
    if exhausted () && not (Scheduler.is_empty t.sched) then Paused t
    else
      match Scheduler.pop t.sched with
      | None -> Fixpoint
      | Some n ->
        incr steps;
        (match t.tel with
        | Some p -> p.Telemetry.pops <- p.Telemetry.pops + 1
        | None -> ());
        (match t.process n with
        | [] -> ()
        | work ->
          (match t.tel with
          | Some p -> p.Telemetry.grew <- p.Telemetry.grew + 1
          | None -> ());
          List.iter (push t) work);
        loop ()
  in
  let outcome = loop () in
  (match t.tel with
  | Some p ->
    p.Telemetry.wall <- p.Telemetry.wall +. (Unix.gettimeofday () -. t0);
    (match outcome with
    | Paused _ -> p.Telemetry.paused <- p.Telemetry.paused + 1
    | Fixpoint -> ())
  | None -> ());
  outcome
