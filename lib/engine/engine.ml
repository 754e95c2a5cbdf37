type budget = { max_steps : int option; max_seconds : float option }

let unlimited = { max_steps = None; max_seconds = None }
let step_budget n = { max_steps = Some n; max_seconds = None }
let time_budget s = { max_steps = None; max_seconds = Some s }

exception Exhausted

type t = {
  sched : Scheduler.t;
  process : int -> int list;
  tel : Telemetry.phase option;
}

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

let run ?(budget = unlimited) t =
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun s -> t0 +. s) budget.max_seconds in
  let steps = ref 0 in
  (* Checked before each pop: an exhausted run stops with the node it would
     have processed next still queued. *)
  let exhausted () =
    (match budget.max_steps with Some m -> !steps >= m | None -> false)
    || (match deadline with
       | Some d -> Unix.gettimeofday () > d
       | None -> false)
  in
  (* true: the worklist drained *)
  let rec loop () =
    if exhausted () && not (Scheduler.is_empty t.sched) then false
    else
      match Scheduler.pop t.sched with
      | None -> true
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
  let drained = loop () in
  (match t.tel with
  | Some p ->
    p.Telemetry.wall <- p.Telemetry.wall +. (Unix.gettimeofday () -. t0)
  | None -> ());
  if not drained then raise Exhausted
