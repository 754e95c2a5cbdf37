open Pta_ds

type strategy = [ `Fifo | `Lifo | `Topo | `Lrf ]

let name = function
  | `Fifo -> "fifo"
  | `Lifo -> "lifo"
  | `Topo -> "topo"
  | `Lrf -> "lrf"

let all : strategy list = [ `Fifo; `Lifo; `Topo; `Lrf ]
let assoc = List.map (fun s -> (name s, s)) all

let of_name n =
  List.find_opt (fun s -> name s = n) all

type t =
  | Fifo of Worklist.Fifo.t
  | Lifo of Worklist.Lifo.t
  | Prio of Worklist.Prio.t
  | Lrf of lrf

and lrf = {
  prio : Worklist.Prio.t;
  stamps : (int, int) Hashtbl.t;  (* node -> last-fired clock tick *)
  mutable clock : int;
}

let make ?rank (strategy : strategy) =
  match strategy with
  | `Fifo -> Fifo (Worklist.Fifo.create ())
  | `Lifo -> Lifo (Worklist.Lifo.create ())
  | `Topo ->
    let rank =
      match rank with
      | Some r -> r
      | None -> invalid_arg "Scheduler.make: `Topo requires a ~rank function"
    in
    Prio (Worklist.Prio.create ~priority:rank ())
  | `Lrf ->
    (* Least-recently-fired: rank = the clock tick of the node's last pop
       (0 = never fired), so starved nodes surface first. [Worklist.Prio]'s
       rank-at-pop revalidation makes the post-pop stamp bump safe for items
       already queued. *)
    let stamps = Hashtbl.create 256 in
    let priority n =
      match Hashtbl.find_opt stamps n with Some s -> s | None -> 0
    in
    Lrf { prio = Worklist.Prio.create ~priority (); stamps; clock = 0 }

let push t x =
  match t with
  | Fifo w -> Worklist.Fifo.push w x
  | Lifo w -> Worklist.Lifo.push w x
  | Prio w | Lrf { prio = w; _ } -> Worklist.Prio.push w x

let pop t =
  match t with
  | Fifo w -> Worklist.Fifo.pop w
  | Lifo w -> Worklist.Lifo.pop w
  | Prio w -> Worklist.Prio.pop w
  | Lrf l -> (
    match Worklist.Prio.pop l.prio with
    | Some x ->
      l.clock <- l.clock + 1;
      Hashtbl.replace l.stamps x l.clock;
      Some x
    | None -> None)

let length t =
  match t with
  | Fifo w -> Worklist.Fifo.length w
  | Lifo w -> Worklist.Lifo.length w
  | Prio w | Lrf { prio = w; _ } -> Worklist.Prio.length w

let is_empty t =
  match t with
  | Fifo w -> Worklist.Fifo.is_empty w
  | Lifo w -> Worklist.Lifo.is_empty w
  | Prio w | Lrf { prio = w; _ } -> Worklist.Prio.is_empty w
