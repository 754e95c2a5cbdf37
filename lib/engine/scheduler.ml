open Pta_ds

type t = Fifo of Worklist.Fifo.t | Prio of Worklist.Prio.t

let fifo () = Fifo (Worklist.Fifo.create ())
let topo ~rank = Prio (Worklist.Prio.create ~priority:rank ())

let push t x =
  match t with
  | Fifo w -> Worklist.Fifo.push w x
  | Prio w -> Worklist.Prio.push w x

let pop t =
  match t with Fifo w -> Worklist.Fifo.pop w | Prio w -> Worklist.Prio.pop w

let length t =
  match t with
  | Fifo w -> Worklist.Fifo.length w
  | Prio w -> Worklist.Prio.length w

let is_empty t =
  match t with
  | Fifo w -> Worklist.Fifo.is_empty w
  | Prio w -> Worklist.Prio.is_empty w
