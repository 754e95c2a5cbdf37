(* Counters are domain-local ([Domain.DLS]): each worker domain of a
   parallel batch counts into its own table, lock-free, and the batch
   driver carries worker totals back to the aggregating domain explicitly
   ([snapshot] in the task, [merge] at the join). Aggregates are therefore
   sums of per-task snapshots — independent of which domain ran which task,
   which is what keeps `--jobs 1` and `--jobs N` reports identical. *)
let dls_table : (string, int ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let table () = Domain.DLS.get dls_table

let counter name =
  let table = table () in
  match Hashtbl.find_opt table name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add table name r;
    r

let incr name = Stdlib.incr (counter name)
let add name n = counter name := !(counter name) + n
let get name = !(counter name)

(* Zero every registered counter but keep the registrations, so a ref
   taken with [counter] before the reset keeps counting into the table.
   [snapshot] skips zero counters, so a dump after a reset still lists only
   counters touched since. *)
let reset_all () = Hashtbl.iter (fun _ r -> r := 0) (table ())

let snapshot () =
  Hashtbl.fold
    (fun name r acc -> if !r = 0 then acc else (name, !r) :: acc)
    (table ()) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge snap = List.iter (fun (name, n) -> add name n) snap

let pp ppf () =
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-32s %d@." name v)
    (snapshot ())
