(* Spans around the benchmark's calls into each layer.

   A span has a name, start and end (wall seconds), the words the Gc
   allocated while it was open, its parent span and the id of the operation
   (one analysed program, one reload) it belongs to. Spans are kept in
   memory and rendered once, at the end of the process. With tracing off,
   [span] is a plain call; [op] still times the whole operation, because
   that duration is the untraced end-to-end figure. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 for an operation's root span *)
  t0 : float;
  t1 : float;
  words : float;  (* minor + major - promoted, while the span was open *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let next_op = ref 0
let stack : (int * int) list ref = ref []  (* (span id, op id), innermost first *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record name op parent f =
  let id = !next_id in
  incr next_id;
  stack := (id, op) :: !stack;
  let w0 = allocated () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let words = allocated () -. w0 in
    stack := List.tl !stack;
    spans := { id; name; op; parent; t0; t1; words } :: !spans;
    t1 -. t0
  in
  match f () with
  | x -> (x, finish ())
  | exception e ->
    ignore (finish ());
    raise e

(* [op name f] runs [f] as a new operation and returns its result and wall
   seconds. *)
let op name f =
  if not !enabled then begin
    let t0 = now () in
    let x = f () in
    (x, now () -. t0)
  end
  else begin
    let o = !next_op in
    incr next_op;
    record name o (-1) f
  end

let span name f =
  if not !enabled then f ()
  else
    match !stack with
    | [] -> fst (op name f)
    | (parent, o) :: _ -> fst (record name o parent f)

let to_json () =
  let base =
    List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
  in
  "["
  ^ String.concat ","
      (List.rev_map
         (fun s ->
           Printf.sprintf
             "{\"id\":%d,\"name\":\"%s\",\"op\":%d,\"parent\":%d,\
              \"start\":%.6f,\"end\":%.6f,\"words\":%.0f}"
             s.id s.name s.op s.parent (s.t0 -. base) (s.t1 -. base) s.words)
         !spans)
  ^ "]"
