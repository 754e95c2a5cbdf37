(* The daemon workload's script: one-function edits, the same in every
   run, and a query mix drawn per (variant, cycle). The edits fix what a
   reload costs; the variant only changes which names are asked about. *)

module Protocol = Pta_serve.Protocol

let rng ~variant ~cycle tag = Random.State.make [| 0x5eed; variant; cycle; tag |]

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let globals lines =
  Array.to_list lines
  |> List.filter_map (fun l ->
         if starts_with "global " l then
           let rest = String.sub l 7 (String.length l - 7) in
           let stop =
             match (String.index_opt rest ' ', String.index_opt rest ';') with
             | Some a, Some b -> min a b
             | Some a, None | None, Some a -> a
             | None, None -> String.length rest
           in
           Some (String.sub rest 0 stop)
         else None)
  |> Array.of_list

let edit_fn k = Printf.sprintf "func pbe%d(q) {" k

(* Cycle [cycle]'s edit touches exactly one function, and only one of the
   functions the script itself appended: either a new one, or one more
   statement — a fresh local reading a seeded global — in a seeded pick of
   the earlier ones. Nothing calls these functions, so the edit dirties
   that function alone. Editing one of the program's own functions instead
   dirties every function here (the generated call graph is one dependency
   closure), which would measure a cold solve, not a reload. *)
let apply ~cycle src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let owned =
    Array.to_list lines
    |> List.filter (starts_with "func pbe")
    |> Array.of_list
  in
  let gs = globals lines in
  if Array.length gs = 0 then invalid_arg "Edits.apply: no globals";
  let st = rng ~variant:0 ~cycle 1 in
  let g = gs.(Random.State.int st (Array.length gs)) in
  let stmt = Printf.sprintf "  var v%d;\n  v%d = %s;" cycle cycle g in
  if Array.length owned = 0 || Random.State.int st 4 = 0 then
    String.concat "\n"
      [ src; edit_fn cycle; "  var t;"; "  t = *q;"; stmt; "  return;"; "}"; "" ]
  else begin
    let header = owned.(Random.State.int st (Array.length owned)) in
    let out = Buffer.create (String.length src + 64) in
    let inside = ref false in
    Array.iteri
      (fun i l ->
        if l = header then inside := true;
        if !inside && l = "  return;" then begin
          Buffer.add_string out stmt;
          Buffer.add_char out '\n';
          inside := false
        end;
        Buffer.add_string out l;
        if i < Array.length lines - 1 then Buffer.add_char out '\n')
      lines;
    Buffer.contents out
  end

(* Cycle [cycle]'s queries over the names [Vars] returned: half
   [Points_to], a quarter each [May_alias] and [Callees]. *)
let queries ~variant ~cycle ~count names =
  let names = Array.of_list names in
  let st = rng ~variant ~cycle 2 in
  let pick () = names.(Random.State.int st (Array.length names)) in
  List.init count (fun _ ->
      match Random.State.int st 4 with
      | 0 | 1 -> Protocol.Points_to (pick ())
      | 2 ->
        let a = pick () in
        Protocol.May_alias (a, pick ())
      | _ -> Protocol.Callees (pick ()))
