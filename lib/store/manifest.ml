type entry = {
  stage : string;
  key : string;
  file : string;
  bytes : int;
  created : float;
  label : string;
}

(* labels come from user-supplied paths; keep the TSV one entry per line *)
let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let parse_line line =
  match String.split_on_char '\t' line with
  | [ stage; key; file; bytes; created; label ] -> (
    match (int_of_string_opt bytes, float_of_string_opt created) with
    | Some bytes, Some created ->
      Some { stage; key; file; bytes; created; label }
    | _ -> None)
  | _ -> None

let load path =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] in
        (try
           while true do
             match parse_line (input_line ic) with
             | Some e -> entries := e :: !entries
             | None -> ()
           done
         with End_of_file -> ());
        List.rev !entries)

(* Unique temp name per writer (pid + atomic counter) so two processes
   updating the same manifest never stream into one inode; the final
   [rename] is the atomic publication point. *)
let tmp_counter = Atomic.make 0

let save path entries =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun e ->
          Printf.fprintf oc "%s\t%s\t%s\t%d\t%.6f\t%s\n" (sanitize e.stage)
            (sanitize e.key) (sanitize e.file) e.bytes e.created
            (sanitize e.label))
        entries);
  Sys.rename tmp path

let add path e =
  let entries =
    List.filter (fun x -> x.stage <> e.stage || x.key <> e.key) (load path)
  in
  save path (entries @ [ e ])

let remove path pred =
  save path (List.filter (fun e -> not (pred e)) (load path))
