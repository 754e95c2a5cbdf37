(* Answer digests and the independent query oracle behind the benchmark's
   correctness gate.

   Digests are keyed by names, not variable ids, so they survive changes
   that renumber variables while keeping every answer. *)

module Prog = Pta_ir.Prog
module Bitset = Pta_ds.Bitset
module Artifact = Pta_store.Artifact
module Protocol = Pta_serve.Protocol

(* FNV-1a over the name's bytes, then a 63-bit finaliser. *)
let hash_name s =
  let h = ref 0x0bf29ce484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h

let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

(* Order-independent: a sum over (variable, set) lines of a hash of the
   variable's name and the sum of its elements' name hashes. The non-empty
   line and element counts ride along in clear. *)
let points_to_digest prog (pt : Artifact.points_to) =
  let n = Prog.n_vars prog in
  let nh = Array.init n (fun v -> hash_name (Prog.name prog v)) in
  let total = ref 0 and lines = ref 0 and elems = ref 0 in
  let line tag v s =
    if not (Bitset.is_empty s) then begin
      let h = ref 0 in
      Bitset.iter
        (fun e ->
          h := !h + mix nh.(e);
          incr elems)
        s;
      total := !total + mix ((nh.(v) * 31) + mix (!h + tag));
      incr lines
    end
  in
  for v = 0 to n - 1 do
    line 1 v pt.Artifact.top.(v);
    line 2 v pt.Artifact.obj.(v)
  done;
  Printf.sprintf "%016x:%d:%d" (!total land max_int) !lines !elems

(* The rows of [vsfs analyze]'s default report (and of the daemon's
   [Report]): non-empty contents of global objects, in variable order. *)
let report_rows prog (pt : Artifact.points_to) =
  let rows = ref [] in
  Prog.iter_vars prog (fun v ->
      if Prog.is_object prog v && Prog.obj_kind prog v = Prog.Global then begin
        let s = pt.Artifact.obj.(v) in
        if not (Bitset.is_empty s) then
          rows :=
            (Prog.name prog v, List.map (Prog.name prog) (Bitset.elements s))
            :: !rows
      end);
  List.rev !rows

let report_digest rows =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun (n, l) -> n ^ ": " ^ String.concat " " l) rows)))

let var_names prog =
  let acc = ref [] in
  Prog.iter_vars prog (fun v -> acc := Prog.name prog v :: !acc);
  List.rev !acc

(* Query semantics written out independently of the daemon: an object's
   answer is its contents, a variable's its top-level set, and a repeated
   name resolves to its last variable. *)
let oracle prog (pt : Artifact.points_to) =
  let names = Hashtbl.create 256 in
  Prog.iter_vars prog (fun v -> Hashtbl.replace names (Prog.name prog v) v);
  let set_of v =
    if Prog.is_object prog v then pt.Artifact.obj.(v) else pt.Artifact.top.(v)
  in
  fun q ->
    let resolve n k =
      match Hashtbl.find_opt names n with
      | None -> Protocol.Unknown n
      | Some v -> k v
    in
    match q with
    | Protocol.Points_to n ->
      resolve n (fun v ->
          Protocol.Set (List.map (Prog.name prog) (Bitset.elements (set_of v))))
    | Protocol.May_alias (x, y) ->
      resolve x (fun vx ->
          resolve y (fun vy ->
              Protocol.Bool (Bitset.intersects (set_of vx) (set_of vy))))
    | Protocol.Points_to_null n ->
      resolve n (fun v -> Protocol.Bool (Bitset.is_empty (set_of v)))
    | Protocol.Callees n ->
      resolve n (fun v ->
          Protocol.Set
            (Bitset.fold
               (fun o acc ->
                 match Prog.is_function_obj prog o with
                 | Some f -> (Prog.func prog f).Prog.fname :: acc
                 | None -> acc)
               (set_of v) []))

let render_answer = function
  | Protocol.Set l -> "S:" ^ String.concat "," (List.sort compare l)
  | Protocol.Bool b -> if b then "T" else "F"
  | Protocol.Unknown n -> "U:" ^ n

(* Digest of one cycle's answers, in request order. *)
let answers_digest answers =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map render_answer answers)))

(* VmHWM / VmRSS of a process, in MiB, from /proc/<pid>/status. *)
let proc_status_mb ?(pid = "self") field =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l ->
          let p = field ^ ":" in
          if String.length l > String.length p
             && String.sub l 0 (String.length p) = p
          then
            Scanf.sscanf
              (String.sub l (String.length p) (String.length l - String.length p))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          else go ()
      in
      go ())
