(* Structured per-phase counters for engine runs, replacing the scattered
   global [Stats.incr] calls the solver loops used to make. A [phase] is one
   solver activation ("sfs.solve", "andersen.solve", ...); the engine
   updates its push/pop counts, the solver adds named extras through
   cached [counter] refs (no hashing on the hot path). *)

type phase = {
  name : string;
  mutable pushes : int;  (* accepted engine pushes *)
  mutable dups : int;  (* pushes dropped because the node was queued *)
  mutable pops : int;  (* process() invocations *)
  mutable grew : int;  (* pops that returned successor work *)
  mutable wall : float;  (* seconds inside Engine.run *)
  extras : (string, int ref) Hashtbl.t;
}

type t = { mutable phases : phase list; mutable count : int }

(* The default sink backs the CLI's [--stats] report. Solves registering
   phases are unbounded over a process lifetime (the fuzzer runs thousands),
   so the sink keeps only the most recent [cap]. The sink is domain-local
   ([Domain.DLS]): worker domains of a parallel batch record into private
   sinks, so concurrent solves never interleave phase lists; a batch driver
   that wants a worker's phases carries [snapshot]s (plain data) back at the
   join. *)
let cap = 64

let create () = { phases = []; count = 0 }

let dls_global = Domain.DLS.new_key create
let global () = Domain.DLS.get dls_global

let reset t =
  t.phases <- [];
  t.count <- 0

let truncate t =
  if t.count > cap then begin
    t.phases <- List.filteri (fun i _ -> i < cap) t.phases;
    t.count <- cap
  end

let phase ?sink ~name () =
  let sink = match sink with Some s -> s | None -> global () in
  let p =
    { name; pushes = 0; dups = 0; pops = 0; grew = 0; wall = 0.;
      extras = Hashtbl.create 8 }
  in
  sink.phases <- p :: sink.phases;
  sink.count <- sink.count + 1;
  truncate sink;
  p

let phases t = List.rev t.phases

let counter p name =
  match Hashtbl.find_opt p.extras name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add p.extras name r;
    r

let bump p name n =
  let r = counter p name in
  r := !r + n

let extra p name =
  match Hashtbl.find_opt p.extras name with Some r -> !r | None -> 0

(* ---------------- immutable snapshots (bench JSON) ---------------- *)

type snapshot = {
  phase : string;
  s_pushes : int;
  s_dups : int;
  s_pops : int;
  s_grew : int;
  s_wall : float;
  s_extras : (string * int) list;  (* sorted by key *)
}

let snapshot p =
  {
    phase = p.name;
    s_pushes = p.pushes;
    s_dups = p.dups;
    s_pops = p.pops;
    s_grew = p.grew;
    s_wall = p.wall;
    s_extras =
      List.sort compare
        (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) p.extras []);
  }

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let snapshot_to_json s =
  let extras =
    String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v)
         s.s_extras)
  in
  Printf.sprintf
    "{\"phase\": \"%s\", \"pushes\": %d, \"dups\": %d, \"pops\": %d, \
     \"grew\": %d, \"wall_seconds\": %.6f, \"extras\": {%s}}"
    (json_escape s.phase) s.s_pushes s.s_dups s.s_pops s.s_grew s.s_wall
    extras

let pp_phase ppf p =
  let s = snapshot p in
  Format.fprintf ppf
    "%-16s pushes=%d dups=%d pops=%d grew=%d wall=%.4fs" s.phase s.s_pushes
    s.s_dups s.s_pops s.s_grew s.s_wall;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) s.s_extras

let pp ppf t =
  List.iter (fun p -> Format.fprintf ppf "%a@." pp_phase p) (phases t)
