module Pipeline = Pta_workload.Pipeline
module Incr = Pta_workload.Incr
module Store = Pta_store.Store
module Artifact = Pta_store.Artifact
module Pool = Pta_par.Pool
module Sfs = Pta_sfs.Sfs
module Bitset = Pta_ds.Bitset
open Pta_ir

type loaded = {
  l_prog : Prog.t;
  l_names : (string, Inst.var) Hashtbl.t;
  l_snap : Artifact.points_to;
  l_aux_snap : Artifact.points_to;
  l_unify_snap : Artifact.points_to;
  l_vsfs : Vsfs_core.Vsfs.result option;
  l_istats : Incr.stats;
  l_warm : bool;
  l_pops : int;
}

type t = {
  store : Store.t;
  pool : Pool.t;
  with_vsfs : bool;
  mutable path : string;
  mutable prog : Prog.t;
  mutable names : (string, Inst.var) Hashtbl.t;
  mutable snap : Artifact.points_to;
  mutable aux_snap : Artifact.points_to;  (* the andersen tier *)
  mutable unify_snap : Artifact.points_to;  (* the unify tier *)
  mutable vsfs : Vsfs_core.Vsfs.result option;
  mutable loads : int;
  mutable first_pops : int;
  mutable last_info : Protocol.reload_info;
}

let path t = t.path
let vsfs t = t.vsfs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compile_for path src =
  if Filename.check_suffix path ".ir" then Parser.parse src
  else Pta_cfront.Lower.compile src

(* last match wins, matching the CLI's [resolve_query] *)
let name_table prog =
  let names = Hashtbl.create 256 in
  Prog.iter_vars prog (fun v -> Hashtbl.replace names (Prog.name prog v) v);
  names

(* A tier snapshot in the exact snapshot's shape: one set per variable and
   per live object, from a flow-insensitive [pt] (which answers objects'
   contents too, unlike the SFS/VSFS accessor split). *)
let snapshot_of ~prog ~pt =
  let n = Prog.n_vars prog in
  {
    Artifact.top = Array.init n pt;
    obj =
      Array.init n (fun v ->
          if Prog.is_object prog v && not (Prog.is_dead prog v) then pt v
          else Bitset.create ());
  }

let same_points_to (a : Artifact.points_to) (b : Artifact.points_to) =
  Array.length a.Artifact.top = Array.length b.Artifact.top
  && Array.for_all2 Bitset.equal a.Artifact.top b.Artifact.top
  && Array.for_all2 Bitset.equal a.Artifact.obj b.Artifact.obj

(* One code path for cold start and reload: incrementality is purely
   store-hit-driven, so a daemon restart against a warm cache splices just
   like an in-place reload does. Any failure — unreadable file, parse or
   lowering error, validation, even a solver invariant trip — is reported
   without touching the previous session state. *)
let load ~store ~with_vsfs path =
  match
    let src = read_file path in
    let ctx = Pipeline.context ~store ~label:path () in
    let b = Pipeline.build_source ~ctx ~compile:(compile_for path) src in
    let warm = Pipeline.stage_warm ctx "build" in
    let svfg = Pipeline.fresh_svfg ~ctx b in
    let r, istats, _ = Incr.run_sfs_spliced ~store ~label:path b svfg in
    let snap = Pipeline.points_to_of_sfs b r in
    (* The cheaper lattice tiers, held as snapshots beside the exact one:
       Andersen's sets come free with the build; the unification classes
       are a near-linear solve over the resident program. *)
    let aux_snap =
      snapshot_of ~prog:b.Pipeline.prog ~pt:b.Pipeline.aux.Pta_memssa.Modref.pt
    in
    let unify_snap =
      let u, _ = Pipeline.run_unify ~ctx b in
      snapshot_of ~prog:b.Pipeline.prog ~pt:(Pta_andersen.Unify.pts u)
    in
    let vsfs =
      if not with_vsfs then None
      else begin
        (* the paper's solver, held hot — and a standing cross-check: the
           spliced SFS answers must be bit-identical to a from-scratch VSFS
           solve of the same source, on the same (read-only) SVFG *)
        let rv = Vsfs_core.Vsfs.solve svfg in
        if not (same_points_to snap (Pipeline.points_to_of_vsfs b rv)) then
          failwith "internal: spliced SFS and VSFS disagree";
        Some rv
      end
    in
    {
      l_prog = b.Pipeline.prog;
      l_names = name_table b.Pipeline.prog;
      l_snap = snap;
      l_aux_snap = aux_snap;
      l_unify_snap = unify_snap;
      l_vsfs = vsfs;
      l_istats = istats;
      l_warm = warm;
      l_pops = Sfs.processed r;
    }
  with
  | l -> Ok l
  | exception e ->
    let msg =
      match e with
      | Sys_error m | Failure m -> m
      | Pta_cfront.Lexer.Lex_error (line, m) ->
        Printf.sprintf "lex error at line %d: %s" line m
      | Pta_cfront.Cparser.Parse_error (line, m) ->
        Printf.sprintf "parse error at line %d: %s" line m
      | Pta_cfront.Lower.Lower_error (line, m) ->
        Printf.sprintf "lowering error at line %d: %s" line m
      | Parser.Parse_error (line, m) ->
        Printf.sprintf "IR parse error at line %d: %s" line m
      | e -> Printexc.to_string e
    in
    Error msg

let info_of l =
  {
    Protocol.r_total = l.l_istats.Incr.funcs_total;
    r_reused = l.l_istats.Incr.funcs_reused;
    r_dirty = l.l_istats.Incr.funcs_dirty;
    r_scheduled = l.l_istats.Incr.scheduled;
    r_pops = l.l_pops;
    r_spliceable = l.l_istats.Incr.spliceable;
    r_warm_build = l.l_warm;
  }

let create ~store ~pool ~with_vsfs path =
  match load ~store ~with_vsfs path with
  | Error e -> Error e
  | Ok l ->
    Ok
      {
        store;
        pool;
        with_vsfs;
        path;
        prog = l.l_prog;
        names = l.l_names;
        snap = l.l_snap;
        aux_snap = l.l_aux_snap;
        unify_snap = l.l_unify_snap;
        vsfs = l.l_vsfs;
        loads = 1;
        first_pops = l.l_pops;
        last_info = info_of l;
      }

let reload t ?path () =
  let p = match path with Some p -> p | None -> t.path in
  match load ~store:t.store ~with_vsfs:t.with_vsfs p with
  | Error e -> Error e
  | Ok l ->
    t.path <- p;
    t.prog <- l.l_prog;
    t.names <- l.l_names;
    t.snap <- l.l_snap;
    t.aux_snap <- l.l_aux_snap;
    t.unify_snap <- l.l_unify_snap;
    t.vsfs <- l.l_vsfs;
    t.loads <- t.loads + 1;
    t.last_info <- info_of l;
    Ok t.last_info

(* ---------- queries ---------- *)

(* Everything a query answer reads is plain immutable data (the program,
   the name table, bitset arrays) — safe to share read-only with the pool's
   worker domains, unlike solver results whose interned set ids are
   domain-local. *)
type ctx = {
  c_prog : Prog.t;
  c_names : (string, Inst.var) Hashtbl.t;
  c_snap : Artifact.points_to;
}

(* set selection follows [vsfs analyze]: an object's answer is its
   address-taken contents, a variable's its top-level points-to set *)
let set_of c v =
  if Prog.is_object c.c_prog v then c.c_snap.Artifact.obj.(v)
  else c.c_snap.Artifact.top.(v)

let answer c q =
  let resolve n k =
    match Hashtbl.find_opt c.c_names n with
    | None -> Protocol.Unknown n
    | Some v -> k v
  in
  match q with
  | Protocol.Points_to n ->
    resolve n (fun v ->
        Protocol.Set
          (List.map (Prog.name c.c_prog) (Bitset.elements (set_of c v))))
  | Protocol.May_alias (x, y) ->
    resolve x (fun vx ->
        resolve y (fun vy ->
            Protocol.Bool (Bitset.intersects (set_of c vx) (set_of c vy))))
  | Protocol.Points_to_null n ->
    resolve n (fun v -> Protocol.Bool (Bitset.is_empty (set_of c v)))
  | Protocol.Callees n ->
    resolve n (fun v ->
        Protocol.Set
          (List.rev
             (Bitset.fold
                (fun o acc ->
                  match Prog.is_function_obj c.c_prog o with
                  | Some f -> (Prog.func c.c_prog f).Prog.fname :: acc
                  | None -> acc)
                (set_of c v) [])))

(* Tier selection: the request names the least precise results it accepts,
   and the cheapest snapshot of that precision answers. Every snapshot is
   resident, so "cheapest" here is about what had to be computed/kept hot,
   not per-query latency — but the contract (answers may only coarsen down
   the lattice) is what the tests and the fuzz oracle pin. *)
let snap_for t = function
  | Protocol.Exact -> t.snap
  | Protocol.Andersen -> t.aux_snap
  | Protocol.Unify -> t.unify_snap

let ctx ?(tier = Protocol.Exact) t =
  { c_prog = t.prog; c_names = t.names; c_snap = snap_for t tier }

(* Small batches are answered inline; larger ones fan out over the domain
   pool in [jobs]-sized chunks (order-preserving, so the reply is identical
   either way). *)
let batch_threshold = 16

let answers ?tier t qs =
  let c = ctx ?tier t in
  let n = List.length qs in
  if n <= batch_threshold || Pool.jobs t.pool <= 1 then List.map (answer c) qs
  else begin
    let chunk_size = (n + Pool.jobs t.pool - 1) / Pool.jobs t.pool in
    let rec chunks acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | q :: rest ->
        if k = chunk_size then chunks (List.rev cur :: acc) [ q ] 1 rest
        else chunks acc (q :: cur) (k + 1) rest
    in
    List.concat (Pool.map t.pool (List.map (answer c)) (chunks [] [] 0 qs))
  end

let var_names t =
  let acc = ref [] in
  Prog.iter_vars t.prog (fun v -> acc := Prog.name t.prog v :: !acc);
  List.rev !acc

(* the [analyze] default report: non-empty contents of global objects, in
   variable order — byte-comparable against a cold CLI run *)
let report t =
  let c = ctx t in
  let rows = ref [] in
  Prog.iter_vars t.prog (fun v ->
      if Prog.is_object t.prog v then
        match Prog.obj_kind t.prog v with
        | Prog.Global ->
          let set = c.c_snap.Artifact.obj.(v) in
          if not (Bitset.is_empty set) then
            rows :=
              ( Prog.name t.prog v,
                List.map (Prog.name t.prog) (Bitset.elements set) )
              :: !rows
        | _ -> ());
  List.rev !rows

let stats t =
  let i = t.last_info in
  [
    ("path", t.path);
    ("tiers", "unify,andersen,exact");
    ("loads", string_of_int t.loads);
    ("jobs", string_of_int (Pool.jobs t.pool));
    ("vsfs", if t.with_vsfs then "on" else "off");
    ("funcs_total", string_of_int i.Protocol.r_total);
    ("funcs_reused", string_of_int i.Protocol.r_reused);
    ("funcs_dirty", string_of_int i.Protocol.r_dirty);
    ("scheduled", string_of_int i.Protocol.r_scheduled);
    ("spliceable", string_of_bool i.Protocol.r_spliceable);
    ("first_pops", string_of_int t.first_pops);
    ("last_pops", string_of_int i.Protocol.r_pops);
  ]
