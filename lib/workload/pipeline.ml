module Store = Pta_store.Store
module Artifact = Pta_store.Artifact

type built = {
  prog : Pta_ir.Prog.t;
  aux : Pta_memssa.Modref.aux;
  loc : int;
  src_bytes : int;
  src_digest : string;
  andersen_seconds : float;
  pre_merged : int;
  pre_vars : int;
}

let time f =
  let start = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. start)

(* ---------- execution context ---------- *)

type ctx = {
  store : Store.t option;
  label : string;
  stage_log : (string * float * bool) list ref;  (* newest first *)
}

let context ?store ?(label = "") () = { store; label; stage_log = ref [] }

let stage_log ctx = List.rev !(ctx.stage_log)

let stage_seconds ctx key =
  let rec go = function
    | (k, s, _) :: _ when k = key -> s
    | _ :: tl -> go tl
    | [] -> 0.
  in
  go !(ctx.stage_log)

let stage_warm ctx key =
  let rec go = function
    | (k, _, w) :: _ when k = key -> w
    | _ :: tl -> go tl
    | [] -> false
  in
  go !(ctx.stage_log)

let json_of_stages ctx =
  "["
  ^ String.concat ", "
      (List.map
         (fun (k, s, w) ->
           Printf.sprintf "{\"stage\": \"%s\", \"seconds\": %.6f, \"warm\": %b}"
             k s w)
         (stage_log ctx))
  ^ "]"

(* ---------- the stage lattice ---------- *)

module Stage = struct
  type ('a, 'b) t = {
    skey : string;
    composite : bool;
    load : (ctx -> Store.t -> 'a -> 'b option) option;
    save : (ctx -> Store.t -> 'a -> 'b -> unit) option;
    body : ctx -> 'a -> 'b;
  }

  let v ~key ?load ?save body =
    { skey = key; composite = false; load; save; body }

  let key s = s.skey

  (* The one cold/warm code path: probe the store (when the context has one
     and the stage knows how to import), fall back to the body, persist the
     cold result, and log (key, seconds, warm) either way. Corrupt or stale
     artifacts demote silently to the cold path and are re-saved. *)
  let run ctx s x =
    if s.composite then s.body ctx x
    else begin
      let t0 = Unix.gettimeofday () in
      let warm, y =
        match (ctx.store, s.load) with
        | Some store, Some load -> (
          let cold () =
            let y = s.body ctx x in
            (match s.save with
            | Some save -> save ctx store x y
            | None -> ());
            (false, y)
          in
          match load ctx store x with
          | Some y -> (true, y)
          | None -> cold ()
          | exception (Pta_store.Codec.Corrupt _ | Invalid_argument _) ->
            cold ())
        | _ -> (false, s.body ctx x)
      in
      ctx.stage_log :=
        (s.skey, Unix.gettimeofday () -. t0, warm) :: !(ctx.stage_log);
      y
    end

  let ( >>> ) a b =
    {
      skey = a.skey ^ ">" ^ b.skey;
      composite = true;
      load = None;
      save = None;
      body = (fun ctx x -> run ctx b (run ctx a x));
    }
end

let ctx_for ?ctx () = match ctx with Some c -> c | None -> context ()

(* ---------- build stages: compile -> andersen ---------- *)

let stage_compile compile =
  Stage.v ~key:"compile" (fun _ src ->
      let prog = compile src in
      (match Pta_ir.Validate.check prog with
      | [] -> ()
      | errs ->
        failwith ("generated program invalid:\n" ^ String.concat "\n" errs));
      prog)

let stage_andersen =
  Stage.v ~key:"andersen" (fun _ prog ->
      let r = Pta_andersen.Solver.solve prog in
      let aux =
        {
          Pta_memssa.Modref.pt = Pta_andersen.Solver.pts r;
          cg = Pta_andersen.Solver.callgraph r;
        }
      in
      Pta_memssa.Singleton.refine prog ~cg:aux.Pta_memssa.Modref.cg;
      (prog, aux))

(* The fused build stage owns the store probe: a warm hit imports the
   program *after* singleton refinement and Andersen's constraint
   expansion (the var table already holds the field objects and the
   refined singleton flags), skipping the whole compile/andersen
   prefix. *)
let stage_build ?(compile = fun src -> Pta_cfront.Lower.compile src) () =
  let keys src =
    let src_digest = Pta_store.Digest.hex src in
    ( src_digest,
      Store.key ~stage:"prog" [ src_digest ],
      Store.key ~stage:"andersen" [ src_digest ] )
  in
  Stage.v ~key:"build"
    ~load:(fun _ store src ->
      let src_digest, kp, ka = keys src in
      match
        ( Store.load store ~stage:"prog" ~key:kp,
          Store.load store ~stage:"andersen" ~key:ka )
      with
      | Some pb, Some ab ->
        let prog = Artifact.decode_prog pb in
        let a = Artifact.decode_aux ~n_vars:(Pta_ir.Prog.n_vars prog) ab in
        Some
          {
            prog;
            aux = Artifact.to_aux a;
            loc = Gen.loc src;
            src_bytes = String.length src;
            src_digest;
            andersen_seconds = 0.;
            pre_merged = 0;
            pre_vars = 0;
          }
      | _ -> None)
    ~save:(fun ctx store src b ->
      let _, kp, ka = keys src in
      let a =
        {
          Artifact.pts =
            Array.init (Pta_ir.Prog.n_vars b.prog) b.aux.Pta_memssa.Modref.pt;
          cg = b.aux.Pta_memssa.Modref.cg;
        }
      in
      Store.save store ~stage:"prog" ~key:kp ~label:ctx.label
        (Artifact.encode_prog b.prog);
      Store.save store ~stage:"andersen" ~key:ka ~label:ctx.label
        (Artifact.encode_aux a))
    (fun ctx src ->
      let open Stage in
      let prog, aux = run ctx (stage_compile compile >>> stage_andersen) src in
      {
        prog;
        aux;
        loc = Gen.loc src;
        src_bytes = String.length src;
        src_digest = Pta_store.Digest.hex src;
        andersen_seconds = stage_seconds ctx "andersen";
        pre_merged = 0;
        pre_vars = 0;
      })

let build_source ?ctx ?compile src =
  let ctx = ctx_for ?ctx () in
  Stage.run ctx (stage_build ?compile ()) src

let build ?ctx cfg = build_source ?ctx (Gen.source cfg)

let build_cached ~store ?compile ?(label = "") src =
  let ctx = context ~store ~label () in
  let b = build_source ~ctx ?compile src in
  (b, stage_warm ctx "build")

(* ---------- svfg / versioning / solve stages ---------- *)

let stage_svfg =
  Stage.v ~key:"svfg"
    ~load:(fun _ store b ->
      match
        Store.load store ~stage:"svfg"
          ~key:(Store.key ~stage:"svfg" [ b.src_digest ])
      with
      | None -> None
      | Some bytes ->
        Some (b, Pta_svfg.Svfg.import b.prog b.aux (Artifact.decode_svfg bytes)))
    ~save:(fun ctx store b (_, svfg) ->
      Store.save store ~stage:"svfg"
        ~key:(Store.key ~stage:"svfg" [ b.src_digest ])
        ~label:ctx.label
        (Artifact.encode_svfg (Pta_svfg.Svfg.export svfg)))
    (fun _ b -> (b, Pta_svfg.Svfg.build b.prog b.aux))

let fresh_svfg ?ctx b =
  let ctx = ctx_for ?ctx () in
  snd (Stage.run ctx stage_svfg b)

let stage_versioning =
  Stage.v ~key:"versioning"
    ~load:(fun _ store (b, svfg) ->
      match
        Store.load store ~stage:"versioning"
          ~key:(Store.key ~stage:"versioning" [ b.src_digest ])
      with
      | None -> None
      | Some bytes ->
        Some
          ( b,
            svfg,
            Vsfs_core.Versioning.import svfg (Artifact.decode_versioning bytes)
          ))
    ~save:(fun ctx store (b, _) (_, _, ver) ->
      Store.save store ~stage:"versioning"
        ~key:(Store.key ~stage:"versioning" [ b.src_digest ])
        ~label:ctx.label
        (Artifact.encode_versioning (Vsfs_core.Versioning.export ver)))
    (fun _ (b, svfg) -> (b, svfg, Vsfs_core.Versioning.compute svfg))

let stage_sfs =
  Stage.v ~key:"solve-sfs" (fun _ (_, svfg) -> Pta_sfs.Sfs.solve svfg)

let stage_vsfs =
  Stage.v ~key:"solve-vsfs" (fun _ (_, svfg, ver) ->
      let r = Vsfs_core.Vsfs.solve ~versioning:ver svfg in
      (r, ver))

let stage_dense =
  Stage.v ~key:"solve-dense" (fun _ b -> Pta_sfs.Dense.solve b.prog b.aux)

let stage_unify = Stage.v ~key:"unify" (fun _ b -> Pta_andersen.Unify.solve b.prog)

type solver_run = {
  seconds : float;
  pre_seconds : float;
  sets : int;
  set_words : int;  (* structure-shared: distinct sets once + 1 word/ref *)
  unshared_words : int;  (* what per-slot materialisation would have cost *)
  unique_sets : int;  (* distinct points-to sets across all slots *)
  props : int;
  pops : int;
  engine : Pta_engine.Telemetry.snapshot option;
}

let sfs_run r seconds =
  {
    seconds;
    pre_seconds = 0.;
    sets = Pta_sfs.Sfs.n_sets r;
    set_words = Pta_sfs.Sfs.words r;
    unshared_words = Pta_sfs.Sfs.unshared_words r;
    unique_sets = Pta_sfs.Sfs.n_unique_sets r;
    props = Pta_sfs.Sfs.n_propagations r;
    pops = Pta_sfs.Sfs.processed r;
    engine = Some (Pta_engine.Telemetry.snapshot (Pta_sfs.Sfs.telemetry r));
  }

let vsfs_run r ver seconds =
  {
    seconds;
    pre_seconds = Vsfs_core.Versioning.duration ver;
    sets = Vsfs_core.Vsfs.n_sets r;
    set_words = Vsfs_core.Vsfs.words r;
    unshared_words = Vsfs_core.Vsfs.unshared_words r;
    unique_sets = Vsfs_core.Vsfs.n_unique_sets r;
    props = Vsfs_core.Vsfs.n_propagations r;
    pops = Vsfs_core.Vsfs.processed r;
    engine = Some (Pta_engine.Telemetry.snapshot (Vsfs_core.Vsfs.telemetry r));
  }

let run_sfs ?ctx b =
  let ctx = ctx_for ?ctx () in
  let r = Stage.run ctx Stage.(stage_svfg >>> stage_sfs) b in
  (r, sfs_run r (stage_seconds ctx "solve-sfs"))

let run_vsfs ?ctx b =
  let ctx = ctx_for ?ctx () in
  let r, ver =
    Stage.run ctx Stage.(stage_svfg >>> stage_versioning >>> stage_vsfs) b
  in
  (r, vsfs_run r ver (stage_seconds ctx "solve-vsfs"))

let run_dense ?ctx b =
  let ctx = ctx_for ?ctx () in
  let r = Stage.run ctx stage_dense b in
  ( r,
    {
      seconds = stage_seconds ctx "solve-dense";
      pre_seconds = 0.;
      sets = Pta_sfs.Dense.n_sets r;
      set_words = Pta_sfs.Dense.words r;
      unshared_words = 0;
      unique_sets = 0;
      props = 0;
      pops = Pta_sfs.Dense.processed r;
      engine =
        Some (Pta_engine.Telemetry.snapshot (Pta_sfs.Dense.telemetry r));
    } )

let run_unify ?ctx b =
  let ctx = ctx_for ?ctx () in
  let r = Stage.run ctx stage_unify b in
  (r, stage_seconds ctx "unify")

(* The function-level incremental path (Incr) re-keys its per-function
   artifacts by closure digest on every (re)load; this records the current
   function -> digest map on the program's own manifest line, so the
   store's index shows which per-function entries belong to which program
   version (and a future gc can sweep orphans by it). *)
let record_funcs ~store b funcs =
  Store.reindex store ~stage:"prog"
    ~key:(Store.key ~stage:"prog" [ b.src_digest ])
    ~funcs

(* Machine-readable run record, shared by [bench --json] and its round-trip
   test so the schema lives in exactly one place. *)
let json_of_run (r : solver_run) =
  let engine =
    match r.engine with
    | Some s -> Pta_engine.Telemetry.snapshot_to_json s
    | None -> "null"
  in
  Printf.sprintf
    "{\"seconds\": %.6f, \"pre_seconds\": %.6f, \"words\": %d, \
     \"unshared_words\": %d, \"unique_sets\": %d, \"sets\": %d, \
     \"props\": %d, \"pops\": %d, \"engine\": %s}"
    r.seconds r.pre_seconds r.set_words r.unshared_words r.unique_sets r.sets
    r.props r.pops engine

(* Final-result artifacts ------------------------------------------------- *)

(* [object_pts] is the solver's one-pass collapse of every object, indexed
   by variable. *)
let points_to_of ~prog ~pt ~object_pts =
  let n = Pta_ir.Prog.n_vars prog in
  {
    Artifact.top = Array.init n pt;
    obj =
      Array.init n (fun v ->
          if Pta_ir.Prog.is_object prog v && not (Pta_ir.Prog.is_dead prog v)
          then object_pts.(v)
          else Pta_ds.Bitset.create ());
  }

let points_to_of_sfs b r =
  points_to_of ~prog:b.prog ~pt:(Pta_sfs.Sfs.pt r)
    ~object_pts:(Pta_sfs.Sfs.object_pts r)

let points_to_of_vsfs b r =
  points_to_of ~prog:b.prog ~pt:(Vsfs_core.Vsfs.pt r)
    ~object_pts:(Vsfs_core.Vsfs.object_pts r)

let results_stage solver = "results-" ^ solver

let save_points_to ~store ?(label = "") b ~solver r =
  let stage = results_stage solver in
  let key = Store.key ~stage [ b.src_digest ] in
  Store.save store ~stage ~key ~label (Artifact.encode_points_to r)

let load_points_to ~store b ~solver =
  let stage = results_stage solver in
  let key = Store.key ~stage [ b.src_digest ] in
  match Store.load store ~stage ~key with
  | None -> None
  | Some bytes -> (
    try Some (Artifact.decode_points_to bytes)
    with Pta_store.Codec.Corrupt _ -> None)
