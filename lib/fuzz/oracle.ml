open Pta_ir
module Cparser = Pta_cfront.Cparser
module Lower = Pta_cfront.Lower
module Pipeline = Pta_workload.Pipeline

type outcome =
  | Pass
  | Rejected of string
  | Fail of { cls : string; detail : string }

type t = { name : string; doc : string; check : string -> outcome }

let exn_name = function
  | Cparser.Parse_error _ -> "Parse_error"
  | Lower.Lower_error _ -> "Lower_error"
  | Invalid_argument _ -> "Invalid_argument"
  | Failure _ -> "Failure"
  | Assert_failure _ -> "Assert_failure"
  | Not_found -> "Not_found"
  | Stack_overflow -> "Stack_overflow"
  | Out_of_memory -> "Out_of_memory"
  | _ -> "exn"

let fail_exn stage e =
  Fail
    {
      cls = Printf.sprintf "crash:%s:%s" stage (exn_name e);
      detail = Printf.sprintf "%s raised %s" stage (Printexc.to_string e);
    }

(* Frontend rejections (a clean diagnostic on a program the mutator made
   invalid) are not findings; everything else escaping a stage is. *)
let rejected = function
  | Cparser.Parse_error (line, msg) ->
    Some (Printf.sprintf "parse error at line %d: %s" line msg)
  | Lower.Lower_error (line, msg) ->
    Some (Printf.sprintf "lower error at line %d: %s" line msg)
  | _ -> None

(* ---------- crash: per-stage exception capture ---------- *)

let check_crash src =
  let reject_or stage e =
    match rejected e with Some msg -> Rejected msg | None -> fail_exn stage e
  in
  match Cparser.parse src with
  | exception e -> reject_or "parse" e
  | ast -> (
    match Lower.lower ~promote:false ast with
    | exception e -> reject_or "lower" e
    | p -> (
      match Pta_cfront.Mem2reg.run p with
      | exception e -> fail_exn "mem2reg" e
      | () -> (
        match Validate.check p with
        | exception e -> fail_exn "validate" e
        | _ :: _ as errs ->
          Fail
            {
              cls = "crash:validate:invalid-ir";
              detail =
                "lowered program fails validation:\n" ^ String.concat "\n" errs;
            }
        | [] -> (
          match Pta_andersen.Solver.solve p with
          | exception e -> fail_exn "andersen" e
          | _ -> Pass))))

(* ---------- shared compile for the semantic oracles ---------- *)

let with_built src k =
  match Pipeline.build_source src with
  | exception e -> (
    match rejected e with
    | Some msg -> Rejected msg
    | None -> fail_exn "build" e)
  | b -> ( match k b with exception e -> fail_exn "oracle" e | o -> o)

let set_names prog s =
  "{"
  ^ String.concat "," (List.map (Prog.name prog) (Pta_ds.Bitset.elements s))
  ^ "}"

(* ---------- andersen: wave solver vs naive reference ---------- *)

let check_andersen src =
  let run p =
    let fast = Pta_andersen.Solver.solve p in
    let slow = Pta_andersen.Naive.solve p in
    let unsound = ref [] and imprecise = ref [] in
    Prog.iter_vars p (fun v ->
        let f = Pta_andersen.Solver.pts fast v
        and n = Pta_andersen.Naive.pts slow v in
        if not (Pta_ds.Bitset.equal f n) then
          if not (Pta_ds.Bitset.subset n f) then unsound := v :: !unsound
          else imprecise := v :: !imprecise);
    let describe vs =
      String.concat "\n"
        (List.map
           (fun v ->
             Printf.sprintf "  %s: naive=%s wave=%s" (Prog.name p v)
               (set_names p (Pta_andersen.Naive.pts slow v))
               (set_names p (Pta_andersen.Solver.pts fast v)))
           (List.filteri (fun i _ -> i < 5) (List.rev vs)))
    in
    if !unsound <> [] then
      Fail
        {
          cls = "unsound";
          detail = "wave solver misses naive facts:\n" ^ describe !unsound;
        }
    else if !imprecise <> [] then
      Fail
        {
          cls = "imprecise";
          detail = "wave solver exceeds naive facts:\n" ^ describe !imprecise;
        }
    else begin
      let edges cg =
        let acc = ref [] in
        Callgraph.iter_edges cg (fun cs g ->
            acc := (cs.Callgraph.cs_func, cs.Callgraph.cs_inst, g) :: !acc);
        List.sort compare !acc
      in
      if
        edges (Pta_andersen.Solver.callgraph fast)
        <> edges (Pta_andersen.Naive.callgraph slow)
      then
        Fail
          {
            cls = "callgraph";
            detail = "wave and naive solvers resolve different call graphs";
          }
      else Pass
    end
  in
  match Lower.compile src with
  | exception e -> (
    match rejected e with Some msg -> Rejected msg | None -> fail_exn "build" e)
  | p -> (
    match Validate.check p with
    | _ :: _ as errs ->
      Fail
        {
          cls = "crash:validate:invalid-ir";
          detail = String.concat "\n" errs;
        }
    | [] -> ( match run p with exception e -> fail_exn "oracle" e | o -> o))

(* ---------- equiv: Dense vs SFS vs VSFS bit-equality ---------- *)

let check_equiv src =
  with_built src (fun b ->
      let sfs_r, _ = Pipeline.run_sfs b in
      let vsfs_r, _ = Pipeline.run_vsfs b in
      let svfg = Pipeline.fresh_svfg b in
      let report = Vsfs_core.Equiv.compare sfs_r vsfs_r svfg in
      if not (Vsfs_core.Equiv.is_equal report) then begin
        let cls =
          if report.Vsfs_core.Equiv.top_level_mismatches <> [] then "top-level"
          else "load"
        in
        Fail
          {
            cls;
            detail =
              Format.asprintf "SFS/VSFS disagree:@.%a"
                (Vsfs_core.Equiv.pp_report b.Pipeline.prog)
                report;
          }
      end
      else begin
        let dense_r, _ = Pipeline.run_dense b in
        let p = b.Pipeline.prog in
        let bad = ref [] in
        Prog.iter_vars p (fun v ->
            if
              Prog.is_top p v
              && not
                   (Pta_ds.Bitset.equal (Pta_sfs.Sfs.pt sfs_r v)
                      (Pta_sfs.Dense.pt dense_r v))
            then bad := v :: !bad);
        match !bad with
        | [] -> Pass
        | vs ->
          Fail
            {
              cls = "dense";
              detail =
                "dense ICFG solver disagrees with SFS:\n"
                ^ String.concat "\n"
                    (List.map
                       (fun v ->
                         Printf.sprintf "  %s: sfs=%s dense=%s" (Prog.name p v)
                           (set_names p (Pta_sfs.Sfs.pt sfs_r v))
                           (set_names p (Pta_sfs.Dense.pt dense_r v)))
                       (List.filteri (fun i _ -> i < 5) (List.rev vs)));
            }
      end)

(* ---------- store: cold-vs-warm round trip through Pta_store ---------- *)

(* Atomic, not a plain ref: parallel campaign workers mint tmp dirs
   concurrently, and two cases sharing a directory would corrupt each
   other's store round-trip. *)
let tmp_counter = Atomic.make 0

let fresh_tmp_dir () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pta-fuzz-%d-%d" (Unix.getpid ())
       (Atomic.fetch_and_add tmp_counter 1))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let check_store src =
  let dir = fresh_tmp_dir () in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with _ -> ())
    (fun () ->
      let store = Pta_store.Store.open_ dir in
      let ctx = Pipeline.context ~store () in
      let go () =
        let cold, warm0 = Pipeline.build_cached ~store src in
        if warm0 then
          Fail { cls = "not-cold"; detail = "first build reported warm" }
        else begin
          let vsfs_cold, _ = Pipeline.run_vsfs ~ctx cold in
          Pipeline.save_points_to ~store cold ~solver:"vsfs"
            (Pipeline.points_to_of_vsfs cold vsfs_cold);
          let warm, warm1 = Pipeline.build_cached ~store src in
          if not warm1 then
            Fail
              {
                cls = "not-warm";
                detail = "second build of identical source missed the cache";
              }
          else begin
            let vsfs_warm, _ = Pipeline.run_vsfs ~ctx warm in
            let pc = cold.Pipeline.prog and pw = warm.Pipeline.prog in
            if Prog.n_vars pc <> Prog.n_vars pw then
              Fail
                {
                  cls = "prog-roundtrip";
                  detail =
                    Printf.sprintf "var table changed: cold %d vs warm %d vars"
                      (Prog.n_vars pc) (Prog.n_vars pw);
                }
            else begin
              let bad = ref [] in
              Prog.iter_vars pc (fun v ->
                  let c, w =
                    if Prog.is_top pc v then
                      (Vsfs_core.Vsfs.pt vsfs_cold v, Vsfs_core.Vsfs.pt vsfs_warm v)
                    else
                      ( Vsfs_core.Vsfs.object_pt vsfs_cold v,
                        Vsfs_core.Vsfs.object_pt vsfs_warm v )
                  in
                  if not (Pta_ds.Bitset.equal c w) then bad := v :: !bad);
              match !bad with
              | _ :: _ as vs ->
                Fail
                  {
                    cls = "pt-mismatch";
                    detail =
                      "warm-started VSFS differs from cold solve:\n"
                      ^ String.concat "\n"
                          (List.map
                             (fun v ->
                               Printf.sprintf "  %s: cold=%s warm=%s"
                                 (Prog.name pc v)
                                 (set_names pc (Vsfs_core.Vsfs.pt vsfs_cold v))
                                 (set_names pw (Vsfs_core.Vsfs.pt vsfs_warm v)))
                             (List.filteri (fun i _ -> i < 5) (List.rev vs)));
                  }
              | [] -> (
                match Pipeline.load_points_to ~store cold ~solver:"vsfs" with
                | None ->
                  Fail
                    {
                      cls = "results-roundtrip";
                      detail = "saved results-vsfs artifact does not load back";
                    }
                | Some r ->
                  let reference = Pipeline.points_to_of_vsfs cold vsfs_cold in
                  let same = ref true in
                  Array.iteri
                    (fun v s ->
                      if
                        not
                          (Pta_ds.Bitset.equal s
                             reference.Pta_store.Artifact.top.(v))
                      then same := false)
                    r.Pta_store.Artifact.top;
                  Array.iteri
                    (fun v s ->
                      if
                        not
                          (Pta_ds.Bitset.equal s
                             reference.Pta_store.Artifact.obj.(v))
                      then same := false)
                    r.Pta_store.Artifact.obj;
                  if !same then Pass
                  else
                    Fail
                      {
                        cls = "results-roundtrip";
                        detail =
                          "decoded results-vsfs artifact differs from the \
                           solve it was saved from";
                      })
            end
          end
        end
      in
      match go () with
      | exception e -> (
        match rejected e with
        | Some msg -> Rejected msg
        | None -> fail_exn "store" e)
      | o -> o)

(* ---------- par: worker-domain vs caller-domain bit-equality ---------- *)

(* The whole point of domain-local solver state is that WHERE a solve runs
   must never leak into WHAT it computes. This oracle checks exactly that:
   the full pipeline (build, SFS, VSFS, equivalence verdict) runs once on
   the calling domain and once on a pool worker domain, and the two must
   agree bit-for-bit — same points-to bitsets for every variable and
   object, same SFS-vs-VSFS verdict. Everything crossing the pool boundary
   is plain data ([Artifact.points_to] bitset arrays and a bool), never
   [Ptset] ids, per the [Pta_par.Pool] ownership rule. *)

let solve_both src =
  let b = Pipeline.build_source src in
  let sfs_r, _ = Pipeline.run_sfs b in
  let vsfs_r, _ = Pipeline.run_vsfs b in
  let svfg = Pipeline.fresh_svfg b in
  let verdict =
    Vsfs_core.Equiv.is_equal (Vsfs_core.Equiv.compare sfs_r vsfs_r svfg)
  in
  ( Pipeline.points_to_of_sfs b sfs_r,
    Pipeline.points_to_of_vsfs b vsfs_r,
    verdict )

let points_to_mismatch what (a : Pta_store.Artifact.points_to)
    (b : Pta_store.Artifact.points_to) =
  let bad = ref None in
  let scan part x y =
    if Array.length x <> Array.length y then
      bad := Some (Printf.sprintf "%s: %s arity differs" what part)
    else
      Array.iteri
        (fun v s ->
          if !bad = None && not (Pta_ds.Bitset.equal s y.(v)) then
            bad := Some (Printf.sprintf "%s: %s set of var %d differs" what
                           part v))
        x
  in
  scan "top-level" a.Pta_store.Artifact.top b.Pta_store.Artifact.top;
  scan "object" a.Pta_store.Artifact.obj b.Pta_store.Artifact.obj;
  !bad

let check_par src =
  match solve_both src with
  | exception e -> (
    match rejected e with
    | Some msg -> Rejected msg
    | None -> fail_exn "build" e)
  | seq_sfs, seq_vsfs, seq_verdict -> (
    match Pta_par.Pool.run ~jobs:1 (fun () -> solve_both src) [ () ] with
    | exception Pta_par.Pool.Task_error { exn; _ } -> fail_exn "par-domain" exn
    | [ (par_sfs, par_vsfs, par_verdict) ] ->
      if seq_verdict <> par_verdict then
        Fail
          {
            cls = "par-verdict";
            detail =
              Printf.sprintf
                "SFS-vs-VSFS equivalence verdict flipped across domains: \
                 sequential %b, pool worker %b"
                seq_verdict par_verdict;
          }
      else begin
        match
          ( points_to_mismatch "sfs" seq_sfs par_sfs,
            points_to_mismatch "vsfs" seq_vsfs par_vsfs )
        with
        | None, None -> Pass
        | Some d, _ | _, Some d ->
          Fail
            {
              cls = "par-pt";
              detail = "pool-worker solve differs from sequential solve: " ^ d;
            }
      end
    | _ -> Fail { cls = "par-pt"; detail = "pool returned wrong arity" })

(* ---------- unify: Steensgaard bound ---------- *)

(* The unification tier is a sound over-approximation: every Andersen
   points-to fact must survive into the coarser Steensgaard classes, for
   every variable and object. *)

let check_unify src =
  with_built src (fun b ->
      let p = b.Pipeline.prog in
      let u, _ = Pipeline.run_unify b in
      let andersen_pt = b.Pipeline.aux.Pta_memssa.Modref.pt in
      let bad = ref [] in
      Prog.iter_vars p (fun v ->
          if
            not (Pta_ds.Bitset.subset (andersen_pt v)
                   (Pta_andersen.Unify.pts u v))
          then bad := v :: !bad);
      match !bad with
      | [] -> Pass
      | vs ->
        Fail
          {
            cls = "unify-unsound";
            detail =
              "unification classes miss Andersen facts:\n"
              ^ String.concat "\n"
                  (List.map
                     (fun v ->
                       Printf.sprintf "  %s: andersen=%s unify=%s"
                         (Prog.name p v)
                         (set_names p (andersen_pt v))
                         (set_names p (Pta_andersen.Unify.pts u v)))
                     (List.filteri (fun i _ -> i < 5) (List.rev vs)));
          })

(* ---------- serve: daemon session vs cold batch bit-equality ---------- *)

(* The resident daemon must be semantically invisible: after any sequence
   of loads and reloads — including a reload that re-solves only part of
   the program by splicing stored per-function results — every answer must
   bit-match a cold batch solve of the source the daemon currently serves.
   The oracle drives a real [Pta_serve.Session] (in process; the wire
   framing has its own tests) through a seeded mutate-and-reload step,
   then replays a full query battery against a second session solving the
   final source cold in a separate store. A final reload of the identical
   source checks answer stability under maximal reuse. *)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc s)

let check_serve src =
  let module Session = Pta_serve.Session in
  let module P = Pta_serve.Protocol in
  let dir1 = fresh_tmp_dir () and dir2 = fresh_tmp_dir () in
  let file = fresh_tmp_dir () ^ ".c" in
  Fun.protect
    ~finally:(fun () ->
      (try rm_rf dir1 with _ -> ());
      (try rm_rf dir2 with _ -> ());
      try Sys.remove file with _ -> ())
    (fun () ->
      write_file file src;
      let store1 = Pta_store.Store.open_ dir1 in
      let store2 = Pta_store.Store.open_ dir2 in
      Pta_par.Pool.with_pool ~jobs:1 (fun pool ->
          match Session.create ~store:store1 ~pool ~with_vsfs:false file with
          | Error msg -> Rejected msg
          | Ok warm -> (
            let go () =
              (* deterministic in the case source, like the campaign's
                 per-case seeding *)
              let seed = Hashtbl.hash src land 0x3FFF_FFFF in
              let mutant =
                match Cparser.parse src with
                | ast ->
                  Some (Pta_cfront.Ast_print.program (Mutate.program ~seed ast))
                | exception _ -> None
              in
              (match mutant with
              | Some m -> (
                write_file file m;
                match Session.reload warm () with
                | Ok _ -> ()
                | Error _ ->
                  (* invalid mutant: old state must survive; revert and
                     take the reload-identical path instead *)
                  write_file file src;
                  (match Session.reload warm () with
                  | Ok _ -> ()
                  | Error e -> failwith ("reload of original source failed: " ^ e)))
              | None -> ());
              match Session.create ~store:store2 ~pool ~with_vsfs:false file with
              | Error e -> failwith ("cold session on served source failed: " ^ e)
              | Ok cold ->
                let vars = Session.var_names cold in
                let battery =
                  List.concat_map
                    (fun n ->
                      [ P.Points_to n; P.Points_to_null n; P.Callees n ])
                    vars
                  @ (match vars with
                    | [] | [ _ ] -> []
                    | first :: rest ->
                      List.map2
                        (fun a b -> P.May_alias (a, b))
                        (first :: rest)
                        (rest @ [ first ]))
                in
                let a_warm = Session.answers warm battery in
                let a_cold = Session.answers cold battery in
                if a_warm <> a_cold then
                  Fail
                    {
                      cls = "serve-divergence";
                      detail =
                        Printf.sprintf
                          "daemon session answers differ from a cold batch \
                           solve of the served source (%d queries)"
                          (List.length battery);
                    }
                else begin
                  (* reload-identical: answers must be stable under reuse *)
                  match Session.reload warm () with
                  | Error e -> failwith ("reload-identical failed: " ^ e)
                  | Ok _ ->
                    if Session.answers warm battery <> a_cold then
                      Fail
                        {
                          cls = "serve-unstable";
                          detail =
                            "answers changed across a reload of identical \
                             source";
                        }
                    else Pass
                end
            in
            match go () with
            | exception e -> (
              match rejected e with
              | Some msg -> Rejected msg
              | None -> fail_exn "serve" e)
            | o -> o)))

(* ---------- the tower ---------- *)

let all =
  [
    {
      name = "crash";
      doc = "parse -> lower -> mem2reg -> validate -> andersen raises nothing";
      check = check_crash;
    };
    {
      name = "andersen";
      doc = "wave-propagation Andersen = naive reference fixpoint";
      check = check_andersen;
    };
    {
      name = "equiv";
      doc = "Dense = SFS = VSFS points-to bit-equality (the paper's Sec IV-E)";
      check = check_equiv;
    };
    {
      name = "unify";
      doc = "unification tier bounds Andersen";
      check = check_unify;
    };
    {
      name = "store";
      doc = "cold vs Pta_store warm-started pipeline bit-equality";
      check = check_store;
    };
    {
      name = "par";
      doc = "pool-worker-domain vs caller-domain solve bit-equality";
      check = check_par;
    };
    {
      name = "serve";
      doc = "daemon session = cold batch solve across mutate-and-reload";
      check = check_serve;
    };
  ]

let find name = List.find_opt (fun o -> o.name = name) all
let names = List.map (fun o -> o.name) all
