(* Command-line driver.

     vsfs analyze FILE [--analysis vsfs|sfs|dense|andersen] [--query NAME]
                       [--dump-ir] [--dump-svfg] [--check] [--stats]
                       [--cache-dir DIR]
     vsfs gen [--bench NAME | --seed N] [--scale S] [-o FILE]
     vsfs fuzz [--runs N] [--seed S] [--max-shrink-steps K]
               [--oracle NAME] [--corpus-dir DIR] [--jobs N]
     vsfs cache (ls|gc|clear) --cache-dir DIR
     vsfs serve FILE --socket PATH [--cache-dir DIR] [--jobs N] [--no-vsfs]
     vsfs query --socket PATH (points-to X | may-alias X Y | null X |
                               callees X | report | vars | stats |
                               reload [FILE] | shutdown)  [--stdin]
     vsfs bench ...          (hint to use bench/main.exe)

   FILE is mini-C (.c/.mc) or textual IR (.ir, see Pta_ir.Parser). *)

open Pta_ir
module Svfg = Pta_svfg.Svfg
module Pipeline = Pta_workload.Pipeline
module Store = Pta_store.Store

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let open_store dir =
  try Store.open_ dir
  with Failure msg ->
    Format.eprintf "error: %s@." msg;
    exit 1

let print_set prog what set =
  Format.printf "%s = {%s}@." what
    (String.concat ", " (List.map (Prog.name prog) (Pta_ds.Bitset.elements set)))

let resolve_query prog name =
  let r = ref (-1) in
  Prog.iter_vars prog (fun v -> if Prog.name prog v = name then r := v);
  if !r < 0 then None else Some !r

let analyze file analysis queries dump_ir dump_svfg dot_file check stats
    cache_dir =
  let src = read_file file in
  let compile s =
    if Filename.check_suffix file ".ir" then Parser.parse s
    else Pta_cfront.Lower.compile s
  in
  let store = Option.map open_store cache_dir in
  let ctx = Pipeline.context ?store ~label:file () in
  let b =
    try
      let b = Pipeline.build_source ~ctx ~compile src in
      if store <> None then
        Format.printf "cache: build %s@."
          (if Pipeline.stage_warm ctx "build" then "warm" else "cold");
      b
    with Failure msg ->
      Format.eprintf "invalid program:@.%s@." msg;
      exit 1
  in
  let prog = b.Pipeline.prog in
  let aux = b.Pipeline.aux in
  if dump_ir then Format.printf "%s@." (Printer.prog_to_string prog);
  let svfg = lazy (Pipeline.fresh_svfg ~ctx b) in
  (match dot_file with
  | Some path ->
    Pta_svfg.Dot.to_file (Lazy.force svfg) path;
    Format.printf "wrote SVFG dot to %s@." path
  | None -> ());
  if dump_svfg then begin
    let svfg = Lazy.force svfg in
    Format.printf "SVFG: %d nodes, %d indirect edges, %d direct edges@."
      (Svfg.n_nodes svfg) (Svfg.n_indirect_edges svfg)
      (Svfg.n_direct_edges svfg);
    for n = 0 to Svfg.n_nodes svfg - 1 do
      Svfg.iter_ind_all svfg n (fun o m ->
          Format.printf "  %a --%s--> %a@." (Svfg.pp_node svfg) n
            (Prog.name prog o) (Svfg.pp_node svfg) m)
    done
  end;
  (* Flow-sensitive analyses answer from a final-results artifact: loaded
     from the store when it has one (a hit skips the solve and, transitively,
     everything the store already covered), otherwise extracted from the
     solve in one pass and saved. *)
  let solved solver run points_to =
    let answers r =
      ( (fun v -> r.Pta_store.Artifact.top.(v)),
        fun v -> r.Pta_store.Artifact.obj.(v) )
    in
    match store with
    | None -> answers (points_to (run ()))
    | Some store -> (
      match Pipeline.load_points_to ~store b ~solver with
      | Some r ->
        Format.printf "cache: %s results hit@." solver;
        answers r
      | None ->
        let r = points_to (run ()) in
        Pipeline.save_points_to ~store ~label:file b ~solver r;
        answers r)
  in
  let top_pt, obj_pt, label =
    match analysis with
    | `Andersen ->
      (aux.Pta_memssa.Modref.pt, aux.Pta_memssa.Modref.pt, "andersen")
    | `Unify ->
      let u, _ = Pipeline.run_unify ~ctx b in
      (Pta_andersen.Unify.pts u, Pta_andersen.Unify.pts u, "unify")
    | `Dense ->
      let r = Pta_sfs.Dense.solve prog aux in
      let obj = Pta_sfs.Dense.object_pts r in
      (Pta_sfs.Dense.pt r, (fun v -> obj.(v)), "dense")
    | `Sfs ->
      let top, obj =
        solved "sfs"
          (fun () ->
            Pipeline.(Stage.run ctx stage_sfs) (b, Lazy.force svfg))
          (Pipeline.points_to_of_sfs b)
      in
      (top, obj, "sfs")
    | `Vsfs ->
      let top, obj =
        solved "vsfs"
          (fun () ->
            fst
              (Pipeline.(Stage.run ctx Stage.(stage_versioning >>> stage_vsfs))
                 (b, Lazy.force svfg)))
          (Pipeline.points_to_of_vsfs b)
      in
      (top, obj, "vsfs")
  in
  Format.printf "analysis: %s@." label;
  List.iter
    (fun q ->
      match resolve_query prog q with
      | None -> Format.printf "pt(%s): unknown variable@." q
      | Some v ->
        let set = if Prog.is_object prog v then obj_pt v else top_pt v in
        print_set prog (Printf.sprintf "pt(%s)" q) set)
    queries;
  if queries = [] && not (dump_ir || dump_svfg) then begin
    (* default report: non-empty points-to sets of globals *)
    Prog.iter_vars prog (fun v ->
        if Prog.is_object prog v then
          match Prog.obj_kind prog v with
          | Prog.Global ->
            let set = obj_pt v in
            if not (Pta_ds.Bitset.is_empty set) then
              print_set prog (Printf.sprintf "pt(%s)" (Prog.name prog v)) set
          | _ -> ())
  end;
  if check then begin
    let svfg = Lazy.force svfg in
    let sfs = Pta_sfs.Sfs.solve svfg in
    let vsfs = Vsfs_core.Vsfs.solve svfg in
    let report = Vsfs_core.Equiv.compare sfs vsfs svfg in
    if Vsfs_core.Equiv.is_equal report then
      Format.printf "check: SFS and VSFS agree@."
    else begin
      Format.printf "check FAILED:@.%a@." (Vsfs_core.Equiv.pp_report prog) report;
      exit 1
    end
  end;
  if stats then begin
    Format.printf "-- stats --@.";
    Format.printf "%a" Pta_ds.Stats.pp ();
    Format.printf "-- engine --@.";
    Format.printf "%a" Pta_engine.Telemetry.pp (Pta_engine.Telemetry.global ())
  end;
  0

let gen bench corpus seed scale output =
  let src =
    match corpus with
    | Some name -> (
      match Pta_workload.Corpus.find name with
      | Some src -> src
      | None ->
        Format.eprintf "unknown corpus program %s; available: %s@." name
          (String.concat ", " (List.map fst Pta_workload.Corpus.programs));
        exit 1)
    | None ->
      let cfg =
        match bench with
        | Some name -> (
          match Pta_workload.Suite.find ~scale name with
          | Some e -> e.Pta_workload.Suite.cfg
          | None ->
            Format.eprintf "unknown benchmark %s (see Suite.benchmarks)@." name;
            exit 1)
        | None -> Pta_workload.Gen.small_random seed
      in
      Pta_workload.Gen.source cfg
  in
  (match output with
  | Some path ->
    let oc = open_out path in
    output_string oc src;
    close_out oc;
    Format.printf "wrote %d lines to %s@." (Pta_workload.Gen.loc src) path
  | None -> print_string src);
  0

(* ---------------- cmdliner plumbing ---------------- *)

open Cmdliner

let analysis_conv =
  Arg.enum
    [ ("vsfs", `Vsfs); ("sfs", `Sfs); ("dense", `Dense);
      ("andersen", `Andersen); ("unify", `Unify) ]

let analyze_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let analysis =
    Arg.(value & opt analysis_conv `Vsfs & info [ "analysis"; "a" ]
           ~doc:"Analysis to run: vsfs (default), sfs, dense, andersen, or \
                 unify (Steensgaard-style unification, the lattice's \
                 cheapest tier).")
  in
  let queries =
    Arg.(value & opt_all string [] & info [ "query"; "q" ]
           ~docv:"NAME"
           ~doc:"Print the points-to set of the named variable or object \
                 (e.g. g.o for global g's storage). Repeatable.")
  in
  let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the IR.") in
  let dump_svfg =
    Arg.(value & flag & info [ "dump-svfg" ] ~doc:"Print SVFG nodes/edges.")
  in
  let dot_file =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write the SVFG as Graphviz dot.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Run both SFS and VSFS and verify they agree (§IV-E).")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Dump internal counters.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persistent analysis store: reuse cached pipeline artifacts \
                 keyed on the source contents, and save any that are \
                 missing. See also $(b,vsfs cache).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyse a mini-C (.c) or textual-IR (.ir) file")
    Term.(
      const analyze $ file $ analysis $ queries $ dump_ir
      $ dump_svfg $ dot_file $ check $ stats $ cache_dir)

let gen_cmd =
  let bench =
    Arg.(value & opt (some string) None & info [ "bench" ]
           ~doc:"Generate the named suite benchmark (du, ninja, ..., \
                 hyriseConsole).")
  in
  let corpus =
    Arg.(value & opt (some string) None & info [ "corpus" ]
           ~doc:"Write one of the hand-written corpus programs (hash_table, \
                 string_builder, event_loop, binary_tree, arena, \
                 state_machine, observer).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed (if no --bench).")
  in
  let scale = Arg.(value & opt float 1.0 & info [ "scale" ]) in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic mini-C benchmark program")
    Term.(const gen $ bench $ corpus $ seed $ scale $ output)

(* ---------------- fuzzing ---------------- *)

let fuzz runs seed max_shrink_steps oracle corpus_dir jobs =
  let cfg =
    { Pta_fuzz.Driver.runs; seed; max_shrink_steps; oracle; corpus_dir }
  in
  match Pta_fuzz.Driver.run ~jobs cfg with
  | Error e ->
    Format.eprintf "error: %s@." e;
    1
  | Ok report ->
    print_string (Pta_fuzz.Driver.report_to_string report);
    if report.Pta_fuzz.Driver.failures = [] then 0 else 1

let fuzz_cmd =
  let runs =
    Arg.(value & opt int 100 & info [ "runs"; "n" ] ~docv:"N"
           ~doc:"Number of fuzz cases to run.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
           ~doc:"Campaign seed. The whole campaign is deterministic in it: \
                 the same --runs/--seed prints a byte-identical report.")
  in
  let max_shrink_steps =
    Arg.(value & opt int 200 & info [ "max-shrink-steps" ] ~docv:"K"
           ~doc:"Oracle-check budget for minimising each failing program.")
  in
  let oracle =
    Arg.(value & opt (some string) None & info [ "oracle" ] ~docv:"NAME"
           ~doc:(Printf.sprintf
                   "Run a single oracle instead of the whole tower. One of: \
                    %s."
                   (String.concat ", " Pta_fuzz.Oracle.names)))
  in
  let corpus_dir =
    Arg.(value & opt (some string) None & info [ "corpus-dir" ] ~docv:"DIR"
           ~doc:"Persist each shrunk failing reproducer into DIR (the \
                 checked-in regression corpus lives in test/corpus_fuzz).")
  in
  let jobs =
    Arg.(value
         & opt int (Pta_par.Pool.default_jobs ())
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Fan cases out over N worker domains (default: the \
                   machine's recommended domain count). Never changes the \
                   report — every jobs count prints the same bytes.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate adversarial mini-C programs and \
          check every solver stage against the oracle tower (crash safety, \
          Naive-vs-Andersen soundness, Dense/SFS/VSFS equivalence, store \
          round-trip), then check the interned-set pool invariant. Oracle \
          failures are delta-debugged to a minimal reproducer. Exits 1 if \
          any case fails.")
    Term.(
      const fuzz $ runs $ seed $ max_shrink_steps $ oracle $ corpus_dir $ jobs)

(* ---------------- cache maintenance ---------------- *)

let cache_ls dir =
  let store = open_store dir in
  let entries = Store.ls store in
  if entries = [] then Format.printf "cache %s: empty@." dir
  else begin
    Format.printf "%-12s %-12s %10s  %-19s %s@." "STAGE" "KEY" "BYTES"
      "CREATED" "LABEL";
    List.iter
      (fun e ->
        let tm = Unix.localtime e.Pta_store.Manifest.created in
        Format.printf "%-12s %-12s %10d  %04d-%02d-%02d %02d:%02d:%02d %s@."
          e.Pta_store.Manifest.stage
          (String.sub e.Pta_store.Manifest.key 0
             (min 12 (String.length e.Pta_store.Manifest.key)))
          e.Pta_store.Manifest.bytes (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
          tm.Unix.tm_sec e.Pta_store.Manifest.label)
      entries;
    Format.printf "%d entries@." (List.length entries)
  end;
  0

let cache_gc dir =
  let store = open_store dir in
  let kept = ref 0 and removed = ref 0 in
  Store.gc store ~kept ~removed;
  Format.printf "cache %s: kept %d, removed %d@." dir !kept !removed;
  0

let cache_clear dir =
  let store = open_store dir in
  Format.printf "cache %s: removed %d entries@." dir (Store.clear store);
  0

let cache_cmd =
  let dir =
    Arg.(required & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"The store directory to operate on.")
  in
  let sub name doc f =
    Cmd.v (Cmd.info name ~doc) Term.(const f $ dir)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect and maintain a persistent analysis store")
    [
      sub "ls" "List cached entries (stage, key, size, age, label)." cache_ls;
      sub "gc"
        "Verify every entry's frame and checksum; delete corrupt or \
         version-skewed files and reconcile the manifest."
        cache_gc;
      sub "clear" "Delete every entry and the manifest." cache_clear;
    ]

(* ---------------- serve / query ---------------- *)

module Protocol = Pta_serve.Protocol

let fresh_tmp_dir () =
  let rec go n =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vsfs-serve-%d-%d" (Unix.getpid ()) n)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (n + 1)
  in
  go 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let serve file socket cache_dir jobs no_vsfs =
  let dir, cleanup =
    match cache_dir with
    | Some d -> (d, fun () -> ())
    | None ->
      (* no cache dir given: a private throwaway store, so the daemon still
         gets function-level splicing across its own reloads *)
      let d = fresh_tmp_dir () in
      (d, fun () -> rm_rf d)
  in
  Fun.protect ~finally:cleanup (fun () ->
      let store = open_store dir in
      Pta_par.Pool.with_pool ~jobs (fun pool ->
          match
            Pta_serve.Session.create ~store ~pool ~with_vsfs:(not no_vsfs) file
          with
          | Error e ->
            Format.eprintf "error: %s@." e;
            1
          | Ok session ->
            List.iter
              (fun (k, v) -> Format.printf "serve: %s = %s@." k v)
              (Pta_serve.Session.stats session);
            Format.printf "serve: listening on %s@." socket;
            Pta_serve.Server.run ~socket session;
            Format.printf "serve: shut down@.";
            0))

let parse_one_query words =
  match words with
  | [ "points-to"; n ] -> Ok (Protocol.Points_to n)
  | [ "may-alias"; a; b ] -> Ok (Protocol.May_alias (a, b))
  | [ "null"; n ] -> Ok (Protocol.Points_to_null n)
  | [ "callees"; n ] -> Ok (Protocol.Callees n)
  | _ ->
    Error
      (Printf.sprintf
         "cannot parse query %S (expected: points-to X | may-alias X Y | \
          null X | callees X)"
         (String.concat " " words))

let print_answer q a =
  match (q, a) with
  | Protocol.Points_to n, Protocol.Set l ->
    Format.printf "pt(%s) = {%s}@." n (String.concat ", " l)
  | Protocol.Callees n, Protocol.Set l ->
    Format.printf "callees(%s) = {%s}@." n (String.concat ", " l)
  | Protocol.May_alias (x, y), Protocol.Bool b ->
    Format.printf "may-alias(%s, %s) = %b@." x y b
  | Protocol.Points_to_null n, Protocol.Bool b ->
    Format.printf "null(%s) = %b@." n b
  | _, Protocol.Unknown m -> Format.printf "%s: unknown variable@." m
  | _ -> Format.printf "unexpected answer shape@."

let split_words line =
  List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))

(* Several queries can ride one command line: each query keyword starts a
   new group, so [points-to p may-alias p q] is two queries in one frame. *)
let group_queries words =
  let keyword w =
    List.mem w [ "points-to"; "may-alias"; "null"; "callees" ]
  in
  let groups =
    List.fold_left
      (fun acc w ->
        match acc with
        | cur :: rest when not (keyword w) -> (w :: cur) :: rest
        | _ -> [ w ] :: acc)
      [] words
  in
  let rec parse_all acc = function
    | [] -> Ok (List.rev acc)
    | g :: rest -> (
      match parse_one_query (List.rev g) with
      | Ok q -> parse_all (q :: acc) rest
      | Error e -> Error e)
  in
  parse_all [] (List.rev groups)

let read_stdin_queries () =
  let rec go acc =
    match input_line stdin with
    | line -> (
      match split_words line with
      | [] -> go acc
      | w -> (
        match parse_one_query w with
        | Ok q -> go (q :: acc)
        | Error e -> Error e))
    | exception End_of_file -> Ok (List.rev acc)
  in
  go []

let query socket retries tier use_stdin words =
  let intent =
    if use_stdin then
      match read_stdin_queries () with
      | Ok qs -> Ok (`Queries qs)
      | Error e -> Error e
    else
      match words with
      | [ "stats" ] -> Ok `Stats
      | [ "report" ] -> Ok `Report
      | [ "vars" ] -> Ok `Vars
      | [ "reload" ] -> Ok (`Reload None)
      | [ "reload"; f ] -> Ok (`Reload (Some f))
      | [ "shutdown" ] -> Ok `Shutdown
      | [] -> Error "no query given (try: vsfs query --socket S points-to X)"
      | w -> (
        match group_queries w with
        | Ok qs -> Ok (`Queries qs)
        | Error e -> Error e)
  in
  match intent with
  | Error e ->
    Format.eprintf "error: %s@." e;
    1
  | Ok intent -> (
    let request =
      match intent with
      | `Queries qs -> Protocol.Query (tier, qs)
      | `Vars -> Protocol.Vars
      | `Report -> Protocol.Report
      | `Stats -> Protocol.Stats
      | `Reload p -> Protocol.Reload p
      | `Shutdown -> Protocol.Shutdown
    in
    try
      Pta_serve.Client.with_connection ~retries socket (fun fd ->
          match (intent, Pta_serve.Client.request fd request) with
          | `Queries qs, Protocol.Answers (t, ans)
            when List.length ans = List.length qs ->
            (* exact stays silent so the default output is byte-comparable
               with a cold [vsfs analyze] run *)
            if t <> Protocol.Exact then
              Format.printf "tier: %s@." (Protocol.tier_name t);
            List.iter2 print_answer qs ans;
            0
          | `Vars, Protocol.Names ns ->
            List.iter print_endline ns;
            0
          | `Report, Protocol.Report_r rows ->
            List.iter
              (fun (n, l) ->
                Format.printf "pt(%s) = {%s}@." n (String.concat ", " l))
              rows;
            0
          | `Stats, Protocol.Stats_r kvs ->
            List.iter (fun (k, v) -> Format.printf "%s = %s@." k v) kvs;
            0
          | `Reload _, Protocol.Reloaded i ->
            Format.printf
              "reload: funcs=%d reused=%d dirty=%d scheduled=%d pops=%d \
               spliceable=%b warm_build=%b@."
              i.Protocol.r_total i.Protocol.r_reused i.Protocol.r_dirty
              i.Protocol.r_scheduled i.Protocol.r_pops i.Protocol.r_spliceable
              i.Protocol.r_warm_build;
            0
          | `Shutdown, Protocol.Shutting_down ->
            Format.printf "shutdown: ok@.";
            0
          | _, Protocol.Error m ->
            Format.eprintf "error: %s@." m;
            1
          | _ ->
            Format.eprintf "error: unexpected reply from daemon@.";
            1)
    with
    | Unix.Unix_error (e, _, _) ->
      Format.eprintf "error: cannot reach daemon at %s: %s@." socket
        (Unix.error_message e);
      1
    | Pta_store.Codec.Corrupt m ->
      Format.eprintf "error: %s@." m;
      1)

let serve_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket to listen on (created; unlinked on exit).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persistent analysis store backing incremental reloads. \
                 Defaults to a private temporary store deleted on exit.")
  in
  let jobs =
    Arg.(value
         & opt int (Pta_par.Pool.default_jobs ())
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains for batched query fan-out.")
  in
  let no_vsfs =
    Arg.(value & flag & info [ "no-vsfs" ]
           ~doc:"Skip the resident VSFS solve (and its standing SFS \
                 cross-check) on load and reload.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Start a resident analysis daemon: load and solve FILE once, then \
          answer points-to queries over a Unix socket. $(b,reload) requests \
          re-digest per function and re-solve only the functions whose \
          digests changed.")
    Term.(const serve $ file $ socket $ cache_dir $ jobs $ no_vsfs)

let query_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"The daemon's Unix domain socket.")
  in
  let retries =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry the connection N times (0.1s apart) while the socket \
                 is absent or refusing — useful right after starting the \
                 daemon.")
  in
  let tier =
    Arg.(value
         & opt
             (enum
                [ ("unify", Protocol.Unify); ("andersen", Protocol.Andersen);
                  ("exact", Protocol.Exact) ])
             Protocol.Exact
         & info [ "tier" ] ~docv:"TIER"
             ~doc:"Least precise answer tier to accept: unify, andersen, or \
                   exact (default). The daemon answers from the cheapest \
                   accepted tier's resident snapshot and replies with a \
                   $(i,tier:) line for non-exact answers. Coarser tiers can \
                   only grow points-to sets / flip may-alias to true.")
  in
  let use_stdin =
    Arg.(value & flag & info [ "stdin" ]
           ~doc:"Read one query per line from stdin and send them as a \
                 single batched request.")
  in
  let words =
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY"
           ~doc:"points-to X | may-alias X Y | null X | callees X | report \
                 | vars | stats | reload [FILE] | shutdown")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query a running $(b,vsfs serve) daemon")
    Term.(const query $ socket $ retries $ tier $ use_stdin $ words)

let bench_cmd =
  Cmd.v (Cmd.info "bench" ~doc:"Reproduce the paper's tables")
    Term.(
      const (fun () ->
          Format.printf
            "Use: dune exec bench/main.exe -- [tableI|tableII|tableIII|ablations|warm|micro|all] [scale]@.";
          0)
      $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "vsfs" ~version:"1.0"
       ~doc:
         "Object versioning for flow-sensitive pointer analysis (CGO 2021 \
          reproduction)")
    [ analyze_cmd; gen_cmd; fuzz_cmd; cache_cmd; serve_cmd; query_cmd;
      bench_cmd ]

let () = exit (Cmd.eval' main_cmd)
