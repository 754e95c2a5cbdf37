(* The benchmark's measuring process. [run.py] drives it: one process per
   analysed program and solver (so interning pools, memo tables and the
   peak-RSS figure belong to that analysis alone), one per daemon session
   and one per in-process replay. Every subcommand prints one JSON object
   on stdout; [run.py] aggregates, checks answers and renders results. *)

module Pipeline = Pta_workload.Pipeline
module Incr = Pta_workload.Incr
module Gen = Pta_workload.Gen
module Suite = Pta_workload.Suite
module Prog = Pta_ir.Prog
module Svfg = Pta_svfg.Svfg
module Sfs = Pta_sfs.Sfs
module Vsfs = Vsfs_core.Vsfs
module Versioning = Vsfs_core.Versioning
module Queries = Vsfs_core.Queries
module Telemetry = Pta_engine.Telemetry
module Stats = Pta_ds.Stats
module Ptset = Pta_ds.Ptset
module Bitset = Pta_ds.Bitset
module Store = Pta_store.Store
module Artifact = Pta_store.Artifact
module Protocol = Pta_serve.Protocol
module Session = Pta_serve.Session
module Client = Pta_serve.Client

let now = Trace.now

(* ---------- inputs ---------- *)

let source program ~scale =
  match Suite.find ~scale program with
  | Some e -> Gen.source e.Suite.cfg
  | None -> invalid_arg ("unknown program " ^ program)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Replace atomically, so a daemon never reads a half-written source. *)
let write_file path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc s;
  close_out oc;
  Sys.rename tmp path

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun a e -> a + dir_bytes (Filename.concat path e))
      0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* ---------- JSON out ---------- *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let num f = if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
let int = string_of_int

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let arr l = "[" ^ String.concat "," l ^ "]"
let floats l = arr (List.map num l)

let counters snap = obj (List.map (fun (k, v) -> (k, int v)) snap)

let counters_since before =
  counters
    (List.map
       (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
       (Stats.snapshot ()))

let stage_times ctx =
  obj (List.map (fun (k, s, _) -> (k, num s)) (Pipeline.stage_log ctx))

(* One solver run's engine and set counters. *)
let solver_fields ~words ~unshared ~unique ~props ph =
  let s = Telemetry.snapshot ph in
  obj
    [
      ("pushes", int s.Telemetry.s_pushes);
      ("dups", int s.Telemetry.s_dups);
      ("pops", int s.Telemetry.s_pops);
      ("grew", int s.Telemetry.s_grew);
      ("wall", num s.Telemetry.s_wall);
      ("props", int props);
      ("set_words", int words);
      ("unshared_words", int unshared);
      ("unique_sets", int unique);
    ]

let sfs_fields r =
  solver_fields ~words:(Sfs.words r) ~unshared:(Sfs.unshared_words r)
    ~unique:(Sfs.n_unique_sets r) ~props:(Sfs.n_propagations r) (Sfs.telemetry r)

let vsfs_fields r =
  solver_fields ~words:(Vsfs.words r) ~unshared:(Vsfs.unshared_words r)
    ~unique:(Vsfs.n_unique_sets r) ~props:(Vsfs.n_propagations r)
    (Vsfs.telemetry r)

let compile_traced src =
  Trace.span "cfront" (fun () -> Pta_cfront.Lower.compile src)

(* ---------- batch: one program through one solver ---------- *)

type solved = Sfs_r of Sfs.result | Vsfs_r of Vsfs.result * Versioning.t

(* Source text to the solver's final points-to answers, through the same
   stages [vsfs analyze] runs (no store, one job). *)
let analyze ctx ~solver src =
  let b =
    Trace.span "andersen" (fun () ->
        Pipeline.build_source ~ctx ~compile:compile_traced src)
  in
  let svfg = Trace.span "svfg" (fun () -> Pipeline.fresh_svfg ~ctx b) in
  let shape = (Svfg.n_nodes svfg, Svfg.n_indirect_edges svfg) in
  match solver with
  | "sfs" ->
    let r =
      Trace.span "sfs.solve" (fun () ->
          Pipeline.Stage.run ctx Pipeline.stage_sfs (b, svfg))
    in
    let pt =
      Trace.span "pipeline.extract" (fun () -> Pipeline.points_to_of_sfs b r)
    in
    (b, svfg, shape, pt, Sfs_r r)
  | "vsfs" ->
    let _, _, ver =
      Trace.span "versioning" (fun () ->
          Pipeline.Stage.run ctx Pipeline.stage_versioning (b, svfg))
    in
    let r, _ =
      Trace.span "vsfs.solve" (fun () ->
          Pipeline.Stage.run ctx Pipeline.stage_vsfs (b, svfg, ver))
    in
    let pt =
      Trace.span "pipeline.extract" (fun () -> Pipeline.points_to_of_vsfs b r)
    in
    (b, svfg, shape, pt, Vsfs_r (r, ver))
  | s -> invalid_arg ("unknown solver " ^ s)

(* The batch client's query API ({!Vsfs_core.Queries}) over the VSFS
   result, each answer rendered as names the way [vsfs analyze] and the
   daemon render them: a fixed mix of points-to sets (half), alias pairs
   and devirtualisation (a quarter each) on top-level variables. They are
   timed in [count] requests of [per_request] queries, as one [Query]
   message of the daemon may carry several, and each request's answers
   are checked against the extracted ones after it is timed. A single
   query's time sits at the knee between the mix's cheap and costly kinds,
   where the host's noise moves its percentiles by a third from run to
   run; a request's time does not. *)
let per_request = 4

let batch_queries prog pt r ~count =
  let tops = ref [] in
  Prog.iter_vars prog (fun v -> if Prog.is_top prog v then tops := v :: !tops);
  let tops = Array.of_list (List.rev !tops) in
  let st = Random.State.make [| 0x9e5; Prog.n_vars prog |] in
  let pick () = tops.(Random.State.int st (Array.length tops)) in
  let names l = List.map (Prog.name prog) l in
  let fnames l = List.map (fun f -> (Prog.func prog f).Prog.fname) l in
  (* A query: answering it returns the check of its answer. *)
  let draw () =
    match Random.State.int st 4 with
    | 0 | 1 ->
      let v = pick () in
      fun () ->
        let a = names (Ptset.elements (Queries.points_to_set r v)) in
        fun () -> a = names (Bitset.elements pt.Artifact.top.(v))
    | 2 ->
      let v = pick () and w = pick () in
      fun () ->
        let a = Queries.may_alias r v w in
        fun () -> a = Bitset.intersects pt.Artifact.top.(v) pt.Artifact.top.(w)
    | _ ->
      let v = pick () in
      fun () ->
        let a = fnames (Queries.devirtualise r prog v) in
        fun () ->
          let expect =
            Bitset.fold
              (fun o acc ->
                match Prog.is_function_obj prog o with
                | Some f -> f :: acc
                | None -> acc)
              pt.Artifact.top.(v) []
          in
          List.sort compare a = List.sort compare (fnames expect)
  in
  let wrong = ref 0 in
  (* the analysis leaves major-GC work pending; finish it before timing *)
  Gc.full_major ();
  let times =
    List.init count (fun _ ->
        let qs = List.init per_request (fun _ -> draw ()) in
        let t0 = now () in
        let checks = List.map (fun q -> q ()) qs in
        let dt = now () -. t0 in
        List.iter (fun c -> if not (c ()) then incr wrong) checks;
        dt)
  in
  (times, !wrong)

let batch ~source ~label ~solver ~queries =
  (* Set-up is a few milliseconds, so it is timed five times and the
     median kept. *)
  let src = ref "" in
  let times =
    List.init 5 (fun _ ->
        let s, t = Trace.op "setup" source in
        src := s;
        t)
  in
  let src = !src and setup_s = List.nth (List.sort compare times) 2 in
  Stats.reset_all ();
  let ctx = Pipeline.context () in
  (* The analysis runs on one domain and waits on nothing, so its
     processor time is its wall time on an unshared machine. On a shared
     host the wall time also counts the time the hypervisor gives this
     vCPU to other guests: over two minutes of repeated analyses it
     drifted by 27% between 20 s windows, the processor time by 4%. *)
  let cpu0 = Sys.time () in
  let (b, _, (nodes, ind), pt, solved), e2e =
    Trace.op "analyze" (fun () -> analyze ctx ~solver src)
  in
  let e2e_cpu = Sys.time () -. cpu0 in
  let hwm = Check.proc_status_mb "VmHWM" in
  let stats = Stats.snapshot () in
  let prog = b.Pipeline.prog in
  let solver_obj, query_s, query_wrong =
    match solved with
    | Sfs_r r -> ([ ("sfs", sfs_fields r) ], [], 0)
    | Vsfs_r (r, ver) ->
      let times, wrong = batch_queries prog pt r ~count:queries in
      ( [ ("vsfs", vsfs_fields r); ("versions", int (Versioning.n_versions ver)) ],
        times,
        wrong )
  in
  print_endline
    (obj
       ([
          ("program", str label);
          ("solver", str solver);
          ("loc", int b.Pipeline.loc);
          ("setup_s", num setup_s);
          ("e2e_s", num e2e);
          ("e2e_cpu_s", num e2e_cpu);
          ("rss_mb", num hwm);
          ("digest", str (Check.points_to_digest prog pt));
          ("report", str (Check.report_digest (Check.report_rows prog pt)));
          ("query_s", floats query_s);
          ("queries", int (per_request * List.length query_s));
          ("query_wrong", int query_wrong);
          ("stages", stage_times ctx);
          ("pre_merged", int b.Pipeline.pre_merged);
          ("pre_vars", int b.Pipeline.pre_vars);
          ("svfg_nodes", int nodes);
          ("svfg_indirect", int ind);
          ("ptset_unique", int (Ptset.n_unique ()));
          ("ptset_pool_words", int (Ptset.pool_words ()));
          ("counters", counters stats);
        ]
       @ solver_obj
       @ [ ("spans", Trace.to_json ()) ]))

(* SFS and VSFS in one process, their agreement confirmed by [Equiv]. *)
let solve_both src =
  let b, svfg, _, pt, rs = analyze (Pipeline.context ()) ~solver:"sfs" src in
  let _, _, _, pt_v, rv = analyze (Pipeline.context ()) ~solver:"vsfs" src in
  let equal =
    match (rs, rv) with
    | Sfs_r s, Vsfs_r (v, _) ->
      Vsfs_core.Equiv.is_equal (Vsfs_core.Equiv.compare s v svfg)
      && Check.points_to_digest b.Pipeline.prog pt
         = Check.points_to_digest b.Pipeline.prog pt_v
    | _ -> false
  in
  if not equal then begin
    prerr_endline "record: SFS and VSFS disagree";
    exit 1
  end;
  (b.Pipeline.prog, pt)

let record_batch ~program ~scale =
  let prog, pt = solve_both (source program ~scale) in
  print_endline
    (obj
       [
         ("digest", str (Check.points_to_digest prog pt));
         ("report", str (Check.report_digest (Check.report_rows prog pt)));
       ])

(* ---------- the daemon workload ---------- *)

let daemon_source ~scale = source "tmux" ~scale

(* Per cycle of the script: the SFS report digest of the post-edit source,
   and per query variant the digest of that cycle's answers. *)
let record_daemon ~scale ~variants ~cycles ~queries =
  let src = ref (daemon_source ~scale) in
  let cycles =
    List.init cycles (fun i ->
        let cycle = i + 1 in
        src := Edits.apply ~cycle !src;
        let prog, pt = solve_both !src in
        let names = Check.var_names prog in
        let answers variant =
          Edits.queries ~variant ~cycle ~count:queries names
          |> List.map (Check.oracle prog pt)
          |> Check.answers_digest
        in
        (Check.report_digest (Check.report_rows prog pt), List.init variants answers))
  in
  print_endline
    (obj
       [
         ("reports", arr (List.map (fun (r, _) -> str r) cycles));
         ( "answers",
           arr
             (List.init variants (fun v ->
                  arr (List.map (fun (_, a) -> str (List.nth a v)) cycles))) );
       ])

let daemon_pid = ref None

let kill_daemon () =
  match !daemon_pid with
  | None -> ()
  | Some pid ->
    daemon_pid := None;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

(* Spawn [vsfs serve -j 1] on [path] with a fresh store and wait for its
   first answer; returns the connection, the daemon's pid and the seconds
   from spawn to that answer (a cold load). *)
let spawn ~vsfs ~dir ~path ~sock k =
  let store = Filename.concat dir (Printf.sprintf "store%d" k) in
  let log =
    Unix.openfile
      (Filename.concat dir (Printf.sprintf "daemon%d.log" k))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let t0 = now () in
  let pid =
    Unix.create_process vsfs
      [| vsfs; "serve"; path; "--socket"; sock; "--cache-dir"; store; "--jobs"; "1" |]
      Unix.stdin log log
  in
  Unix.close log;
  daemon_pid := Some pid;
  let rec connect () =
    match Client.connect sock with
    | fd -> fd
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        daemon_pid := None;
        failwith "daemon exited before answering");
      if now () -. t0 > 120. then failwith "daemon did not come up";
      Unix.sleepf 0.001;
      connect ()
  in
  let fd = connect () in
  match Client.request fd Protocol.Vars with
  | Protocol.Names _ -> (fd, pid, now () -. t0)
  | _ -> failwith "daemon: unexpected reply to Vars"

let shutdown fd pid =
  (try ignore (Client.request fd Protocol.Shutdown) with _ -> ());
  Unix.close fd;
  ignore (Unix.waitpid [] pid);
  daemon_pid := None

(* A cold [pb batch] of [file] in a child process; its result line,
   passed through verbatim. *)
let batch_child ~file ~solver =
  let pb = Sys.executable_name in
  let ic =
    Unix.open_process_args_in pb
      [| pb; "batch"; "--file"; file; "--solver"; solver; "--queries"; "0" |]
  in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ when last <> "" -> last
  | _ -> failwith ("pb batch --solver " ^ solver ^ " failed")

(* One session: [spawns - 1] cold starts that are only timed, then a
   measured daemon driven through [cycles] edit → Reload → Vars → queries
   rounds over one connection (a closed loop). Between rounds, spread
   evenly over the session so a slow spell of the host does not land on
   all of them, [checks] pairs of cold batch SFS and VSFS runs analyse the
   script's final source; the caller compares their reports with the
   daemon's last one. *)
let daemon ~scale ~variant ~cycles ~queries ~spawns ~checks ~vsfs ~dir =
  let path = Filename.concat dir "prog.c" and sock = Filename.concat dir "d.sock" in
  let src = ref (daemon_source ~scale) in
  write_file path !src;
  let final = Filename.concat dir "final.c" in
  write_file final
    (List.fold_left (fun s c -> Edits.apply ~cycle:c s) !src (List.init cycles succ));
  let batches = ref [] in
  let setups =
    List.init (spawns - 1) (fun k ->
        let fd, pid, s = spawn ~vsfs ~dir ~path ~sock k in
        shutdown fd pid;
        s)
  in
  let fd, pid, s = spawn ~vsfs ~dir ~path ~sock spawns in
  let setups = setups @ [ s ] in
  let status = Check.proc_status_mb ~pid:(int pid) in
  let rss_load = status "VmRSS" in
  let reloads = ref [] and pops = ref [] and lat = ref [] in
  let rows = ref [] and errors = ref [] in
  let err c what = errors := Printf.sprintf "cycle %d: %s" c what :: !errors in
  let request c what req =
    match Client.request fd req with
    | Protocol.Error e ->
      err c (what ^ ": " ^ e);
      None
    | r -> Some r
  in
  for c = 1 to cycles do
    src := Edits.apply ~cycle:c !src;
    write_file path !src;
    let t0 = now () in
    (match request c "reload" (Protocol.Reload None) with
    | Some (Protocol.Reloaded i) ->
      reloads := (now () -. t0) :: !reloads;
      pops := i.Protocol.r_pops :: !pops
    | Some _ -> err c "reload: unexpected reply"
    | None -> ());
    let report =
      match request c "report" Protocol.Report with
      | Some (Protocol.Report_r rows) -> Check.report_digest rows
      | _ -> ""
    in
    let names =
      match request c "vars" Protocol.Vars with
      | Some (Protocol.Names n) -> n
      | _ -> []
    in
    let qs = if names = [] then [] else Edits.queries ~variant ~cycle:c ~count:queries names in
    let answers =
      List.map
        (fun q ->
          let t0 = now () in
          match request c "query" (Protocol.Query (Protocol.Exact, [ q ])) with
          | Some (Protocol.Answers (_, [ a ])) ->
            lat := (now () -. t0) :: !lat;
            a
          | _ -> Protocol.Unknown "<no answer>")
        qs
    in
    rows :=
      obj
        [
          ("report", str report);
          ("answers", str (Check.answers_digest answers));
          ("queries", int (List.length qs));
        ]
      :: !rows;
    for _ = 1 to (c * checks / cycles) - ((c - 1) * checks / cycles) do
      let s = batch_child ~file:final ~solver:"sfs" in
      let v = batch_child ~file:final ~solver:"vsfs" in
      batches := v :: s :: !batches
    done
  done;
  let rss_end = status "VmRSS" and hwm = status "VmHWM" in
  shutdown fd pid;
  print_endline
    (obj
       [
         ("setup_s", floats setups);
         ("reload_s", floats (List.rev !reloads));
         ("reload_pops", arr (List.rev_map int !pops));
         ("query_s", floats (List.rev !lat));
         ("cycles", arr (List.rev !rows));
         ("errors", arr (List.rev_map str !errors));
         ("rss_mb", num hwm);
         ("rss_growth_mb", num (rss_end -. rss_load));
         ("batch", arr (List.rev !batches));
       ])

(* ---------- replay: the daemon's work in-process ---------- *)

(* Untraced: the daemon's own entry points ([Session.create]/[reload]/
   [answers]) and the wire codec, each call timed. *)
let replay_session ~scale ~variant ~cycles ~queries ~dir =
  let path = Filename.concat dir "prog.c" in
  let src = ref (daemon_source ~scale) in
  write_file path !src;
  let store = Store.open_ (Filename.concat dir "store") in
  Pta_par.Pool.with_pool ~jobs:1 (fun pool ->
      let s =
        match Session.create ~store ~pool ~with_vsfs:true path with
        | Ok s -> s
        | Error e -> failwith e
      in
      let rss_load = Check.proc_status_mb "VmRSS" in
      let reloads = ref [] and answers_s = ref [] and codec_s = ref [] in
      let digests = ref [] in
      for cycle = 1 to cycles do
        src := Edits.apply ~cycle !src;
        write_file path !src;
        let t0 = now () in
        (match Session.reload s () with
        | Ok _ -> reloads := (now () -. t0) :: !reloads
        | Error e -> failwith e);
        let qs = Edits.queries ~variant ~cycle ~count:queries (Session.var_names s) in
        let answers =
          List.map
            (fun q ->
              let t0 = now () in
              let a = Session.answers s [ q ] in
              let t1 = now () in
              let req = Protocol.Query (Protocol.Exact, [ q ]) in
              let rep = Protocol.Answers (Protocol.Exact, a) in
              let ok =
                Protocol.decode_request (Protocol.encode_request req) = req
                && Protocol.decode_reply (Protocol.encode_reply rep) = rep
              in
              let t2 = now () in
              if not ok then failwith "protocol round trip changed a message";
              answers_s := (t1 -. t0) :: !answers_s;
              codec_s := (t2 -. t1) :: !codec_s;
              match a with [ x ] -> x | _ -> Protocol.Unknown "<no answer>")
            qs
        in
        digests := str (Check.answers_digest answers) :: !digests
      done;
      let rss_end = Check.proc_status_mb "VmRSS" in
      print_endline
        (obj
           [
             ("reload_s", floats (List.rev !reloads));
             ("answers_s", floats (List.rev !answers_s));
             ("codec_s", floats (List.rev !codec_s));
             ("answers", arr (List.rev !digests));
             ("rss_growth_mb", num (rss_end -. rss_load));
           ]))

(* Traced: the calls [Session.load] makes, one span per layer. The VSFS
   cross-check's versioning is computed explicitly so it gets its own span
   ([Vsfs.solve] computes the same table itself when not given one). *)
let load_traced ~store ~path =
  let src = read_file path in
  let ctx = Pipeline.context ~store ~label:path () in
  let b =
    Trace.span "andersen" (fun () ->
        Pipeline.build_source ~ctx ~compile:compile_traced src)
  in
  let svfg = Trace.span "svfg" (fun () -> Pipeline.fresh_svfg ~ctx b) in
  let shape = (Svfg.n_nodes svfg, Svfg.n_indirect_edges svfg) in
  let r, istats, _ =
    Trace.span "incr.splice" (fun () -> Incr.run_sfs_spliced ~store ~label:path b svfg)
  in
  let snap = Trace.span "pipeline.extract" (fun () -> Pipeline.points_to_of_sfs b r) in
  Trace.span "serve.unify" (fun () ->
      (* the cheaper tiers' snapshots, shaped like the exact one *)
      let prog = b.Pipeline.prog in
      let n = Prog.n_vars prog in
      let tier pt =
        {
          Artifact.top = Array.init n pt;
          obj =
            Array.init n (fun v ->
                if Prog.is_object prog v && not (Prog.is_dead prog v) then pt v
                else Bitset.create ());
        }
      in
      let u, _ = Pipeline.run_unify ~ctx b in
      ignore
        (Sys.opaque_identity
           (tier b.Pipeline.aux.Pta_memssa.Modref.pt, tier (Pta_andersen.Unify.pts u))));
  let rv, ver =
    Trace.span "serve.crosscheck" (fun () ->
        let svfg2 = Trace.span "svfg" (fun () -> Pipeline.fresh_svfg ~ctx b) in
        let ver = Trace.span "versioning" (fun () -> Versioning.compute svfg2) in
        let rv = Trace.span "vsfs.solve" (fun () -> Vsfs.solve ~versioning:ver svfg2) in
        let pv = Trace.span "pipeline.extract" (fun () -> Pipeline.points_to_of_vsfs b rv) in
        let eq a b = Array.for_all2 Bitset.equal a b in
        if not (eq snap.Artifact.top pv.Artifact.top && eq snap.Artifact.obj pv.Artifact.obj)
        then failwith "spliced SFS and VSFS disagree";
        (rv, ver))
  in
  (b, ctx, shape, r, istats, rv, ver, snap)

let replay_traced ~scale ~cycles ~dir =
  let path = Filename.concat dir "prog.c" in
  let src = ref (daemon_source ~scale) in
  write_file path !src;
  let store_dir = Filename.concat dir "store" in
  let store = Store.open_ store_dir in
  (* like a session, hold the previous state while the next one loads *)
  let held = ref None in
  let one kind =
    let before = Stats.snapshot () in
    let (b, ctx, (nodes, ind), r, istats, rv, ver, snap), e2e =
      Trace.op kind (fun () -> load_traced ~store ~path)
    in
    held := Some (b, r, rv, snap);
    let delta = counters_since before in
    ( obj
      [
        ("kind", str kind);
        ("e2e_s", num e2e);
        ("report", str (Check.report_digest (Check.report_rows b.Pipeline.prog snap)));
        ("loc", int b.Pipeline.loc);
        ("pre_merged", int b.Pipeline.pre_merged);
        ("pre_vars", int b.Pipeline.pre_vars);
        ("stages", stage_times ctx);
        ("svfg_nodes", int nodes);
        ("svfg_indirect", int ind);
        ("versions", int (Versioning.n_versions ver));
        ("funcs_total", int istats.Incr.funcs_total);
        ("funcs_reused", int istats.Incr.funcs_reused);
        ("counters", delta);
        ("sfs", sfs_fields r);
        ("vsfs", vsfs_fields rv);
      ],
      (b, ctx) )
  in
  let load, _ = one "load" in
  let reloads, last =
    List.split
      (List.init cycles (fun i ->
           src := Edits.apply ~cycle:(i + 1) !src;
           write_file path !src;
           one "reload"))
  in
  (* off the measured path: the digest table the splice builds inside it,
     timed on the final program *)
  let digest_s =
    match List.rev last with
    | [] -> []
    | (b, ctx) :: _ ->
      List.init 5 (fun _ ->
          let svfg = Pipeline.fresh_svfg ~ctx b in
          let t0 = now () in
          ignore (Sys.opaque_identity (Incr.digest_table b svfg));
          now () -. t0)
  in
  ignore (Sys.opaque_identity !held);
  print_endline
    (obj
       [
         ("ops", arr (load :: reloads));
         ("digest_s", floats digest_s);
         ("ptset_unique", int (Ptset.n_unique ()));
         ("ptset_pool_words", int (Ptset.pool_words ()));
         ("store_mb", num (float_of_int (dir_bytes store_dir) /. 1048576.));
         ("spans", Trace.to_json ());
       ])

(* ---------- command line ---------- *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let program = ref "" and file = ref "" and solver = ref "sfs" in
  let scale = ref 0.1 and variant = ref 0 and cycles = ref 20 in
  let queries = ref 50 and spawns = ref 1 and checks = ref 0 in
  let vsfs = ref "" and dir = ref "" in
  let spec =
    [
      ("--program", Arg.Set_string program, "NAME suite program");
      ("--file", Arg.Set_string file, "PATH analyse this source instead");
      ("--solver", Arg.Set_string solver, "sfs|vsfs");
      ("--scale", Arg.Set_float scale, "S generator scale");
      ("--variant", Arg.Set_int variant, "N query variant of the daemon workload (record-daemon: how many)");
      ("--cycles", Arg.Set_int cycles, "N edit cycles");
      ("--queries", Arg.Set_int queries, "N queries (per cycle for the daemon)");
      ("--spawns", Arg.Set_int spawns, "N daemon cold starts, the last one measured");
      ("--checks", Arg.Set_int checks, "N cold batch SFS + VSFS pairs of the daemon's final source");
      ("--vsfs", Arg.Set_string vsfs, "PATH vsfs executable");
      ("--dir", Arg.Set_string dir, "DIR private working directory");
      ("--trace", Arg.Set Trace.enabled, " record spans");
    ]
  in
  let usage =
    "pb (batch|record-batch|record-daemon|daemon|replay) [options]"
  in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad a)) usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  at_exit kill_daemon;
  let on_signal = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  match cmd with
  | "batch" ->
    let label, src =
      if !file <> "" then (!file, fun () -> read_file !file)
      else (!program, fun () -> source !program ~scale:!scale)
    in
    batch ~source:src ~label ~solver:!solver ~queries:!queries
  | "record-batch" -> record_batch ~program:!program ~scale:!scale
  | "record-daemon" ->
    record_daemon ~scale:!scale ~variants:!variant ~cycles:!cycles ~queries:!queries
  | "daemon" ->
    daemon ~scale:!scale ~variant:!variant ~cycles:!cycles ~queries:!queries
      ~spawns:!spawns ~checks:!checks ~vsfs:!vsfs ~dir:!dir
  | "replay" ->
    if !Trace.enabled then
      replay_traced ~scale:!scale ~cycles:!cycles ~dir:!dir
    else
      replay_session ~scale:!scale ~variant:!variant ~cycles:!cycles
        ~queries:!queries ~dir:!dir
  | _ ->
    prerr_endline usage;
    exit 2
