(* Tests for the serving stack: function-level incremental re-analysis
   (Pta_workload.Incr), the daemon session (Pta_serve.Session), the wire
   protocol (Pta_serve.Protocol) and an end-to-end forked daemon. The
   anchor property throughout: a spliced / resident answer is bit-identical
   to a cold batch solve of the same source. *)

open Pta_ir
module Pipeline = Pta_workload.Pipeline
module Incr = Pta_workload.Incr
module Sfs = Pta_sfs.Sfs
module Store = Pta_store.Store
module Bitset = Pta_ds.Bitset

let counter = ref 0

let fresh_dir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pta-serve-test-%d-%d" (Unix.getpid ()) !counter)
  in
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_store f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Store.open_ dir))

(* ---------- incremental splicing ---------- *)

let solve_cold src =
  let b = Pipeline.build_source src in
  let svfg = Pipeline.fresh_svfg b in
  (b, Sfs.solve svfg)

let solve_spliced ~store src =
  let b = Pipeline.build_source src in
  let svfg = Pipeline.fresh_svfg b in
  let r, stats, _ = Incr.run_sfs_spliced ~store b svfg in
  (b, r, stats)

(* every var's pt and every object's object-pt must coincide *)
let check_same_answers what (bc, rc) (bs, rs) =
  Alcotest.(check int)
    (what ^ ": same n_vars") (Prog.n_vars bc.Pipeline.prog)
    (Prog.n_vars bs.Pipeline.prog);
  let pc = bc.Pipeline.prog in
  Prog.iter_vars pc (fun v ->
      let n = Prog.name pc v in
      if not (Bitset.equal (Sfs.pt rc v) (Sfs.pt rs v)) then
        Alcotest.failf "%s: pt(%s) differs: {%s} vs {%s}" what n
          (String.concat "," (List.map (Prog.name pc) (Bitset.elements (Sfs.pt rc v))))
          (String.concat "," (List.map (Prog.name pc) (Bitset.elements (Sfs.pt rs v))));
      if Prog.is_object pc v && not (Prog.is_dead pc v) then
        if not (Bitset.equal (Sfs.object_pt rc v) (Sfs.object_pt rs v)) then
          Alcotest.failf "%s: object_pt(%s) differs" what n)

let src_base =
  {|
  global g;
  func set(p, v) { *p = v; }
  func get(p) { var r; r = *p; return r; }
  func log(p) { var t; t = *p; }
  func main() {
    var s, h1, h2, out;
    s = malloc();
    h1 = malloc();
    h2 = malloc();
    set(s, h1);
    out = get(s);
    log(s);
    g = h2;
  }
  |}

(* an edit confined to the pure sink [log]: influences no other function *)
let src_log_edited =
  {|
  global g;
  func set(p, v) { *p = v; }
  func get(p) { var r; r = *p; return r; }
  func log(p) { var t, u; t = *p; u = t; }
  func main() {
    var s, h1, h2, out;
    s = malloc();
    h1 = malloc();
    h2 = malloc();
    set(s, h1);
    out = get(s);
    log(s);
    g = h2;
  }
  |}

(* an edit that changes values flowing everywhere: set stores v twice *)
let src_set_edited =
  {|
  global g;
  func set(p, v) { var w; w = malloc(); *p = v; *p = w; }
  func get(p) { var r; r = *p; return r; }
  func log(p) { var t; t = *p; }
  func main() {
    var s, h1, h2, out;
    s = malloc();
    h1 = malloc();
    h2 = malloc();
    set(s, h1);
    out = get(s);
    log(s);
    g = h2;
  }
  |}

let test_spliced_cold_equals_batch () =
  with_store (fun store ->
      let bc, rc = solve_cold src_base in
      let bs, rs, stats = solve_spliced ~store src_base in
      Alcotest.(check bool) "spliceable" true stats.Incr.spliceable;
      Alcotest.(check int) "nothing reused on a cold store" 0
        stats.Incr.funcs_reused;
      check_same_answers "cold" (bc, rc) (bs, rs))

let test_warm_restart_full_reuse () =
  with_store (fun store ->
      let _ = solve_spliced ~store src_base in
      let bc, rc = solve_cold src_base in
      let bs, rs, stats = solve_spliced ~store src_base in
      Alcotest.(check int) "all functions reused" stats.Incr.funcs_total
        stats.Incr.funcs_reused;
      Alcotest.(check int) "nothing scheduled" 0 stats.Incr.scheduled;
      Alcotest.(check int) "zero engine pops" 0 (Sfs.processed rs);
      check_same_answers "warm" (bc, rc) (bs, rs))

let test_sink_edit_partial_reuse () =
  with_store (fun store ->
      let _, r0, _ = solve_spliced ~store src_base in
      let cold_pops = Sfs.processed r0 in
      let bc, rc = solve_cold src_log_edited in
      let bs, rs, stats = solve_spliced ~store src_log_edited in
      Alcotest.(check bool) "some functions reused"
        true (stats.Incr.funcs_reused > 0);
      Alcotest.(check bool)
        (Printf.sprintf "fewer pops than cold (%d < %d)" (Sfs.processed rs)
           cold_pops)
        true
        (Sfs.processed rs < cold_pops);
      check_same_answers "sink edit" (bc, rc) (bs, rs))

let test_upstream_edit_still_correct () =
  with_store (fun store ->
      let _ = solve_spliced ~store src_base in
      let bc, rc = solve_cold src_set_edited in
      let bs, rs, stats = solve_spliced ~store src_set_edited in
      Alcotest.(check bool) "spliceable" true stats.Incr.spliceable;
      check_same_answers "upstream edit" (bc, rc) (bs, rs))

(* splicing across randomly generated programs: solve one, mutate the
   source via the benchmark generator's sibling configs, re-solve spliced,
   compare against cold *)
let test_spliced_generated () =
  with_store (fun store ->
      for seed = 0 to 5 do
        let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random seed) in
        let bc, rc = solve_cold src in
        let bs, rs, _ = solve_spliced ~store src in
        check_same_answers (Printf.sprintf "gen %d cold" seed) (bc, rc) (bs, rs);
        (* second run: full warm reuse must still be bit-identical *)
        let bs2, rs2, stats2 = solve_spliced ~store src in
        Alcotest.(check int)
          (Printf.sprintf "gen %d full reuse" seed)
          stats2.Incr.funcs_total stats2.Incr.funcs_reused;
        check_same_answers (Printf.sprintf "gen %d warm" seed) (bc, rc) (bs2, rs2)
      done)

let incr_tests =
  [
    Alcotest.test_case "cold spliced = batch" `Quick test_spliced_cold_equals_batch;
    Alcotest.test_case "warm restart reuses everything" `Quick
      test_warm_restart_full_reuse;
    Alcotest.test_case "sink edit re-solves only the sink" `Quick
      test_sink_edit_partial_reuse;
    Alcotest.test_case "upstream edit stays correct" `Quick
      test_upstream_edit_still_correct;
    Alcotest.test_case "generated programs splice correctly" `Quick
      test_spliced_generated;
  ]

(* ---------- wire protocol: body round-trips ---------- *)

module Protocol = Pta_serve.Protocol
module Session = Pta_serve.Session
module Server = Pta_serve.Server
module Client = Pta_serve.Client
module Codec = Pta_store.Codec
module Pool = Pta_par.Pool

let expect_corrupt what f =
  match f () with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: expected Codec.Corrupt" what

let sample_requests =
  [
    Protocol.Query
      ( Protocol.Exact,
        [
          Protocol.Points_to "x";
          Protocol.May_alias ("a", "b");
          Protocol.Points_to_null "";
          Protocol.Callees "fp";
        ] );
    Protocol.Query (Protocol.Unify, [ Protocol.Points_to "x" ]);
    Protocol.Query (Protocol.Andersen, [ Protocol.Callees "fp" ]);
    Protocol.Query (Protocol.Exact, []);
    Protocol.Vars;
    Protocol.Report;
    Protocol.Stats;
    Protocol.Reload None;
    Protocol.Reload (Some "other.c");
    Protocol.Shutdown;
  ]

let sample_replies =
  [
    Protocol.Answers
      ( Protocol.Exact,
        [
          Protocol.Set [ "h1"; "h2" ];
          Protocol.Set [];
          Protocol.Bool true;
          Protocol.Bool false;
          Protocol.Unknown "nope";
        ] );
    Protocol.Answers (Protocol.Unify, [ Protocol.Set [ "h" ] ]);
    Protocol.Answers (Protocol.Andersen, []);
    Protocol.Names [ "a"; "b"; "c" ];
    Protocol.Report_r [ ("g.o", [ "h" ]); ("q.o", []) ];
    Protocol.Stats_r [ ("loads", "3"); ("path", "/tmp/x.c") ];
    Protocol.Reloaded
      {
        Protocol.r_total = 7;
        r_reused = 5;
        r_dirty = 2;
        r_scheduled = 41;
        r_pops = 113;
        r_spliceable = true;
        r_warm_build = false;
      };
    Protocol.Shutting_down;
    Protocol.Error "boom";
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun req ->
      if Protocol.decode_request (Protocol.encode_request req) <> req then
        Alcotest.fail "request round-trip")
    sample_requests;
  List.iter
    (fun reply ->
      if Protocol.decode_reply (Protocol.encode_reply reply) <> reply then
        Alcotest.fail "reply round-trip")
    sample_replies

let test_protocol_rejects_garbage () =
  let bad_tag =
    let b = Buffer.create 4 in
    Codec.add_uint b 99;
    Buffer.contents b
  in
  expect_corrupt "unknown request tag" (fun () ->
      Protocol.decode_request bad_tag);
  expect_corrupt "unknown reply tag" (fun () -> Protocol.decode_reply bad_tag);
  expect_corrupt "trailing bytes" (fun () ->
      Protocol.decode_request (Protocol.encode_request Protocol.Vars ^ "x"));
  expect_corrupt "truncated body" (fun () ->
      let enc = Protocol.encode_reply (Protocol.Error "hello") in
      Protocol.decode_reply (String.sub enc 0 (String.length enc - 3)));
  expect_corrupt "empty body" (fun () -> Protocol.decode_request "")

(* ---------- framing over a real fd ---------- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close r; close w) (fun () -> f r w)

let write_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let test_frame_roundtrip () =
  (* all writes must stay under the pipe buffer: nothing reads until the
     writer is done *)
  with_pipe (fun r w ->
      Protocol.write_frame w "hello";
      Protocol.write_frame w "";
      Protocol.write_frame w (String.make 30_000 'x');
      Unix.close w;
      Alcotest.(check (option string)) "first" (Some "hello")
        (Protocol.read_frame r);
      Alcotest.(check (option string)) "empty" (Some "") (Protocol.read_frame r);
      (match Protocol.read_frame r with
      | Some s when String.length s = 30_000 -> ()
      | _ -> Alcotest.fail "large frame");
      Alcotest.(check (option string)) "clean EOF" None (Protocol.read_frame r))

let test_frame_garbage_prefix () =
  with_pipe (fun r w ->
      write_raw w "JUNKJUNK";
      Unix.close w;
      expect_corrupt "garbage magic" (fun () -> Protocol.read_frame r))

let test_frame_truncated () =
  (* magic + a length claiming 100 bytes, but only 5 arrive *)
  with_pipe (fun r w ->
      write_raw w (Protocol.magic ^ "\x64" ^ "abcde");
      Unix.close w;
      expect_corrupt "truncated mid-body" (fun () -> Protocol.read_frame r));
  (* EOF in the middle of the magic itself *)
  with_pipe (fun r w ->
      write_raw w (String.sub Protocol.magic 0 2);
      Unix.close w;
      expect_corrupt "truncated magic" (fun () -> Protocol.read_frame r))

let test_frame_oversized_length () =
  with_pipe (fun r w ->
      let b = Buffer.create 16 in
      Buffer.add_string b Protocol.magic;
      Codec.add_uint b (Protocol.max_frame + 1);
      write_raw w (Buffer.contents b);
      Unix.close w;
      expect_corrupt "oversized length rejected without allocation" (fun () ->
          Protocol.read_frame r));
  with_pipe (fun r w ->
      (* a varint that never terminates *)
      write_raw w (Protocol.magic ^ String.make 12 '\xff');
      Unix.close w;
      expect_corrupt "runaway varint" (fun () -> Protocol.read_frame r))

let protocol_tests =
  [
    Alcotest.test_case "bodies round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "garbage bodies rejected" `Quick
      test_protocol_rejects_garbage;
    Alcotest.test_case "frames round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "garbage-prefixed stream rejected" `Quick
      test_frame_garbage_prefix;
    Alcotest.test_case "truncated frames rejected" `Quick test_frame_truncated;
    Alcotest.test_case "oversized/runaway lengths rejected" `Quick
      test_frame_oversized_length;
  ]

(* ---------- the resident session ---------- *)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc s)

let with_session ?(with_vsfs = true) ?(jobs = 1) src f =
  with_store (fun store ->
      let dir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let file = Filename.concat dir "prog.c" in
          write_file file src;
          Pool.with_pool ~jobs (fun pool ->
              match Session.create ~store ~pool ~with_vsfs file with
              | Error e -> Alcotest.failf "Session.create: %s" e
              | Ok s -> f file s)))

(* name resolution (last match wins) and set selection (object contents for
   objects, top-level otherwise), replicated against a cold solve *)
let cold_expectations src =
  let bc, rc = solve_cold src in
  let pc = bc.Pipeline.prog in
  let names = Hashtbl.create 64 in
  Prog.iter_vars pc (fun v -> Hashtbl.replace names (Prog.name pc v) v);
  let set_of v =
    if Prog.is_object pc v then Sfs.object_pt rc v else Sfs.pt rc v
  in
  (pc, names, set_of)

let battery_of_names names =
  List.concat_map
    (fun n ->
      [ Protocol.Points_to n; Protocol.Points_to_null n; Protocol.Callees n ])
    names

let expected_answer pc set_of names q =
  let resolve n k =
    match Hashtbl.find_opt names n with
    | None -> Protocol.Unknown n
    | Some v -> k v
  in
  match q with
  | Protocol.Points_to n ->
    resolve n (fun v ->
        Protocol.Set (List.map (Prog.name pc) (Bitset.elements (set_of v))))
  | Protocol.Points_to_null n ->
    resolve n (fun v -> Protocol.Bool (Bitset.is_empty (set_of v)))
  | Protocol.May_alias (x, y) ->
    resolve x (fun vx ->
        resolve y (fun vy ->
            Protocol.Bool (Bitset.intersects (set_of vx) (set_of vy))))
  | Protocol.Callees n ->
    resolve n (fun v ->
        Protocol.Set
          (List.rev
             (Bitset.fold
                (fun o acc ->
                  match Prog.is_function_obj pc o with
                  | Some f -> (Prog.func pc f).Prog.fname :: acc
                  | None -> acc)
                (set_of v) [])))

let check_battery what s src =
  let pc, names, set_of = cold_expectations src in
  let all_names =
    List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) names [])
  in
  let battery =
    battery_of_names all_names
    @ [ Protocol.May_alias ("g.o", "g.o"); Protocol.Points_to "nosuch" ]
  in
  let got = Session.answers s battery in
  let want = List.map (expected_answer pc set_of names) battery in
  Alcotest.(check int) (what ^ ": arity") (List.length want) (List.length got);
  List.iteri
    (fun i (g, w) ->
      if g <> w then Alcotest.failf "%s: battery answer %d differs" what i)
    (List.combine got want)

let test_session_answers_cold () =
  with_session src_base (fun _file s -> check_battery "session cold" s src_base)

let test_session_batch_equals_singles () =
  (* jobs=2 and a battery well past the inline threshold: the pooled path
     must produce byte-identical answers to one-at-a-time queries, and to a
     jobs=1 session — with and without the VSFS cross-check on load *)
  let _, names, _ = cold_expectations src_base in
  let all_names = Hashtbl.fold (fun n _ acc -> n :: acc) names [] in
  let battery = battery_of_names (all_names @ all_names) in
  Alcotest.(check bool) "battery is past the inline threshold" true
    (List.length battery > 16);
  let sequential =
    with_session ~with_vsfs:false ~jobs:1 src_base (fun _file s ->
        Session.answers s battery)
  in
  List.iter
    (fun with_vsfs ->
      with_session ~with_vsfs ~jobs:2 src_base (fun _file s ->
          let what = Printf.sprintf "with_vsfs=%b" with_vsfs in
          let batched = Session.answers s battery in
          let singles =
            List.concat_map (fun q -> Session.answers s [ q ]) battery
          in
          Alcotest.(check bool) (what ^ ": batched = singles") true
            (batched = singles);
          Alcotest.(check bool) (what ^ ": jobs=2 = jobs=1") true
            (batched = sequential)))
    [ false; true ]

let test_session_reload_identical_reuses_all () =
  with_session src_base (fun _file s ->
      match Session.reload s () with
      | Error e -> Alcotest.failf "reload: %s" e
      | Ok info ->
        Alcotest.(check int) "nothing dirty" 0 info.Protocol.r_dirty;
        Alcotest.(check int) "all reused" info.Protocol.r_total
          info.Protocol.r_reused;
        Alcotest.(check int) "zero pops" 0 info.Protocol.r_pops;
        check_battery "post identical reload" s src_base)

let test_session_reload_edit_partial () =
  with_session src_base (fun file s ->
      write_file file src_log_edited;
      match Session.reload s () with
      | Error e -> Alcotest.failf "reload: %s" e
      | Ok info ->
        Alcotest.(check bool) "some functions reused" true
          (info.Protocol.r_reused > 0);
        check_battery "post sink-edit reload" s src_log_edited)

let test_session_failed_reload_keeps_state () =
  with_session src_base (fun file s ->
      let before = Session.answers s [ Protocol.Points_to "g.o" ] in
      (* unreadable path *)
      (match Session.reload s ~path:(file ^ ".does-not-exist") () with
      | Ok _ -> Alcotest.fail "reload of a missing file succeeded"
      | Error _ -> ());
      Alcotest.(check string) "path unchanged" file (Session.path s);
      (* syntactically broken source at the same path *)
      write_file file "func broken( {";
      (match Session.reload s () with
      | Ok _ -> Alcotest.fail "reload of a broken file succeeded"
      | Error _ -> ());
      Alcotest.(check bool) "answers unchanged" true
        (Session.answers s [ Protocol.Points_to "g.o" ] = before);
      check_battery "post failed reloads" s src_base)

(* Down the lattice (exact → andersen → unify) answers may only coarsen:
   points-to sets grow, bool answers flip only in the sound direction. *)
let test_session_tier_lattice () =
  with_session ~with_vsfs:false src_base (fun _file s ->
      let _, names, _ = cold_expectations src_base in
      let all_names =
        List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) names [])
      in
      let qs =
        List.map (fun n -> Protocol.Points_to n) ("nosuch" :: all_names)
      in
      let answers tier = Session.answers ~tier s qs in
      let exact = answers Protocol.Exact in
      Alcotest.(check bool) "default tier is exact" true
        (Session.answers s qs = exact);
      let coarsens a b =
        List.for_all2
          (fun ga gb ->
            match (ga, gb) with
            | Protocol.Unknown x, Protocol.Unknown y -> x = y
            | Protocol.Set xa, Protocol.Set xb ->
              List.for_all (fun o -> List.mem o xb) xa
            | _ -> false)
          a b
      in
      let ander = answers Protocol.Andersen in
      let unify = answers Protocol.Unify in
      Alcotest.(check bool) "andersen coarsens exact" true
        (coarsens exact ander);
      Alcotest.(check bool) "unify coarsens andersen" true
        (coarsens ander unify);
      List.iter
        (fun n ->
          let alias tier =
            match Session.answers ~tier s [ Protocol.May_alias (n, n) ] with
            | [ Protocol.Bool b ] -> b
            | [ Protocol.Unknown _ ] -> false
            | _ -> Alcotest.fail "expected one answer"
          in
          if alias Protocol.Exact then begin
            Alcotest.(check bool) (n ^ ": andersen keeps alias") true
              (alias Protocol.Andersen);
            Alcotest.(check bool) (n ^ ": unify keeps alias") true
              (alias Protocol.Unify)
          end)
        all_names)

let session_tests =
  [
    Alcotest.test_case "answers = cold solve (vsfs cross-check on)" `Quick
      test_session_answers_cold;
    Alcotest.test_case "tier lattice only coarsens" `Quick
      test_session_tier_lattice;
    Alcotest.test_case "pooled batch = one-at-a-time" `Quick
      test_session_batch_equals_singles;
    Alcotest.test_case "identical reload reuses everything" `Quick
      test_session_reload_identical_reuses_all;
    Alcotest.test_case "sink-edit reload splices" `Quick
      test_session_reload_edit_partial;
    Alcotest.test_case "failed reload keeps old state" `Quick
      test_session_failed_reload_keeps_state;
  ]

(* ---------- end-to-end: a forked daemon over the socket ---------- *)

let test_e2e_daemon () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "daemon.sock" in
      let file = Filename.concat dir "prog.c" in
      let store_dir = Filename.concat dir "store" in
      write_file file src_base;
      match Unix.fork () with
      | 0 ->
        (* the daemon: load, serve until shutdown, exit cleanly *)
        let code =
          try
            let store = Store.open_ store_dir in
            Pool.with_pool ~jobs:1 (fun pool ->
                match Session.create ~store ~pool ~with_vsfs:false file with
                | Ok s ->
                  Server.run ~socket s;
                  0
                | Error _ -> 2)
          with _ -> 3
        in
        Unix._exit code
      | pid ->
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          (fun () ->
            let pc, names, set_of = cold_expectations src_base in
            let expect = expected_answer pc set_of names in
            let battery =
              [
                Protocol.Points_to "g.o";
                Protocol.May_alias ("s", "s");
                Protocol.Points_to_null "g.o";
                Protocol.Callees "g.o";
                Protocol.Points_to "nosuch";
              ]
            in
            (* 1. batched query over the socket = cold expectations *)
            Client.with_connection ~retries:200 socket (fun fd ->
                match
                  Client.request fd (Protocol.Query (Protocol.Exact, battery))
                with
                | Protocol.Answers (Protocol.Exact, ans) ->
                  Alcotest.(check bool) "socket answers = cold" true
                    (ans = List.map expect battery)
                | _ -> Alcotest.fail "expected exact-tier Answers");
            (* 2. a garbage stream drops the connection and the daemon
               survives; the Error reply is best-effort here — bytes left
               unread at the server's close can reset it away *)
            let fd = Client.connect socket in
            write_raw fd "GARBAGE-NOT-A-FRAME";
            (match Protocol.read_frame fd with
            | Some body -> (
              match Protocol.decode_reply body with
              | Protocol.Error _ -> ()
              | _ -> Alcotest.fail "expected an Error reply to garbage")
            | None -> ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
            Unix.close fd;
            (* 3. well-framed garbage body: same contract, daemon survives *)
            Client.with_connection socket (fun fd ->
                Protocol.write_frame fd "\xff\xff\xff";
                match Protocol.read_frame fd with
                | Some body -> (
                  match Protocol.decode_reply body with
                  | Protocol.Error _ -> ()
                  | _ -> Alcotest.fail "expected an Error reply")
                | None -> Alcotest.fail "no reply to garbage body");
            (* 4. reload after an edit: partial reuse, fresh answers *)
            write_file file src_log_edited;
            Client.with_connection socket (fun fd ->
                (match Client.request fd (Protocol.Reload None) with
                | Protocol.Reloaded info ->
                  Alcotest.(check bool) "reload spliced" true
                    (info.Protocol.r_reused > 0)
                | _ -> Alcotest.fail "expected Reloaded");
                let pc', names', set_of' = cold_expectations src_log_edited in
                let q = Protocol.Points_to "g.o" in
                match
                  Client.request fd (Protocol.Query (Protocol.Exact, [ q ]))
                with
                | Protocol.Answers (Protocol.Exact, [ a ]) ->
                  Alcotest.(check bool) "post-reload answer = cold" true
                    (a = expected_answer pc' set_of' names' q)
                | _ -> Alcotest.fail "expected one answer");
            (* 5. clean shutdown: reply, exit 0, socket unlinked *)
            Client.with_connection socket (fun fd ->
                match Client.request fd Protocol.Shutdown with
                | Protocol.Shutting_down -> ()
                | _ -> Alcotest.fail "expected Shutting_down");
            let _, status = Unix.waitpid [] pid in
            Alcotest.(check bool) "daemon exited cleanly" true
              (status = Unix.WEXITED 0);
            Alcotest.(check bool) "socket unlinked" false
              (Sys.file_exists socket)))

let e2e_tests = [ Alcotest.test_case "forked daemon" `Quick test_e2e_daemon ]

let () =
  (* e2e forks a daemon child, and OCaml forbids [Unix.fork] once any
     domain has been spawned — so it must run before the session tests,
     whose pools create (and join, but that is not enough) worker domains *)
  Alcotest.run "serve"
    [
      ("incr", incr_tests);
      ("protocol", protocol_tests);
      ("e2e", e2e_tests);
      ("session", session_tests);
    ]
