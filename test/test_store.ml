(* Tests for the persistent analysis store (Pta_store): codec round-trips,
   program/artifact round-trips, warm-start equality against a cold solve,
   content-hash invalidation on source edits, and corrupt-entry recovery. *)

open Pta_ir
module Codec = Pta_store.Codec
module Store = Pta_store.Store
module Artifact = Pta_store.Artifact
module Pipeline = Pta_workload.Pipeline

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* Every directory handed out is removed when the test binary exits. *)
let dirs = ref []
let () = at_exit (fun () -> List.iter rm_rf !dirs)

let fresh_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pta-store-test-%d-%d" (Unix.getpid ())
         (List.length !dirs + 1))
  in
  dirs := dir :: !dirs;
  dir

let bench_src name =
  let e = Option.get (Pta_workload.Suite.find ~scale:0.2 name) in
  Pta_workload.Gen.source e.Pta_workload.Suite.cfg

(* ---------- codec ---------- *)

let test_codec_ints () =
  let b = Buffer.create 64 in
  let uints = [ 0; 1; 127; 128; 300; 1 lsl 20; max_int ] in
  let ints = [ 0; -1; 1; -64; 64; min_int; max_int ] in
  List.iter (Codec.add_uint b) uints;
  List.iter (Codec.add_int b) ints;
  let d = Codec.of_string (Buffer.contents b) in
  List.iter
    (fun n -> Alcotest.(check int) "uint" n (Codec.uint d))
    uints;
  List.iter (fun n -> Alcotest.(check int) "int" n (Codec.int d)) ints;
  Codec.expect_end d;
  Alcotest.check_raises "negative uint rejected"
    (Invalid_argument "Codec.add_uint: negative") (fun () ->
      Codec.add_uint (Buffer.create 4) (-1))

let test_codec_words_and_bitsets () =
  (* bit 62 set makes the stored word negative: the lo/hi split must
     round-trip it *)
  let s = Pta_ds.Bitset.of_list [ 0; 62; 63; 1000; 4096; 500_000 ] in
  let b = Buffer.create 64 in
  Codec.add_bitset b s;
  Codec.add_string b "tail";
  let d = Codec.of_string (Buffer.contents b) in
  let s' = Codec.bitset d in
  Alcotest.(check bool) "bitset roundtrip" true (Pta_ds.Bitset.equal s s');
  Alcotest.(check string) "tail intact" "tail" (Codec.string d);
  Codec.expect_end d

let test_codec_corrupt () =
  let b = Buffer.create 64 in
  Codec.add_string b "hello";
  let bytes = Buffer.contents b in
  (* truncation inside the string body *)
  let d = Codec.of_string (String.sub bytes 0 3) in
  Alcotest.(check bool) "truncated string detected" true
    (match Codec.string d with
    | exception Codec.Corrupt _ -> true
    | _ -> false);
  (* element count beyond the remaining bytes must not allocate *)
  let b2 = Buffer.create 8 in
  Codec.add_uint b2 1_000_000;
  Alcotest.(check bool) "oversized count detected" true
    (match Codec.array Codec.uint (Codec.of_string (Buffer.contents b2)) with
    | exception Codec.Corrupt _ -> true
    | _ -> false)

(* ---------- program round-trip ---------- *)

let check_same_prog p p' =
  Alcotest.(check int) "n_vars" (Prog.n_vars p) (Prog.n_vars p');
  Prog.iter_vars p (fun v ->
      Alcotest.(check string) "var name" (Prog.name p v) (Prog.name p' v);
      Alcotest.(check bool) "is_object" (Prog.is_object p v)
        (Prog.is_object p' v);
      if Prog.is_object p v then
        Alcotest.(check bool) "obj kind" true
          (Prog.obj_kind p v = Prog.obj_kind p' v);
      Alcotest.(check bool) "singleton" (Prog.is_singleton p v)
        (Prog.is_singleton p' v);
      Alcotest.(check bool) "dead" (Prog.is_dead p v) (Prog.is_dead p' v));
  Alcotest.(check int) "n_funcs" (Prog.n_funcs p) (Prog.n_funcs p');
  Prog.iter_funcs p (fun f ->
      let f' = Prog.func p' f.Prog.id in
      Alcotest.(check string) "fname" f.Prog.fname f'.Prog.fname;
      Alcotest.(check (list int)) "params" f.Prog.params f'.Prog.params;
      Alcotest.(check bool) "ret" true (f.Prog.ret = f'.Prog.ret);
      Alcotest.(check int) "exit" f.Prog.exit_inst f'.Prog.exit_inst;
      Alcotest.(check bool) "addr taken" f.Prog.address_taken
        f'.Prog.address_taken;
      Alcotest.(check int) "fobj" f.Prog.fobj f'.Prog.fobj;
      Alcotest.(check int) "n_insts" (Prog.n_insts f) (Prog.n_insts f');
      for i = 0 to Prog.n_insts f - 1 do
        Alcotest.(check bool) "inst" true (Prog.inst f i = Prog.inst f' i);
        Alcotest.(check bool) "cfg succs" true
          (Pta_ds.Bitset.equal
             (Pta_graph.Digraph.succs f.Prog.cfg i)
             (Pta_graph.Digraph.succs f'.Prog.cfg i))
      done);
  Alcotest.(check bool) "entry" true
    ((Option.map (fun f -> f.Prog.id) (Prog.entry_opt p))
    = Option.map (fun f -> f.Prog.id) (Prog.entry_opt p'))

let test_prog_roundtrip () =
  List.iter
    (fun name ->
      (* built after Andersen, so the var table includes the field objects
         created during constraint expansion *)
      let b = Pipeline.build_source (bench_src name) in
      let p = b.Pipeline.prog in
      let p' = Artifact.decode_prog (Artifact.encode_prog p) in
      check_same_prog p p';
      (* the restored field intern table must dedup, not duplicate *)
      let before = Prog.n_vars p' in
      Prog.iter_objects p (fun o ->
          match Prog.obj_kind p o with
          | Prog.FieldOf { base; offset } ->
            Alcotest.(check int) "field interned" o
              (Prog.field_obj p' ~base ~offset)
          | _ -> ());
      Alcotest.(check int) "no new vars" before (Prog.n_vars p'))
    [ "du"; "ninja" ]

(* ---------- store framing ---------- *)

let test_store_frame () =
  let store = Store.open_ (fresh_dir ()) in
  let key = Store.key ~stage:"blob" [ "abc" ] in
  Alcotest.(check bool) "key differs by stage" true
    (key <> Store.key ~stage:"other" [ "abc" ]);
  Alcotest.(check bool) "key differs by input" true
    (key <> Store.key ~stage:"blob" [ "abd" ]);
  Alcotest.(check (option string)) "miss on empty" None
    (Store.load store ~stage:"blob" ~key);
  Store.save store ~stage:"blob" ~key ~label:"t" "payload bytes";
  Alcotest.(check (option string)) "hit" (Some "payload bytes")
    (Store.load store ~stage:"blob" ~key);
  Alcotest.(check int) "ls sees it" 1 (List.length (Store.ls store));
  Alcotest.(check int) "clear" 1 (Store.clear store);
  Alcotest.(check (option string)) "miss after clear" None
    (Store.load store ~stage:"blob" ~key)

let corrupt_file path =
  let ic = open_in_bin path in
  let bytes = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let mid = Bytes.length bytes / 2 in
  Bytes.set bytes mid (Char.chr (Char.code (Bytes.get bytes mid) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let test_store_corrupt_detected () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  let key = Store.key ~stage:"blob" [ "x" ] in
  Store.save store ~stage:"blob" ~key "some payload that is long enough";
  (* bit flip in the middle: checksum must catch it, entry is reclaimed *)
  corrupt_file (Filename.concat dir ("blob-" ^ key ^ ".bin"));
  Alcotest.(check (option string)) "corrupt is a miss" None
    (Store.load store ~stage:"blob" ~key);
  Alcotest.(check bool) "corrupt file deleted" false
    (Sys.file_exists (Filename.concat dir ("blob-" ^ key ^ ".bin")));
  (* truncation likewise, via gc *)
  Store.save store ~stage:"blob" ~key "some payload that is long enough";
  let path = Filename.concat dir ("blob-" ^ key ^ ".bin") in
  let oc = open_out_gen [ Open_trunc; Open_binary; Open_wronly ] 0o644 path in
  output_string oc "PTAS";
  close_out oc;
  let kept = ref 0 and removed = ref 0 in
  Store.gc store ~kept ~removed;
  Alcotest.(check int) "gc removed truncated" 1 !removed;
  Alcotest.(check int) "nothing kept" 0 !kept

(* ---------- atomic publication: crash windows and concurrent access ---- *)

let test_crash_window () =
  (* A writer that dies between opening its temp file and the atomic rename
     leaves a stale [*.tmp.<pid>.<n>] behind. Readers must never see it —
     only complete, published frames are addressable — and gc reclaims it. *)
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  let key = Store.key ~stage:"blob" [ "crash" ] in
  Store.save store ~stage:"blob" ~key "the published generation";
  (* simulate a crashed writer: a torn frame under a fresh_tmp-style name *)
  let tmp = Filename.concat dir ("blob-" ^ key ^ ".bin.tmp.99999.0") in
  let oc = open_out_bin tmp in
  output_string oc "PTAS\x02torn-partial-fra";
  close_out oc;
  Alcotest.(check (option string)) "reader sees only the published frame"
    (Some "the published generation")
    (Store.load store ~stage:"blob" ~key);
  Alcotest.(check int) "ls ignores the orphan" 1 (List.length (Store.ls store));
  (* a young temp file could be a *live* writer's, so gc must spare it ... *)
  let kept = ref 0 and removed = ref 0 in
  Store.gc store ~kept ~removed;
  Alcotest.(check bool) "fresh tmp spared (may be a live writer)" true
    (Sys.file_exists tmp);
  (* ... and reclaim it only once it is old enough to be a crash leftover *)
  let old = Unix.gettimeofday () -. 3600. in
  Unix.utimes tmp old old;
  let kept = ref 0 and removed = ref 0 in
  Store.gc store ~kept ~removed;
  Alcotest.(check int) "gc reclaims the orphan tmp" 1 !removed;
  Alcotest.(check int) "published frame kept" 1 !kept;
  Alcotest.(check bool) "tmp gone" false (Sys.file_exists tmp);
  Alcotest.(check (option string)) "entry survives gc"
    (Some "the published generation")
    (Store.load store ~stage:"blob" ~key)

let test_save_leaves_no_tmp () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  for i = 1 to 10 do
    Store.save store ~stage:"blob"
      ~key:(Store.key ~stage:"blob" [ string_of_int i ])
      (String.make 1000 'x')
  done;
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           let rec has_tmp i =
             i + 4 <= String.length f
             && (String.sub f i 4 = ".tmp" || has_tmp (i + 1))
           in
           has_tmp 0)
  in
  Alcotest.(check (list string)) "no temp files left behind" [] leftovers

(* Two *processes* (not domains) hammering one store: the advisory file
   lock on the manifest must keep a resident daemon's saves and a
   concurrent [vsfs cache gc] from corrupting each other. Runs before any
   test that spawns a domain — [Unix.fork] is forbidden afterwards. *)
let test_two_process_locking () =
  let dir = fresh_dir () in
  ignore (Store.open_ dir);
  let n = 25 in
  let child which =
    let code =
      try
        let store = Store.open_ dir in
        let ok = ref true in
        for i = 0 to n - 1 do
          let stage = "p" ^ string_of_int which in
          Store.save store ~stage
            ~key:(Store.key ~stage [ string_of_int i ])
            ~label:(Printf.sprintf "proc%d-%d" which i)
            (Printf.sprintf "payload %d %d" which i);
          if which = 1 && i mod 5 = 0 then begin
            (* the concurrent maintenance role: gc must never reap a live
               entry the other process just published *)
            let kept = ref 0 and removed = ref 0 in
            Store.gc store ~kept ~removed;
            if !removed > 0 then ok := false
          end
        done;
        if !ok then 0 else 2
      with _ -> 1
    in
    Unix._exit code
  in
  let spawn which =
    match Unix.fork () with 0 -> child which | pid -> pid
  in
  let p0 = spawn 0 in
  let p1 = spawn 1 in
  List.iter
    (fun (pid, what) ->
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) (what ^ " exited cleanly") true
        (status = Unix.WEXITED 0))
    [ (p0, "writer process"); (p1, "writer+gc process") ];
  let store = Store.open_ dir in
  Alcotest.(check int) "every save survived" (2 * n)
    (List.length (Store.ls store));
  let kept = ref 0 and removed = ref 0 in
  Store.gc store ~kept ~removed;
  Alcotest.(check int) "all entries verify" (2 * n) !kept;
  Alcotest.(check int) "nothing corrupt" 0 !removed;
  for which = 0 to 1 do
    for i = 0 to n - 1 do
      let stage = "p" ^ string_of_int which in
      match
        Store.load store ~stage ~key:(Store.key ~stage [ string_of_int i ])
      with
      | Some p ->
        Alcotest.(check string) "payload intact"
          (Printf.sprintf "payload %d %d" which i)
          p
      | None -> Alcotest.failf "entry %d/%d missing from the manifest" which i
    done
  done

let test_concurrent_writers_never_torn () =
  (* Parallel jobs hammer ONE stage/key with distinct recognisable payloads
     while readers poll it: every load must return some writer's complete
     payload (atomic rename = old frame or new frame, never a mix), and no
     reader may ever trip the corruption path. *)
  let dir = fresh_dir () in
  ignore (Store.open_ dir) (* create the directory up front *);
  let key = Store.key ~stage:"race" [ "shared" ] in
  let payload_of i = String.make 8192 (Char.chr (Char.code 'a' + i)) in
  let outcomes =
    Pta_par.Pool.run ~jobs:4
      (fun i ->
        Pta_ds.Stats.reset_all ();
        let store = Store.open_ dir in
        if i < 4 then begin
          (* writer: republish the same key 25 times *)
          for _ = 1 to 25 do
            Store.save store ~stage:"race" ~key (payload_of i)
          done;
          (`Writer, 0)
        end
        else begin
          (* reader: every observed value must be a complete payload *)
          let bad = ref 0 in
          for _ = 1 to 200 do
            match Store.load store ~stage:"race" ~key with
            | None -> ()
            | Some p ->
              let ok =
                String.length p = 8192
                && String.for_all (fun c -> c = p.[0]) p
              in
              if not ok then incr bad
          done;
          (`Reader, !bad + Pta_ds.Stats.get "store.corrupt")
        end)
      (List.init 8 Fun.id)
  in
  List.iter
    (fun (role, bad) ->
      match role with
      | `Writer -> ()
      | `Reader ->
        Alcotest.(check int) "reader never saw a torn or corrupt frame" 0 bad)
    outcomes;
  (* afterwards the key holds exactly one writer's final payload *)
  (match Store.load (Store.open_ dir) ~stage:"race" ~key with
  | None -> Alcotest.fail "key empty after the race"
  | Some p ->
    Alcotest.(check bool) "final frame complete" true
      (String.length p = 8192 && String.for_all (fun c -> c = p.[0]) p));
  let kept = ref 0 and removed = ref 0 in
  Store.gc (Store.open_ dir) ~kept ~removed;
  Alcotest.(check int) "one valid frame kept" 1 !kept

(* ---------- acceptance (a): results round-trip through the store ------- *)

let test_results_roundtrip () =
  List.iter
    (fun name ->
      let src = bench_src name in
      let dir = fresh_dir () in
      (* cold run populates every stage *)
      let store = Store.open_ dir in
      let b, warm = Pipeline.build_cached ~store ~label:name src in
      Alcotest.(check bool) "first build is cold" false warm;
      let r, _ = Pipeline.run_vsfs ~ctx:(Pipeline.context ~store ()) b in
      let cold = Pipeline.points_to_of_vsfs b r in
      Pipeline.save_points_to ~store b ~solver:"vsfs" cold;
      (* reopen: program, Andersen, SVFG and versioning all import *)
      let store2 = Store.open_ dir in
      let b2, warm2 = Pipeline.build_cached ~store:store2 ~label:name src in
      Alcotest.(check bool) "second build is warm" true warm2;
      Alcotest.(check bool) "no Andersen on warm start" true
        (b2.Pipeline.andersen_seconds = 0.);
      check_same_prog b.Pipeline.prog b2.Pipeline.prog;
      let r2, run2 =
        Pipeline.run_vsfs ~ctx:(Pipeline.context ~store:store2 ()) b2
      in
      Alcotest.(check bool) "no meld labelling on warm start" true
        (run2.Pipeline.pre_seconds = 0.);
      let warm_res = Pipeline.points_to_of_vsfs b2 r2 in
      let saved =
        Option.get (Pipeline.load_points_to ~store:store2 b2 ~solver:"vsfs")
      in
      let n = Prog.n_vars b.Pipeline.prog in
      Alcotest.(check int) "top table size" n (Array.length saved.Artifact.top);
      for v = 0 to n - 1 do
        Alcotest.(check bool) "warm pt = cold pt" true
          (Pta_ds.Bitset.equal cold.Artifact.top.(v) warm_res.Artifact.top.(v));
        Alcotest.(check bool) "saved pt = cold pt" true
          (Pta_ds.Bitset.equal cold.Artifact.top.(v) saved.Artifact.top.(v));
        Alcotest.(check bool) "obj pt equal" true
          (Pta_ds.Bitset.equal cold.Artifact.obj.(v) warm_res.Artifact.obj.(v))
      done)
    [ "du"; "bake"; "dpkg" ]

(* ---------- acceptance (b): source edits force recomputation ----------- *)

let test_source_edit_invalidates () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  let src = bench_src "ninja" in
  let _, warm = Pipeline.build_cached ~store src in
  Alcotest.(check bool) "cold" false warm;
  let _, warm = Pipeline.build_cached ~store src in
  Alcotest.(check bool) "warm on identical source" true warm;
  let edited = src ^ "\nfunc __edited() { var p; p = malloc(); }\n" in
  let b_old, _ = Pipeline.build_cached ~store src in
  let b_new, warm = Pipeline.build_cached ~store edited in
  Alcotest.(check bool) "edit forces recompute" false warm;
  Alcotest.(check bool) "digest changed" true
    (b_old.Pipeline.src_digest <> b_new.Pipeline.src_digest);
  Alcotest.(check bool) "edited program differs" true
    (Prog.n_funcs b_new.Pipeline.prog > Prog.n_funcs b_old.Pipeline.prog);
  (* both generations coexist under their own keys *)
  let _, w1 = Pipeline.build_cached ~store src in
  let _, w2 = Pipeline.build_cached ~store edited in
  Alcotest.(check bool) "both cached now" true (w1 && w2)

(* ---------- acceptance (c): corrupt pipeline entries recompute --------- *)

let test_corrupt_entry_recomputed () =
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  let src = bench_src "du" in
  let b, _ = Pipeline.build_cached ~store src in
  let r, _ = Pipeline.run_vsfs ~ctx:(Pipeline.context ~store ()) b in
  let cold = Pipeline.points_to_of_vsfs b r in
  (* flip a byte in every entry: all loads must detect and recompute *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".bin" then
        corrupt_file (Filename.concat dir f))
    (Sys.readdir dir);
  let before = Pta_ds.Stats.get "store.corrupt" in
  let b2, warm = Pipeline.build_cached ~store src in
  Alcotest.(check bool) "corrupt build recomputes" false warm;
  Alcotest.(check bool) "corruption counted" true
    (Pta_ds.Stats.get "store.corrupt" > before);
  let r2, _ = Pipeline.run_vsfs ~ctx:(Pipeline.context ~store ()) b2 in
  let again = Pipeline.points_to_of_vsfs b2 r2 in
  for v = 0 to Prog.n_vars b.Pipeline.prog - 1 do
    Alcotest.(check bool) "recomputed results equal" true
      (Pta_ds.Bitset.equal cold.Artifact.top.(v) again.Artifact.top.(v))
  done;
  (* the recompute re-saved fresh entries *)
  let _, warm = Pipeline.build_cached ~store src in
  Alcotest.(check bool) "healthy again" true warm

(* ---------- v3 block-pooled set pools vs the v2 read path ---------- *)

let check_bs = Alcotest.testable Pta_ds.Bitset.pp Pta_ds.Bitset.equal

(* Hand-rolled v2 pool layout (set count, delta-coded bitsets, body of pool
   indices) — what every pre-v3 artifact on disk looks like. *)
let encode_points_to_v2 (r : Artifact.points_to) =
  let tbl = Hashtbl.create 64 in
  let sets = ref [] in
  let n = ref 0 in
  let body = Buffer.create 256 in
  let add_set s =
    let h = Pta_ds.Bitset.elements s in
    let idx =
      match Hashtbl.find_opt tbl h with
      | Some i -> i
      | None ->
        let i = !n in
        incr n;
        Hashtbl.add tbl h i;
        sets := s :: !sets;
        i
    in
    Codec.add_uint body idx
  in
  Codec.add_uint body (Array.length r.Artifact.top);
  Array.iter add_set r.Artifact.top;
  Codec.add_uint body (Array.length r.Artifact.obj);
  Array.iter add_set r.Artifact.obj;
  let out = Buffer.create 512 in
  Codec.add_uint out !n;
  List.iter (Codec.add_bitset out) (List.rev !sets);
  Buffer.add_buffer out body;
  Buffer.contents out

let sample_points_to () =
  let core = List.init 400 (fun i -> i * 3) in
  let top =
    Array.init 6 (fun v ->
        Pta_ds.Bitset.of_list (((v * 7) + 100_000) :: core))
  in
  let obj =
    Array.init 4 (fun v -> Pta_ds.Bitset.of_list (((v * 11) + 200_000) :: core))
  in
  { Artifact.top; obj }

let check_points_to what (a : Artifact.points_to) (b : Artifact.points_to) =
  Alcotest.(check int) (what ^ " top len") (Array.length a.Artifact.top)
    (Array.length b.Artifact.top);
  Array.iteri
    (fun i s -> Alcotest.check check_bs (what ^ " top") s b.Artifact.top.(i))
    a.Artifact.top;
  Array.iteri
    (fun i s -> Alcotest.check check_bs (what ^ " obj") s b.Artifact.obj.(i))
    a.Artifact.obj

let test_v2_pool_still_loads () =
  (* the forward-compat read path: v3 readers must load v2 payloads *)
  let r = sample_points_to () in
  check_points_to "v2 payload" r
    (Artifact.decode_points_to (encode_points_to_v2 r))

let test_v2_frame_still_loads () =
  (* ... and v2 *frames*: same magic, version field 2 *)
  let dir = fresh_dir () in
  let store = Store.open_ dir in
  let key = Store.key ~stage:"blob" [ "v2" ] in
  let payload = "a v2-era payload" in
  let b = Buffer.create 64 in
  Buffer.add_string b "PTAS";
  Codec.add_uint b 2;
  Codec.add_string b "blob";
  Codec.add_string b key;
  Codec.add_string b (Digest.string payload);
  Codec.add_string b payload;
  let oc = open_out_bin (Filename.concat dir ("blob-" ^ key ^ ".bin")) in
  Buffer.output_buffer oc b;
  close_out oc;
  Alcotest.(check (option string)) "v2 frame loads" (Some payload)
    (Store.load store ~stage:"blob" ~key);
  (* an *unknown* version must still be rejected *)
  let b = Buffer.create 64 in
  Buffer.add_string b "PTAS";
  Codec.add_uint b 99;
  Codec.add_string b "blob";
  Codec.add_string b key;
  Codec.add_string b (Digest.string payload);
  Codec.add_string b payload;
  let oc = open_out_bin (Filename.concat dir ("blob-" ^ key ^ ".bin")) in
  Buffer.output_buffer oc b;
  close_out oc;
  Alcotest.(check (option string)) "unknown version is a miss" None
    (Store.load store ~stage:"blob" ~key)

let test_v3_shares_blocks_on_disk () =
  let r = sample_points_to () in
  let v3 = Artifact.encode_points_to r in
  check_points_to "v3 roundtrip" r (Artifact.decode_points_to v3);
  (* ten distinct sets share one 400-element core: v2 re-serialises the
     core per set, v3 stores its blocks once and references them *)
  let v2 = encode_points_to_v2 r in
  Alcotest.(check bool)
    (Printf.sprintf "v3 (%d bytes) < half of v2 (%d bytes)" (String.length v3)
       (String.length v2))
    true
    (String.length v3 * 2 < String.length v2)

let v3_magic = 0x7fff_fff3

let expect_corrupt what bytes =
  match Artifact.decode_points_to bytes with
  | _ -> Alcotest.failf "%s: corrupt pool accepted" what
  | exception Codec.Corrupt _ -> ()

let test_corrupt_blocks_rejected () =
  (* structurally malformed v3 pools must raise Corrupt, not crash or
     silently decode *)
  let craft f =
    let b = Buffer.create 64 in
    Codec.add_uint b v3_magic;
    f b;
    Buffer.contents b
  in
  expect_corrupt "zero mask"
    (craft (fun b ->
         Codec.add_uint b 1;
         (* one block with an illegal all-empty mask *)
         Codec.add_uint b 0));
  expect_corrupt "oversized mask"
    (craft (fun b ->
         Codec.add_uint b 1;
         Codec.add_uint b (1 lsl 16)));
  expect_corrupt "zero word in block"
    (craft (fun b ->
         Codec.add_uint b 1;
         Codec.add_uint b 1;
         (* mask says one word, word is zero *)
         Codec.add_word b 0));
  expect_corrupt "block ref out of range"
    (craft (fun b ->
         Codec.add_uint b 1;
         Codec.add_uint b 1;
         Codec.add_word b 42;
         (* one set, one span, referencing block 7 of 1 *)
         Codec.add_uint b 1;
         Codec.add_uint b 1;
         Codec.add_uint b 0;
         Codec.add_uint b 7));
  expect_corrupt "runaway block count"
    (craft (fun b -> Codec.add_uint b 1_000_000));
  (* a bit flip inside a real v3 payload must never produce a *wrong*
     result: it either still decodes (flip landed in slack) or raises *)
  let bytes = Bytes.of_string (Artifact.encode_points_to (sample_points_to ())) in
  let mid = Bytes.length bytes / 2 in
  Bytes.set bytes mid (Char.chr (Char.code (Bytes.get bytes mid) lxor 0x40));
  (match Artifact.decode_points_to (Bytes.to_string bytes) with
  | _ -> ()
  | exception Codec.Corrupt _ -> ())

(* ---------- golden digests: table layout never reaches stored bytes ------ *)

(* Digests of the encoded artifacts for [gen du --scale 0.15], recorded
   before the solver tables moved from polymorphic [Hashtbl]s to packed-int
   ones. Every exported or encoded value is sorted or order-free, so a change
   in a table's hash or iteration order must not move a single byte. The
   versioning entry is the canonical form below, recorded before meld
   labelling moved to a per-object pass over the condensation: that change
   interns fewer transient melds and so renumbers version ids, but must keep
   every label class. The prog and andersen entries were recorded before
   Andersen's per-wave SCC pass stopped rebuilding a condensed copy graph:
   they pin field-object numbering and every auxiliary points-to set. *)
let golden_du_015 =
  [
    ("prog", "793e2009f8fa2c87b8cab0cd01206a0d");
    ("andersen", "de1ab46c236c8961ac20a8dbce905c9b");
    ("svfg", "34930a111f6caa70d7cd7d420a891b0a");
    ("to_digraph", "08af92d774bbb23a9c5891a5eaf6dfd0");
    ("versioning-canonical", "cac6e5fb2ed55d7d943bdf7a8a32e177");
    ("results-sfs", "f5349c4b5475a252eb3eefed1bb6fc67");
    ("results-vsfs", "f5349c4b5475a252eb3eefed1bb6fc67");
  ]

(* The versioning artifact with its version ids renumbered by first
   appearance in the sorted export (consume, then store yields) and the
   version count dropped: equal exactly when two labellings assign the same
   label classes, whatever order the hash-cons interned them in. *)
let canonical_versioning (r : Vsfs_core.Versioning.raw) =
  let ids = Hashtbl.create 256 in
  Hashtbl.add ids Vsfs_core.Version.epsilon 0;
  let canon v =
    match Hashtbl.find_opt ids v with
    | Some c -> c
    | None ->
      let c = Hashtbl.length ids in
      Hashtbl.add ids v c;
      c
  in
  let renumber = Array.map (fun (k, v) -> (k, canon v)) in
  let raw_consume = renumber r.Vsfs_core.Versioning.raw_consume in
  let raw_store_yield = renumber r.Vsfs_core.Versioning.raw_store_yield in
  let raw_reliance =
    Array.map
      (fun (k, s) ->
        let o = Pta_ds.Pair_key.hi k and y = Pta_ds.Pair_key.lo k in
        let s' = Pta_ds.Bitset.create () in
        Pta_ds.Bitset.iter (fun c -> ignore (Pta_ds.Bitset.add s' (canon c))) s;
        (Pta_ds.Pair_key.pack o (canon y), s'))
      r.Vsfs_core.Versioning.raw_reliance
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) raw_reliance;
  Artifact.encode_versioning
    { r with raw_consume; raw_store_yield; raw_reliance; raw_n_versions = 0 }

let digraph_bytes g =
  let b = Buffer.create 4096 in
  Pta_graph.Digraph.iter_edges g (fun u v ->
      Codec.add_uint b u;
      Codec.add_uint b v);
  Buffer.contents b

let test_golden_digests () =
  let e = Option.get (Pta_workload.Suite.find ~scale:0.15 "du") in
  let b = Pipeline.build_source (Pta_workload.Gen.source e.Pta_workload.Suite.cfg) in
  let svfg = Pipeline.fresh_svfg b in
  let ver = Vsfs_core.Versioning.compute svfg in
  let sfs, _ = Pipeline.run_sfs b in
  let vsfs, _ = Pipeline.run_vsfs b in
  let aux =
    { Artifact.pts =
        Array.init (Pta_ir.Prog.n_vars b.prog) b.aux.Pta_memssa.Modref.pt;
      cg = b.aux.Pta_memssa.Modref.cg }
  in
  let actual =
    [
      ("prog", Artifact.encode_prog b.prog);
      ("andersen", Artifact.encode_aux aux);
      ("svfg", Artifact.encode_svfg (Pta_svfg.Svfg.export svfg));
      ("to_digraph", digraph_bytes (Pta_svfg.Svfg.to_digraph svfg));
      ( "versioning-canonical",
        canonical_versioning (Vsfs_core.Versioning.export ver) );
      ( "results-sfs",
        Artifact.encode_points_to (Pipeline.points_to_of_sfs b sfs) );
      ( "results-vsfs",
        Artifact.encode_points_to (Pipeline.points_to_of_vsfs b vsfs) );
    ]
  in
  List.iter
    (fun (what, expected) ->
      Alcotest.(check string) what expected
        (Pta_store.Digest.hex (List.assoc what actual)))
    golden_du_015

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "ints" `Quick test_codec_ints;
          Alcotest.test_case "words and bitsets" `Quick
            test_codec_words_and_bitsets;
          Alcotest.test_case "corruption" `Quick test_codec_corrupt;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "program roundtrip" `Quick test_prog_roundtrip;
          Alcotest.test_case "v2 pool still loads" `Quick
            test_v2_pool_still_loads;
          Alcotest.test_case "v2 frame still loads" `Quick
            test_v2_frame_still_loads;
          Alcotest.test_case "v3 shares blocks on disk" `Quick
            test_v3_shares_blocks_on_disk;
          Alcotest.test_case "corrupt blocks rejected" `Quick
            test_corrupt_blocks_rejected;
        ] );
      ( "store",
        [
          Alcotest.test_case "framing" `Quick test_store_frame;
          Alcotest.test_case "corrupt detection" `Quick
            test_store_corrupt_detected;
          Alcotest.test_case "crash window" `Quick test_crash_window;
          Alcotest.test_case "save leaves no tmp" `Quick
            test_save_leaves_no_tmp;
          Alcotest.test_case "two processes share one manifest" `Quick
            test_two_process_locking;
          Alcotest.test_case "concurrent writers never torn" `Quick
            test_concurrent_writers_never_torn;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "results roundtrip (3 benchmarks)" `Quick
            test_results_roundtrip;
          Alcotest.test_case "source edit invalidates" `Quick
            test_source_edit_invalidates;
          Alcotest.test_case "corrupt entries recomputed" `Quick
            test_corrupt_entry_recomputed;
          Alcotest.test_case "golden digests (du 0.15)" `Quick
            test_golden_digests;
        ] );
    ]
