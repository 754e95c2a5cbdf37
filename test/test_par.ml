(* Tests for the domain-parallel execution layer: the Pta_par.Pool itself
   (ordering, error propagation, lifecycle), DLS confinement of the shared
   solver substrate (Ptset intern pool + memo tables, Stats counters,
   Telemetry sink), and end-to-end parallel-vs-sequential bit-identity of
   whole pipeline solves over persisted corpus programs. *)

module Pool = Pta_par.Pool
module Ptset = Pta_ds.Ptset
module Stats = Pta_ds.Stats
module Pipeline = Pta_workload.Pipeline

(* ---------- the pool ---------- *)

let test_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "squares in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs))

let test_map_empty_and_reuse () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (list int)) "empty input" [] (Pool.map pool Fun.id []);
      (* the same pool serves several maps back to back *)
      Alcotest.(check (list int))
        "first map" [ 2; 4; 6 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]);
      Alcotest.(check (list string))
        "second map, different types" [ "1"; "2" ]
        (Pool.map pool string_of_int [ 1; 2 ]))

let test_more_tasks_than_queue_bound () =
  (* producers block on a full queue and drain correctly *)
  Pool.with_pool ~jobs:2 ~queue_bound:2 (fun pool ->
      let xs = List.init 50 Fun.id in
      Alcotest.(check (list int))
        "all 50 results" (List.map succ xs)
        (Pool.map pool succ xs))

let test_error_carries_index () =
  match
    Pool.run ~jobs:3
      (fun i -> if i = 37 then failwith "boom" else i)
      (List.init 64 Fun.id)
  with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Pool.Task_error { index; exn; _ } ->
    Alcotest.(check int) "failing task index" 37 index;
    Alcotest.(check string) "original exception" "Failure(\"boom\")"
      (Printexc.to_string exn)

let test_error_reports_lowest_index () =
  (* with several failures the re-raised one is deterministic: lowest index *)
  match
    Pool.run ~jobs:4
      (fun i -> if i mod 7 = 3 then failwith "multi" else i)
      (List.init 40 Fun.id)
  with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Pool.Task_error { index; _ } ->
    Alcotest.(check int) "lowest failing index" 3 index

let test_failure_skips_pending_tasks () =
  (* regression: once a failure is recorded the pool must drain the queue
     without running the remaining bodies — it used to execute all of them
     before re-raising. Task 0 fails immediately; of the 400 queued behind
     it only the handful already in flight may still run. *)
  let executed = Atomic.make 0 in
  (match
     Pool.run ~jobs:2
       (fun i ->
         ignore (Atomic.fetch_and_add executed 1);
         if i = 0 then failwith "early"
         else
           (* keep non-failing bodies slower than failure recording so the
              skip path is actually exercised *)
           for _ = 1 to 1000 do
             Domain.cpu_relax ()
           done)
       (List.init 400 Fun.id)
   with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Pool.Task_error { index; _ } ->
    Alcotest.(check int) "failing task index" 0 index);
  Alcotest.(check bool)
    (Printf.sprintf "pending tasks skipped (%d of 400 ran)"
       (Atomic.get executed))
    true
    (Atomic.get executed < 400)

let test_shutdown_lifecycle () =
  let pool = Pool.create ~jobs:2 () in
  Alcotest.(check int) "jobs" 2 (Pool.jobs pool);
  Alcotest.(check (list int)) "works" [ 1; 2 ] (Pool.map pool Fun.id [ 1; 2 ]);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  match Pool.map pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "map after shutdown should raise"
  | exception Invalid_argument _ -> ()

let test_tasks_run_on_worker_domains () =
  (* even at jobs=1 tasks execute on a spawned domain, never the caller's,
     so a batch can never dirty the caller's domain-local solver state *)
  let self = (Domain.self () :> int) in
  List.iter
    (fun jobs ->
      let ids =
        Pool.run ~jobs (fun _ -> (Domain.self () :> int)) [ 0; 1; 2; 3 ]
      in
      List.iter
        (fun id ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: worker domain <> caller" jobs)
            true (id <> self))
        ids)
    [ 1; 3 ]

let test_default_jobs () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* ---------- Ptset DLS confinement ---------- *)

let test_intern_ids_not_shared () =
  Ptset.reset ();
  (* salt the caller's pool so its next fresh id is far from 1 *)
  for i = 1 to 20 do
    ignore (Ptset.of_list [ i; i + 100 ])
  done;
  let caller_unique = Ptset.n_unique () in
  Alcotest.(check bool) "caller pool salted" true (caller_unique >= 20);
  (* a worker domain starts from a virgin pool: its first non-empty set
     interns at id 1 regardless of the caller's pool population *)
  let child_id, child_unique =
    Pool.run ~jobs:1
      (fun () ->
        let s = Ptset.of_list [ 5; 6; 7 ] in
        ((s :> int), Ptset.n_unique ()))
      [ () ]
    |> List.hd
  in
  Alcotest.(check int) "child's first set has id 1" 1 child_id;
  (* empty (id 0) + the one interned set *)
  Alcotest.(check int) "child interned exactly one set" 2 child_unique;
  Alcotest.(check int) "caller pool untouched by the child" caller_unique
    (Ptset.n_unique ())

let test_memo_tables_not_shared () =
  Ptset.reset ();
  Stats.reset_all ();
  let a = Ptset.of_list [ 1; 3 ] and b = Ptset.of_list [ 2; 4 ] in
  ignore (Ptset.union a b);
  ignore (Ptset.union a b);
  Alcotest.(check int) "caller: one miss then one hit" 1
    (Stats.get "ptset.union_hits");
  (* the same union on a worker domain must MISS — if memo tables were
     shared the child would hit the caller's cache entry *)
  let child_hits, child_misses =
    Pool.run ~jobs:1
      (fun () ->
        let a = Ptset.of_list [ 1; 3 ] and b = Ptset.of_list [ 2; 4 ] in
        ignore (Ptset.union a b);
        (Stats.get "ptset.union_hits", Stats.get "ptset.union_misses"))
      [ () ]
    |> List.hd
  in
  Alcotest.(check int) "child union missed" 1 child_misses;
  Alcotest.(check int) "child union never hit" 0 child_hits

(* Deterministic op-sequence replay: starting from a fresh generation, the
   resulting sets and pool size are a pure function of the seed. Resets on
   entry — the per-task discipline every batch driver follows — because a
   pool worker may pick up several tasks back to back. *)
let replay_ops seed =
  Ptset.reset ();
  let rng = Random.State.make [| seed; 0xD011 |] in
  let sets = ref [| Ptset.empty |] in
  let pick () = !sets.(Random.State.int rng (Array.length !sets)) in
  for _ = 1 to 40 do
    let s =
      match Random.State.int rng 4 with
      | 0 -> Ptset.add (pick ()) (Random.State.int rng 64)
      | 1 -> Ptset.union (pick ()) (pick ())
      | 2 -> fst (Ptset.union_delta (pick ()) (pick ()))
      | _ -> Ptset.diff (pick ()) (pick ())
    in
    sets := Array.append !sets [| s |]
  done;
  (Array.to_list (Array.map Ptset.elements !sets), Ptset.n_unique ())

let prop_interleaved_domains_match_sequential =
  QCheck2.Test.make
    ~name:"interleaved Ptset ops in two domains = sequential replay" ~count:25
    QCheck2.Gen.(pair (0 -- 10_000) (0 -- 10_000))
    (fun (seed_a, seed_b) ->
      let exp_a = replay_ops seed_a and exp_b = replay_ops seed_b in
      (* both replays run concurrently, each on its own worker domain with
         interleaved lifetimes; private generations mean neither can
         perturb the other's ids, memo entries or pool size *)
      let got = Pool.run ~jobs:2 replay_ops [ seed_a; seed_b ] in
      got = [ exp_a; exp_b ])

(* ---------- Stats / Telemetry confinement ---------- *)

let test_stats_snapshot_merge () =
  Stats.reset_all ();
  Stats.add "par.test" 5;
  let snapshots =
    Pool.run ~jobs:2
      (fun n ->
        Stats.reset_all ();
        Stats.add "par.test" n;
        Stats.snapshot ())
      [ 10; 100 ]
  in
  (* worker counts never flow back implicitly... *)
  Alcotest.(check int) "before merge: caller count only" 5
    (Stats.get "par.test");
  (* ...only through an explicit merge at the join *)
  List.iter Stats.merge snapshots;
  Alcotest.(check int) "after merge: summed" 115 (Stats.get "par.test")

let test_telemetry_sink_per_domain () =
  let main_sink = Pta_engine.Telemetry.global () in
  Alcotest.(check bool) "same domain, same sink" true
    (main_sink == Pta_engine.Telemetry.global ());
  let shared =
    Pool.run ~jobs:1
      (fun () -> Pta_engine.Telemetry.global () == main_sink)
      [ () ]
    |> List.hd
  in
  Alcotest.(check bool) "worker domain gets its own sink" false shared

(* ---------- parallel vs sequential pipeline bit-identity ---------- *)

let corpus_dir =
  if Sys.file_exists "corpus_fuzz" then "corpus_fuzz"
  else Filename.concat (Filename.dirname Sys.executable_name) "corpus_fuzz"

(* A full solve reduced to plain data (element lists, not Ptset ids), so
   results computed on different domains can be compared directly. The
   Equiv verdict rides along as the cross-check the ISSUE asks for. *)
let solve_plain src =
  Ptset.reset ();
  let b = Pipeline.build_source src in
  let sfs_r, _ = Pipeline.run_sfs b in
  let vsfs_r, _ = Pipeline.run_vsfs b in
  let svfg = Pipeline.fresh_svfg b in
  let equiv =
    Vsfs_core.Equiv.is_equal (Vsfs_core.Equiv.compare sfs_r vsfs_r svfg)
  in
  let pt = Pipeline.points_to_of_vsfs b vsfs_r in
  ( Array.map Pta_ds.Bitset.elements pt.Pta_store.Artifact.top,
    Array.map Pta_ds.Bitset.elements pt.Pta_store.Artifact.obj,
    equiv )

let test_parallel_solves_bit_identical () =
  let sources =
    match Pta_fuzz.Corpus.load_dir corpus_dir with
    | [] -> Alcotest.fail "corpus_fuzz is empty"
    | entries ->
      List.filteri (fun i _ -> i < 3)
        (List.map (fun (_, e) -> e.Pta_fuzz.Corpus.source) entries)
  in
  Alcotest.(check int) "three corpus programs" 3 (List.length sources);
  let sequential = List.map solve_plain sources in
  let parallel = Pool.run ~jobs:3 solve_plain sources in
  List.iteri
    (fun i ((seq_top, seq_obj, seq_eq), (par_top, par_obj, par_eq)) ->
      let ctx fmt = Printf.sprintf "program %d: %s" i fmt in
      Alcotest.(check bool) (ctx "Equiv verdict matches") seq_eq par_eq;
      Alcotest.(check (array (list int))) (ctx "top-level sets") seq_top par_top;
      Alcotest.(check (array (list int))) (ctx "object sets") seq_obj par_obj)
    (List.combine sequential parallel)

let () =
  Alcotest.run "pta_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "empty + reuse" `Quick test_map_empty_and_reuse;
          Alcotest.test_case "bounded queue" `Quick
            test_more_tasks_than_queue_bound;
          Alcotest.test_case "error carries index" `Quick
            test_error_carries_index;
          Alcotest.test_case "lowest failing index" `Quick
            test_error_reports_lowest_index;
          Alcotest.test_case "failure skips pending tasks" `Quick
            test_failure_skips_pending_tasks;
          Alcotest.test_case "shutdown lifecycle" `Quick
            test_shutdown_lifecycle;
          Alcotest.test_case "tasks run on workers" `Quick
            test_tasks_run_on_worker_domains;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "intern ids not shared" `Quick
            test_intern_ids_not_shared;
          Alcotest.test_case "memo tables not shared" `Quick
            test_memo_tables_not_shared;
          QCheck_alcotest.to_alcotest prop_interleaved_domains_match_sequential;
          Alcotest.test_case "stats snapshot/merge" `Quick
            test_stats_snapshot_merge;
          Alcotest.test_case "telemetry sink per domain" `Quick
            test_telemetry_sink_per_domain;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "parallel solves bit-identical" `Slow
            test_parallel_solves_bit_identical;
        ] );
    ]
