(* Tests for the workload library: generator determinism and validity, the
   benchmark suite's structure, the measured pipeline, and printer/parser
   round-trips on generated programs (a frontend fuzz test). *)

open Pta_ir

let test_suite_structure () =
  let entries = Pta_workload.Suite.benchmarks () in
  Alcotest.(check int) "15 benchmarks" 15 (List.length entries);
  let names = List.map (fun e -> e.Pta_workload.Suite.name) entries in
  Alcotest.(check (list string)) "paper order"
    [ "du"; "ninja"; "bake"; "dpkg"; "nano"; "i3"; "psql"; "janet"; "astyle";
      "tmux"; "mruby"; "mutt"; "bash"; "lynx"; "hyriseConsole" ]
    names;
  (* all seeds distinct so benchmarks differ *)
  let seeds = List.map (fun e -> e.Pta_workload.Suite.cfg.Pta_workload.Gen.seed) entries in
  Alcotest.(check int) "distinct seeds" 15
    (List.length (List.sort_uniq Int.compare seeds));
  Alcotest.(check bool) "find works" true
    (Pta_workload.Suite.find "bash" <> None);
  Alcotest.(check bool) "find miss" true
    (Pta_workload.Suite.find "emacs" = None)

let test_scale_monotone () =
  (* larger scale => more functions => more LOC *)
  let loc s =
    let e = Option.get (Pta_workload.Suite.find ~scale:s "janet") in
    Pta_workload.Gen.loc (Pta_workload.Gen.source e.Pta_workload.Suite.cfg)
  in
  Alcotest.(check bool) "scale grows loc" true (loc 0.2 < loc 1.0)

(* Totality of the generator on hostile configs: clamp pulls every field
   into the valid domain, and source on a clamped config still compiles. *)
let test_clamp_hostile () =
  let open Pta_workload.Gen in
  let hostile =
    {
      default with
      n_functions = -3;
      n_globals = -1;
      n_fp_globals = min_int;
      locals_per_fn = -7;
      stmts_per_fn = 0;
      max_depth = -1;
      heap_ratio = nan;
      load_bias = -5.;
      field_ratio = infinity;
      indirect_ratio = -0.5;
      call_density = neg_infinity;
      recursion_ratio = 2.0;
      global_traffic = nan;
      empty_fn_ratio = 1e300;
      dead_block_ratio = -1.;
      mutual_recursion_ratio = nan;
      null_reset_ratio = 3.;
      chain_depth = max_int;
      phi_fanin = -9;
    }
  in
  let c = clamp hostile in
  Alcotest.(check bool) "counts non-negative" true
    (c.n_functions >= 0 && c.n_globals >= 0 && c.n_fp_globals >= 0
   && c.locals_per_fn >= 0 && c.stmts_per_fn >= 0 && c.max_depth >= 0
   && c.chain_depth >= 0 && c.phi_fanin >= 0);
  let ratio_ok r = r >= 0. && r <= 1. in
  Alcotest.(check bool) "ratios in [0,1]" true
    (ratio_ok c.heap_ratio && ratio_ok c.field_ratio
   && ratio_ok c.indirect_ratio && ratio_ok c.recursion_ratio
   && ratio_ok c.global_traffic && ratio_ok c.empty_fn_ratio
   && ratio_ok c.dead_block_ratio && ratio_ok c.mutual_recursion_ratio
   && ratio_ok c.null_reset_ratio);
  Alcotest.(check bool) "weights finite and non-negative" true
    (c.load_bias >= 0. && c.call_density >= 0.
    && Float.is_finite c.load_bias && Float.is_finite c.call_density);
  (* identity on an already-valid config *)
  Alcotest.(check bool) "identity on valid" true (clamp default = default);
  (* and the hostile config still generates a compilable program *)
  let p = Pta_cfront.Lower.compile (source hostile) in
  Alcotest.(check bool) "hostile config compiles" true (Validate.check p = [])

let test_small_random_total () =
  (* small_random must be total in its seed and always yield a valid,
     analysable program *)
  List.iter
    (fun seed ->
      let cfg = Pta_workload.Gen.small_random seed in
      let p = Pta_cfront.Lower.compile (Pta_workload.Gen.source cfg) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d compiles" seed)
        true
        (Validate.check p = []))
    [ 0; -1; 1; min_int; max_int; 0x3FFFFFFF ]

let test_generator_loc () =
  let src = "a\n\nb\n  \nc" in
  Alcotest.(check int) "loc counts nonblank" 3 (Pta_workload.Gen.loc src)

let prop_generated_roundtrip =
  (* printer -> parser -> printer is stable on generated (lowered) programs *)
  QCheck2.Test.make ~name:"printer/parser roundtrip on generated programs"
    ~count:25
    QCheck2.Gen.(30_000 -- 31_000)
    (fun seed ->
      let cfg = Pta_workload.Gen.small_random seed in
      let p = Pta_cfront.Lower.compile (Pta_workload.Gen.source cfg) in
      let s1 = Printer.prog_to_string p in
      let p2 = Parser.parse s1 in
      Validate.check p2 = [] && Printer.prog_to_string p2 = s1)

let prop_generated_analysable =
  (* every generated program makes it through the full pipeline with both
     flow-sensitive solvers agreeing *)
  QCheck2.Test.make ~name:"full pipeline on generated programs" ~count:15
    QCheck2.Gen.(31_001 -- 32_000)
    (fun seed ->
      let cfg = Pta_workload.Gen.small_random seed in
      let b = Pta_workload.Pipeline.build cfg in
      let sfs_r, _ = Pta_workload.Pipeline.run_sfs b in
      let vsfs_r, _ = Pta_workload.Pipeline.run_vsfs b in
      let svfg = Pta_workload.Pipeline.fresh_svfg b in
      Vsfs_core.Equiv.is_equal (Vsfs_core.Equiv.compare sfs_r vsfs_r svfg))

let prop_roundtrip_semantic =
  (* parse (print prog) is not just textually stable but *semantically*
     equivalent: Andersen reports the same points-to facts, matched by
     (function name, instruction id) and object names — ids are allowed to
     differ between the two programs *)
  let andersen_report p =
    let r = Pta_andersen.Solver.solve p in
    let obj_names set =
      List.sort String.compare
        (List.map (Prog.name p) (Pta_ds.Bitset.elements set))
    in
    let report = ref [] in
    Prog.iter_funcs p (fun f ->
        for i = 0 to Prog.n_insts f - 1 do
          match Inst.def (Prog.inst f i) with
          | Some v ->
            report :=
              (f.Prog.fname, i, obj_names (Pta_andersen.Solver.pts r v))
              :: !report
          | None -> ()
        done);
    List.sort compare !report
  in
  QCheck2.Test.make ~name:"printer/parser roundtrip preserves semantics"
    ~count:12
    QCheck2.Gen.(32_001 -- 33_000)
    (fun seed ->
      let cfg = Pta_workload.Gen.small_random seed in
      let p = Pta_cfront.Lower.compile (Pta_workload.Gen.source cfg) in
      let p2 = Parser.parse (Printer.prog_to_string p) in
      andersen_report p = andersen_report p2)

let test_roundtrip_semantic_suite () =
  (* the same equivalence on several real suite benchmarks *)
  List.iter
    (fun name ->
      let e = Option.get (Pta_workload.Suite.find ~scale:0.15 name) in
      let p =
        Pta_cfront.Lower.compile
          (Pta_workload.Gen.source e.Pta_workload.Suite.cfg)
      in
      let p2 = Parser.parse (Printer.prog_to_string p) in
      Alcotest.(check int)
        (name ^ ": same function count")
        (Prog.n_funcs p) (Prog.n_funcs p2);
      let facts q =
        let r = Pta_andersen.Solver.solve q in
        let acc = ref [] in
        Prog.iter_funcs q (fun f ->
            for i = 0 to Prog.n_insts f - 1 do
              match Inst.def (Prog.inst f i) with
              | Some v ->
                acc :=
                  ( f.Prog.fname,
                    i,
                    List.sort String.compare
                      (List.map (Prog.name q)
                         (Pta_ds.Bitset.elements (Pta_andersen.Solver.pts r v)))
                  )
                  :: !acc
              | None -> ()
            done);
        List.sort compare !acc
      in
      Alcotest.(check bool)
        (name ^ ": same Andersen facts")
        true
        (facts p = facts p2))
    [ "du"; "bake"; "mutt" ]

let test_pipeline_metrics () =
  let e = Option.get (Pta_workload.Suite.find ~scale:0.15 "du") in
  let b = Pta_workload.Pipeline.build e.Pta_workload.Suite.cfg in
  Alcotest.(check bool) "loc recorded" true (b.Pta_workload.Pipeline.loc > 0);
  Alcotest.(check bool) "bytes recorded" true (b.Pta_workload.Pipeline.src_bytes > 0);
  let _, m = Pta_workload.Pipeline.run_vsfs b in
  Alcotest.(check bool) "time measured" true (m.Pta_workload.Pipeline.seconds >= 0.);
  Alcotest.(check bool) "versioning measured" true
    (m.Pta_workload.Pipeline.pre_seconds > 0.);
  Alcotest.(check bool) "words measured" true (m.Pta_workload.Pipeline.set_words > 0)

let test_dense_on_benchmark () =
  (* the dense oracle also agrees on a real (small) suite benchmark *)
  let e = Option.get (Pta_workload.Suite.find ~scale:0.1 "dpkg") in
  let b = Pta_workload.Pipeline.build e.Pta_workload.Suite.cfg in
  let sfs_r, _ = Pta_workload.Pipeline.run_sfs b in
  let dense_r, _ = Pta_workload.Pipeline.run_dense b in
  let p = b.Pta_workload.Pipeline.prog in
  let ok = ref true in
  Prog.iter_vars p (fun v ->
      if Prog.is_top p v then
        if
          not
            (Pta_ds.Bitset.equal (Pta_sfs.Sfs.pt sfs_r v)
               (Pta_sfs.Dense.pt dense_r v))
        then ok := false);
  Alcotest.(check bool) "dense = sfs on dpkg@0.1" true !ok

(* ---------- the staged lattice ---------- *)

module P = Pta_workload.Pipeline

let test_stage_composition () =
  let ctx = P.context () in
  let s1 = P.Stage.v ~key:"t1" (fun _ x -> x + 1) in
  let s2 = P.Stage.v ~key:"t2" (fun _ x -> x * 2) in
  Alcotest.(check int) "composed result" 8 P.Stage.(run ctx (s1 >>> s2) 3);
  let keys = List.map (fun (k, _, _) -> k) (P.stage_log ctx) in
  Alcotest.(check (list string)) "components logged in order, no composite"
    [ "t1"; "t2" ] keys;
  Alcotest.(check bool) "components ran cold" true
    (not (P.stage_warm ctx "t1") && not (P.stage_warm ctx "t2"))

let test_stage_log_cold_run () =
  let e = Option.get (Pta_workload.Suite.find ~scale:0.1 "du") in
  let ctx = P.context () in
  let b = P.build ~ctx e.Pta_workload.Suite.cfg in
  (* a cold storeless build logs its sub-stages and the fused stage *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " logged") true
        (List.exists (fun (k, _, _) -> k = key) (P.stage_log ctx));
      Alcotest.(check bool) (key ^ " cold") false (P.stage_warm ctx key))
    [ "compile"; "pre"; "andersen"; "build" ];
  let _ = P.run_vsfs ~ctx b in
  let _, useconds = P.run_unify ~ctx b in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " logged") true
        (List.exists (fun (k, _, _) -> k = key) (P.stage_log ctx)))
    [ "svfg"; "versioning"; "solve-vsfs"; "unify" ];
  Alcotest.(check bool) "unify seconds from the log" true
    (useconds = P.stage_seconds ctx "unify" && useconds >= 0.);
  let json = P.json_of_stages ctx in
  Alcotest.(check bool) "stage json mentions every run" true
    (String.length json > 2
    && List.for_all
         (fun k ->
           let rec mem i =
             i + String.length k <= String.length json
             && (String.sub json i (String.length k) = k || mem (i + 1))
           in
           mem 0)
         [ "\"stage\""; "\"seconds\""; "\"warm\""; "solve-vsfs" ])

let test_pre_bit_identity_suite () =
  (* `--pre unify` vs `--pre none` on real suite benchmarks: the final
     SFS and VSFS points-to snapshots must be bit-identical *)
  List.iter
    (fun name ->
      let e = Option.get (Pta_workload.Suite.find ~scale:0.1 name) in
      let b0 = P.build e.Pta_workload.Suite.cfg in
      let ctx = P.context ~pre:`Unify () in
      let b1 = P.build ~ctx e.Pta_workload.Suite.cfg in
      Alcotest.(check bool) (name ^ ": seed counters recorded") true
        (b1.P.pre_vars > 0 && b1.P.pre_merged >= 0
        && b1.P.pre_merged < b1.P.pre_vars);
      let same (a : Pta_store.Artifact.points_to)
          (b : Pta_store.Artifact.points_to) =
        Array.length a.Pta_store.Artifact.top
        = Array.length b.Pta_store.Artifact.top
        && Array.for_all2 Pta_ds.Bitset.equal a.Pta_store.Artifact.top
             b.Pta_store.Artifact.top
        && Array.for_all2 Pta_ds.Bitset.equal a.Pta_store.Artifact.obj
             b.Pta_store.Artifact.obj
      in
      let sfs0, _ = P.run_sfs b0 and sfs1, _ = P.run_sfs ~ctx b1 in
      Alcotest.(check bool) (name ^ ": sfs bit-identical") true
        (same (P.points_to_of_sfs b0 sfs0) (P.points_to_of_sfs b1 sfs1));
      let vsfs0, _ = P.run_vsfs b0 and vsfs1, _ = P.run_vsfs ~ctx b1 in
      Alcotest.(check bool) (name ^ ": vsfs bit-identical") true
        (same (P.points_to_of_vsfs b0 vsfs0) (P.points_to_of_vsfs b1 vsfs1)))
    [ "du"; "dpkg" ]

(* The one-pass extraction must equal the per-object table scan it
   replaced, for every variable, under both solvers. *)
let check_object_pts what n object_pts object_pt =
  let all = object_pts () in
  Alcotest.(check int) (what ^ ": one entry per variable") n (Array.length all);
  Array.iteri
    (fun v s ->
      if not (Pta_ds.Bitset.equal s (object_pt v)) then
        Alcotest.failf "%s: object_pts differs from object_pt at %d" what v)
    all

let check_extraction what b =
  let n = Pta_ir.Prog.n_vars b.P.prog in
  let sfs, _ = P.run_sfs b and vsfs, _ = P.run_vsfs b in
  check_object_pts (what ^ "/sfs") n
    (fun () -> Pta_sfs.Sfs.object_pts sfs)
    (Pta_sfs.Sfs.object_pt sfs);
  check_object_pts (what ^ "/vsfs") n
    (fun () -> Vsfs_core.Vsfs.object_pts vsfs)
    (Vsfs_core.Vsfs.object_pt vsfs)

let test_extraction_one_pass () =
  List.iter
    (fun name ->
      let e = Option.get (Pta_workload.Suite.find ~scale:0.05 name) in
      check_extraction name (P.build e.Pta_workload.Suite.cfg))
    [ "psql"; "mruby"; "astyle"; "bash"; "hyriseConsole"; "lynx" ];
  List.iter
    (fun (name, src) -> check_extraction name (P.build_source src))
    Pta_workload.Corpus.programs

let () =
  Alcotest.run "pta_workload"
    [
      ( "suite",
        [
          Alcotest.test_case "structure" `Quick test_suite_structure;
          Alcotest.test_case "scaling" `Quick test_scale_monotone;
          Alcotest.test_case "loc" `Quick test_generator_loc;
        ] );
      ( "generator",
        [
          Alcotest.test_case "clamp hostile configs" `Quick test_clamp_hostile;
          Alcotest.test_case "small_random total" `Quick
            test_small_random_total;
          QCheck_alcotest.to_alcotest prop_generated_roundtrip;
          QCheck_alcotest.to_alcotest prop_generated_analysable;
          QCheck_alcotest.to_alcotest prop_roundtrip_semantic;
          Alcotest.test_case "roundtrip semantics on suite" `Quick
            test_roundtrip_semantic_suite;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "metrics" `Quick test_pipeline_metrics;
          Alcotest.test_case "dense agrees on benchmark" `Slow
            test_dense_on_benchmark;
          Alcotest.test_case "one-pass extraction = per-object" `Quick
            test_extraction_one_pass;
        ] );
      ( "stages",
        [
          Alcotest.test_case "composition and log" `Quick
            test_stage_composition;
          Alcotest.test_case "cold run logs every stage" `Quick
            test_stage_log_cold_run;
          Alcotest.test_case "pre-analysis bit-identity on suite" `Slow
            test_pre_bit_identity_suite;
        ] );
    ]
