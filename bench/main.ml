(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (§V) on the synthetic benchmark suite, plus ablations of the
   design choices and Bechamel micro-benchmarks.

     dune exec bench/main.exe                 — everything (all tables,
                                                ablations, micro-benches)
     dune exec bench/main.exe -- tableI
     dune exec bench/main.exe -- tableII [scale]
     dune exec bench/main.exe -- tableIII [scale] [--json out.json]
     dune exec bench/main.exe -- ablations [scale]
     dune exec bench/main.exe -- micro
     dune exec bench/main.exe -- all [scale]

   The default scale (1.0) keeps a full Table III run in minutes on a
   laptop; the paper's originals took ~10 hours on a Xeon. Absolute numbers
   differ — the claims under test are the ratios ("Time diff.", "Mem diff.")
   and their qualitative spread across benchmarks. *)

open Pta_workload
module Svfg = Pta_svfg.Svfg
module T = Table

let pf = Format.printf

(* ------------------------------------------------------------------ *)
(* Table I: the analysis domains and instruction set (definitional).   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  pf "== Table I: analysis domains and instruction set ==@.@.";
  pf "Instruction set (lib/ir/inst.mli):@.";
  List.iter
    (fun s -> pf "  %s@." s)
    [
      "ALLOC     p = alloca_o   (stack, global, heap, or &function)";
      "PHI       p = phi(q, r, ...)";
      "CAST/COPY p = (t) q";
      "FIELD     p = &q->f_k    (offsets interned, FIELD-ADD collapsing)";
      "LOAD      p = *q";
      "STORE     *p = q";
      "CALL      p = q(r1, ..., rn)   (direct or via function pointer)";
      "FUNENTRY  fun(r1, ..., rn)";
      "FUNEXIT   ret_fun p";
      "MEMPHI    o = phi(o, o)  (memory SSA; an SVFG node, as in SVF)";
    ];
  (* Domain sizes of an example program. *)
  let e = List.hd (Suite.benchmarks ~scale:0.3 ()) in
  let b = Pipeline.build e.Suite.cfg in
  let prog = b.Pipeline.prog in
  pf "@.Domains for benchmark '%s' at scale 0.3:@." e.Suite.name;
  pf "  |P| (top-level pointers)    = %d@." (Pta_ir.Prog.count_tops prog);
  pf "  |A| (address-taken objects) = %d@." (Pta_ir.Prog.count_objects prog);
  let sn = ref 0 in
  Pta_ir.Prog.iter_objects prog (fun o ->
      if Pta_ir.Prog.is_singleton prog o then incr sn);
  pf "  |SN| (singletons)           = %d@." !sn;
  let svfg = Pipeline.fresh_svfg b in
  let ver = Vsfs_core.Versioning.compute svfg in
  pf "  |K| (versions after meld labelling) = %d@.@."
    (Vsfs_core.Versioning.n_versions ver)

(* ------------------------------------------------------------------ *)
(* Table II: benchmark characteristics.                                *)
(* ------------------------------------------------------------------ *)

(* Caller-domain only: [Pipeline.built] values capture closures over the
   building domain's interned-set state, so they must never be handed to a
   pool worker. The parallel driver (table3) builds per-task on the worker
   instead of using this cache. *)
let built_cache : (string, Pipeline.built) Hashtbl.t = Hashtbl.create 16

let build_bench (e : Suite.entry) =
  match Hashtbl.find_opt built_cache e.Suite.name with
  | Some b -> b
  | None ->
    let b = Pipeline.build e.Suite.cfg in
    Hashtbl.add built_cache e.Suite.name b;
    b

let table2 ?(scale = 1.0) () =
  pf "== Table II: benchmark characteristics (synthetic suite, scale %.2f) ==@.@."
    scale;
  let rows =
    List.map
      (fun (e : Suite.entry) ->
        let b = build_bench e in
        let svfg = Pipeline.fresh_svfg b in
        let prog = b.Pipeline.prog in
        [
          e.Suite.name;
          string_of_int b.Pipeline.loc;
          Printf.sprintf "%.1f" (float b.Pipeline.src_bytes /. 1024.);
          string_of_int (Svfg.n_nodes svfg);
          string_of_int (Svfg.n_direct_edges svfg);
          string_of_int (Svfg.n_indirect_edges svfg);
          string_of_int (Pta_ir.Prog.count_tops prog);
          string_of_int (Pta_ir.Prog.count_objects prog);
          e.Suite.description;
        ])
      (Suite.benchmarks ~scale ())
  in
  T.render Format.std_formatter
    ~header:
      [ "Bench."; "LOC"; "Size(KiB)"; "#Nodes"; "#D.Edges"; "#I.Edges";
        "Top-Level"; "Addr-Taken"; "Description" ]
    ~align:[ T.L; T.R; T.R; T.R; T.R; T.R; T.R; T.R; T.L ]
    rows;
  pf "@."

(* ------------------------------------------------------------------ *)
(* Table III: Andersen / SFS / VSFS time and memory + ratios.          *)
(* ------------------------------------------------------------------ *)

let json_escape = Pta_engine.Telemetry.json_escape

let hit_rate hits misses =
  let h = float_of_int hits and m = float_of_int misses in
  if h +. m <= 0. then 0. else h /. (h +. m)

let json_of_run = Pipeline.json_of_run

let ptset_stats_json ~unique_sets ~pool_words =
  let g = Pta_ds.Stats.get in
  Printf.sprintf
    "{\"unique_sets\": %d, \"pool_words\": %d, \"add_hit_rate\": %.4f, \
     \"union_hit_rate\": %.4f, \"delta_hit_rate\": %.4f, \"hit_rate\": %.4f}"
    unique_sets pool_words
    (hit_rate (g "ptset.add_hits") (g "ptset.add_misses"))
    (hit_rate (g "ptset.union_hits") (g "ptset.union_misses"))
    (hit_rate (g "ptset.delta_hits") (g "ptset.delta_misses"))
    (hit_rate
       (g "ptset.add_hits" + g "ptset.union_hits" + g "ptset.delta_hits")
       (g "ptset.add_misses" + g "ptset.union_misses" + g "ptset.delta_misses"))

let host_json ~jobs =
  Printf.sprintf
    "{\"hostname\": \"%s\", \"os\": \"%s\", \"ocaml\": \"%s\", \
     \"word_size\": %d, \"recommended_domains\": %d, \"jobs\": %d}"
    (json_escape (Unix.gethostname ()))
    (json_escape Sys.os_type) (json_escape Sys.ocaml_version) Sys.word_size
    (Domain.recommended_domain_count ())
    jobs

(* Everything one Table III benchmark contributes, computed entirely on the
   worker domain that solved it and shipped back as plain data (strings,
   floats, a stats snapshot) — never Ptset ids or closures. The task resets
   its domain's interned-set pool and counters on entry, so every per-entry
   figure is a function of the benchmark alone: independent of which worker
   ran it, in what order, and of the jobs count. *)
type bench_row = {
  r_row : string list;  (** the rendered table cells *)
  r_json : string;  (** the per-benchmark JSON object *)
  r_tdiff : float;
  r_mdiff : float;
  r_mdiff_shared : float;
  r_easy : bool;
  r_dedup_sfs : float;
  r_dedup_vsfs : float;
  r_stats : (string * int) list;  (** worker counters, merged at the join *)
  r_unique : int;
  r_pool_words : int;
}

let bench_entry ~check (e : Suite.entry) =
  Pta_ds.Ptset.reset ();
  Pta_ds.Stats.reset_all ();
  let ctx = Pipeline.context () in
  let b = Pipeline.build ~ctx e.Suite.cfg in
  let sfs_r, sfs = Pipeline.run_sfs ~ctx b in
  let vsfs_r, vsfs = Pipeline.run_vsfs ~ctx b in
  let equal =
    if check then begin
      let svfg = Pipeline.fresh_svfg b in
      Vsfs_core.Equiv.is_equal (Vsfs_core.Equiv.compare sfs_r vsfs_r svfg)
    end
    else true
  in
  let tdiff = sfs.Pipeline.seconds /. max vsfs.Pipeline.seconds 1e-9 in
  (* The paper's memory metric counts each (slot, object) set where it
     is materialised — with interning that is [unshared_words]; the
     structure-shared footprint is reported separately below. *)
  let mdiff =
    float sfs.Pipeline.unshared_words
    /. float (max vsfs.Pipeline.unshared_words 1)
  in
  let mdiff_shared =
    float sfs.Pipeline.set_words /. float (max vsfs.Pipeline.set_words 1)
  in
  Printf.eprintf "  [done] %-14s sfs=%.2fs vsfs=%.2fs (%s)\n%!" e.Suite.name
    sfs.Pipeline.seconds vsfs.Pipeline.seconds
    (if equal then "precision equal" else "PRECISION MISMATCH!");
  {
    r_row =
      [
        e.Suite.name;
        Printf.sprintf "%.2f" b.Pipeline.andersen_seconds;
        Printf.sprintf "%.2f" sfs.Pipeline.seconds;
        Printf.sprintf "%.1f" (float sfs.Pipeline.set_words *. 8. /. 1048576.);
        Printf.sprintf "%.2f" vsfs.Pipeline.pre_seconds;
        Printf.sprintf "%.2f" vsfs.Pipeline.seconds;
        Printf.sprintf "%.1f" (float vsfs.Pipeline.set_words *. 8. /. 1048576.);
        Printf.sprintf "%.2fx" tdiff;
        Printf.sprintf "%.2fx" mdiff;
        (if equal then "yes" else "NO!");
      ];
    r_json =
      Printf.sprintf
        "    {\"name\": \"%s\", \"andersen_s\": %.6f, \"stages\": %s, \
         \"sfs\": %s, \"vsfs\": %s, \"time_ratio\": %.4f, \"mem_ratio\": \
         %.4f, \"mem_ratio_shared\": %.4f, \"equal\": %b}"
        (json_escape e.Suite.name) b.Pipeline.andersen_seconds
        (Pipeline.json_of_stages ctx)
        (json_of_run sfs) (json_of_run vsfs) tdiff mdiff mdiff_shared equal;
    r_tdiff = tdiff;
    r_mdiff = mdiff;
    r_mdiff_shared = mdiff_shared;
    r_easy = e.Suite.easy;
    r_dedup_sfs =
      float sfs.Pipeline.unshared_words /. float (max sfs.Pipeline.set_words 1);
    r_dedup_vsfs =
      float vsfs.Pipeline.unshared_words
      /. float (max vsfs.Pipeline.set_words 1);
    r_stats = Pta_ds.Stats.snapshot ();
    r_unique = Pta_ds.Ptset.n_unique ();
    r_pool_words = Pta_ds.Ptset.pool_words ();
  }

let table3 ?(scale = 1.0) ?(check = true) ?(jobs = 1) ?json () =
  pf "== Table III: analysis time and memory (scale %.2f, jobs %d) ==@.@."
    scale jobs;
  pf "Time in seconds (main phase; VSFS versioning listed separately, as in@.";
  pf "the paper). The MB columns are the structure-shared footprint (interned@.";
  pf "sets counted once, 8-byte words) incl. versioning structures; 'Mem diff.'@.";
  pf "compares per-slot materialised words — the paper's metric, independent@.";
  pf "of interning. Front end, auxiliary analysis and SVFG are excluded.@.@.";
  let results, wall_seconds =
    Pipeline.time (fun () ->
        Pta_par.Pool.run ~jobs (bench_entry ~check) (Suite.benchmarks ~scale ()))
  in
  (* The join: fold the per-benchmark snapshots back in suite order. The
     aggregates below are sums/geomeans of per-task figures, so they are
     byte-identical for every jobs count (only the timings move). *)
  Pta_ds.Stats.reset_all ();
  List.iter (fun r -> Pta_ds.Stats.merge r.r_stats) results;
  let time_ratios = List.map (fun r -> r.r_tdiff) results in
  let mem_ratios = List.map (fun r -> r.r_mdiff) results in
  let shared_mem_ratios = List.map (fun r -> r.r_mdiff_shared) results in
  let easy_excluded_time =
    List.filter_map
      (fun r -> if r.r_easy then None else Some r.r_tdiff)
      results
  in
  let sfs_dedups = List.map (fun r -> r.r_dedup_sfs) results in
  let vsfs_dedups = List.map (fun r -> r.r_dedup_vsfs) results in
  let unique_sets = List.fold_left (fun a r -> a + r.r_unique) 0 results in
  let pool_words = List.fold_left (fun a r -> a + r.r_pool_words) 0 results in
  T.render Format.std_formatter
    ~header:
      [ "Bench."; "Ander."; "SFS"; "SFS MB"; "Version."; "VSFS"; "VSFS MB";
        "Time diff."; "Mem diff."; "Equal" ]
    ~align:[ T.L; T.R; T.R; T.R; T.R; T.R; T.R; T.R; T.R; T.L ]
    (List.map (fun r -> r.r_row) results);
  pf "@.geometric mean speedup:            %.2fx@." (T.geomean time_ratios);
  pf "geometric mean speedup (hard set): %.2fx@."
    (T.geomean easy_excluded_time);
  pf "geometric mean memory reduction:   %.2fx (per-slot sets, paper's metric)@."
    (T.geomean mem_ratios);
  pf "(paper: 5.31x mean speedup, up to 26.22x; 2.11x mean memory, up to 5.46x)@.@.";
  let g = Pta_ds.Stats.get in
  pf "interned points-to sets (per-benchmark pools, summed):@.";
  pf "  geomean SFS/VSFS shared-words ratio: %.2fx (interning favours SFS — it@."
    (T.geomean shared_mem_ratios);
  pf "    duplicated the most sets, so sharing collapses much of its overhead)@.";
  pf "  unique sets in pool:               %d (%d words)@." unique_sets
    pool_words;
  pf "  geomean words dedup (SFS):         %.2fx (unshared / shared)@."
    (T.geomean sfs_dedups);
  pf "  geomean words dedup (VSFS):        %.2fx@." (T.geomean vsfs_dedups);
  pf "  add memo hit rate:                 %.1f%%@."
    (100. *. hit_rate (g "ptset.add_hits") (g "ptset.add_misses"));
  pf "  union memo hit rate:               %.1f%%@."
    (100. *. hit_rate (g "ptset.union_hits") (g "ptset.union_misses"));
  pf "  union_delta memo hit rate:         %.1f%%@."
    (100. *. hit_rate (g "ptset.delta_hits") (g "ptset.delta_misses"));
  pf "  table wall time:                   %s (jobs %d)@.@."
    (T.human_seconds wall_seconds) jobs;
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"scale\": %.4f,\n  \"jobs\": %d,\n  \"wall_seconds\": %.6f,\n  \
       \"host\": %s,\n  \"benchmarks\": [\n%s\n  ],\n  \"geomean\": \
       {\"time_ratio\": %.4f, \"mem_ratio\": %.4f, \"mem_ratio_shared\": \
       %.4f, \"dedup_sfs\": %.4f, \"dedup_vsfs\": %.4f},\n  \"ptset\": \
       %s\n}\n"
      scale jobs wall_seconds (host_json ~jobs)
      (String.concat ",\n" (List.map (fun r -> r.r_json) results))
      (T.geomean time_ratios) (T.geomean mem_ratios)
      (T.geomean shared_mem_ratios)
      (T.geomean sfs_dedups) (T.geomean vsfs_dedups)
      (ptset_stats_json ~unique_sets ~pool_words);
    close_out oc;
    pf "machine-readable results written to %s@.@." path

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let ablations ?(scale = 1.0) () =
  pf "== Ablations (design-choice benchmarks) ==@.@.";
  let e = Option.get (Suite.find ~scale "janet") in
  let b = build_bench e in
  pf "benchmark: %s at scale %.2f (loc %d)@.@." e.Suite.name scale b.Pipeline.loc;
  let run name f =
    let _, seconds = Pipeline.time f in
    pf "  %-44s %10s@." name (T.human_seconds seconds)
  in
  pf "1. strong updates on/off (identical toggle for both solvers):@.";
  run "SFS, strong updates on" (fun () ->
      ignore (Pta_sfs.Sfs.solve (Pipeline.fresh_svfg b)));
  run "SFS, strong updates off" (fun () ->
      ignore (Pta_sfs.Sfs.solve ~strong_updates:false (Pipeline.fresh_svfg b)));
  run "VSFS, strong updates on" (fun () ->
      ignore (Vsfs_core.Vsfs.solve (Pipeline.fresh_svfg b)));
  run "VSFS, strong updates off" (fun () ->
      ignore (Vsfs_core.Vsfs.solve ~strong_updates:false (Pipeline.fresh_svfg b)));
  pf "@.2. on-the-fly vs static (auxiliary) call graph:@.";
  (* Static: connect every auxiliary call edge before versioning, so no δ
     machinery is exercised and versioning sees the full graph. *)
  run "VSFS, on-the-fly call graph (paper)" (fun () ->
      let svfg = Pipeline.fresh_svfg b in
      let ver = Vsfs_core.Versioning.compute svfg in
      ignore (Vsfs_core.Vsfs.solve ~versioning:ver svfg));
  run "VSFS, static auxiliary call graph" (fun () ->
      let svfg = Pipeline.fresh_svfg b in
      Svfg.connect_callgraph svfg (Svfg.aux svfg).Pta_memssa.Modref.cg;
      let ver = Vsfs_core.Versioning.compute svfg in
      ignore (Vsfs_core.Vsfs.solve ~versioning:ver svfg));
  pf "@.3. version sharing factor (consume points per distinct version;@.";
  pf "   SFS is 1.0 by construction — this is the single-object sparsity won):@.";
  List.iter
    (fun name ->
      match Suite.find ~scale name with
      | Some e ->
        let b = build_bench e in
        let svfg = Pipeline.fresh_svfg b in
        let ver = Vsfs_core.Versioning.compute svfg in
        pf "  %-14s %.2f consume-points per version (%d versions)@." name
          (Vsfs_core.Versioning.sharing_factor ver)
          (Vsfs_core.Versioning.n_versions ver)
      | None -> ())
    [ "du"; "dpkg"; "bake"; "astyle"; "bash" ];
  pf "@.4. versioning cost share (paper §V-A: negligible and shrinking):@.";
  List.iter
    (fun s ->
      match Suite.find ~scale:s "janet" with
      | Some e ->
        let b = Pipeline.build e.Suite.cfg in
        let _, m = Pipeline.run_vsfs b in
        pf "  scale %.2f: versioning %s vs main phase %s (%.1f%%)@." s
          (T.human_seconds m.Pipeline.pre_seconds)
          (T.human_seconds m.Pipeline.seconds)
          (100. *. m.Pipeline.pre_seconds
          /. max (m.Pipeline.pre_seconds +. m.Pipeline.seconds) 1e-9)
      | None -> ())
    [ 0.25; 0.5; 1.0 ];
  pf "@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table.                 *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  pf "== Bechamel micro-benchmarks ==@.@.";
  (* Table II scale: the graph construction kernels. *)
  let tiny = { (List.hd (Suite.benchmarks ~scale:0.1 ())).Suite.cfg with
               Gen.seed = 7 } in
  let tiny_built = lazy (Pipeline.build tiny) in
  let test_table1 =
    Test.make ~name:"tableI:ir-construction"
      (Staged.stage (fun () ->
           let src = Gen.source { tiny with Gen.n_functions = 3 } in
           ignore (Pta_cfront.Lower.compile src)))
  in
  let test_table2 =
    Test.make ~name:"tableII:svfg-construction"
      (Staged.stage (fun () ->
           ignore (Pipeline.fresh_svfg (Lazy.force tiny_built))))
  in
  let test_table3 =
    Test.make ~name:"tableIII:vsfs-solve"
      (Staged.stage (fun () ->
           let svfg = Pipeline.fresh_svfg (Lazy.force tiny_built) in
           ignore (Vsfs_core.Vsfs.solve svfg)))
  in
  let test_bitset =
    let a = Pta_ds.Bitset.of_list (List.init 200 (fun i -> i * 17)) in
    let b0 = Pta_ds.Bitset.of_list (List.init 200 (fun i -> (i * 13) + 5)) in
    Test.make ~name:"kernel:bitset-union"
      (Staged.stage (fun () ->
           let c = Pta_ds.Bitset.copy a in
           ignore (Pta_ds.Bitset.union_into ~into:c b0)))
  in
  let test_meld =
    Test.make ~name:"kernel:meld-hashcons"
      (Staged.stage (fun () ->
           let t = Vsfs_core.Version.create () in
           let vs =
             Array.init 16 (fun i ->
                 Vsfs_core.Version.fresh t ~table_label:(string_of_int i))
           in
           let acc = ref Vsfs_core.Version.epsilon in
           Array.iter (fun v -> acc := Vsfs_core.Version.meld t !acc v) vs))
  in
  let tests =
    Test.make_grouped ~name:"vsfs"
      [ test_table1; test_table2; test_table3; test_bitset; test_meld ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    List.map (fun i -> Analyze.all ols i raw_results) instances
  in
  let results = benchmark () in
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> pf "  %-40s %14.1f ns/run@." name est
          | _ -> pf "  %-40s (no estimate)@." name)
        tbl)
    results;
  pf "@."

(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  (* [--json <path>] / [--jobs <n>]: drop the pair from the positional
     arguments *)
  let rec extract_opt key = function
    | k :: v :: rest when k = key -> (Some v, rest)
    | a :: rest ->
      let j, rest = extract_opt key rest in
      (j, a :: rest)
    | [] -> (None, [])
  in
  let json, argv = extract_opt "--json" argv in
  let jobs_arg, argv = extract_opt "--jobs" argv in
  let jobs =
    match jobs_arg with
    | None -> Pta_par.Pool.default_jobs ()
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> n
      | _ ->
        Printf.eprintf "bench: --jobs expects a positive integer, got %S\n" v;
        exit 2)
  in
  let scale =
    List.fold_left
      (fun acc a -> match float_of_string_opt a with Some f -> f | None -> acc)
      1.0 argv
  in
  let has cmd = List.mem cmd argv in
  let default = not (List.exists (fun c -> has c)
                       [ "tableI"; "tableII"; "tableIII"; "ablations";
                         "micro"; "all" ]) in
  (* bare invocation = everything, so a tee'd run records the full
     reproduction *)
  if has "tableI" || has "all" || default then table1 ();
  if has "tableII" || has "all" || default then table2 ~scale ();
  if has "tableIII" || has "all" || default then table3 ~scale ~jobs ?json ();
  if has "ablations" || has "all" || default then ablations ~scale ();
  if has "micro" || has "all" || default then micro ()
