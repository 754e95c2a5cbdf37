(* Tests for the Pta_fuzz subsystem: the oracle tower on known-good and
   known-bad inputs, the AST mutator, the delta-debugging shrinker (against
   a synthetic oracle), campaign determinism, and — most importantly — the
   persisted regression corpus in corpus_fuzz/, every entry of which must
   replay its recorded verdict forever. *)

module Oracle = Pta_fuzz.Oracle
module Mutate = Pta_fuzz.Mutate
module Shrink = Pta_fuzz.Shrink
module Corpus = Pta_fuzz.Corpus
module Driver = Pta_fuzz.Driver

let clean_src =
  {|
  global g;
  func main() {
    var p, a, h;
    p = &a;
    h = malloc();
    *p = h;
    g = *p;
  }
  |}

(* ---------- oracles ---------- *)

let test_oracle_registry () =
  Alcotest.(check (list string))
    "tower order (cheap to expensive)"
    [ "crash"; "andersen"; "equiv"; "unify"; "sched"; "store"; "par";
      "serve" ]
    Oracle.names;
  List.iter
    (fun n -> Alcotest.(check bool) n true (Oracle.find n <> None))
    Oracle.names;
  Alcotest.(check bool) "find miss" true (Oracle.find "nope" = None)

let test_oracles_pass_on_clean () =
  List.iter
    (fun o ->
      match o.Oracle.check clean_src with
      | Oracle.Pass -> ()
      | Oracle.Rejected msg ->
        Alcotest.failf "%s rejected clean program: %s" o.Oracle.name msg
      | Oracle.Fail { cls; detail } ->
        Alcotest.failf "%s failed clean program (%s): %s" o.Oracle.name cls
          detail)
    Oracle.all

let test_crash_oracle_rejects_invalid () =
  (* clean frontend rejections are Rejected, not findings *)
  let check src =
    match (Option.get (Oracle.find "crash")).Oracle.check src with
    | Oracle.Rejected _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "syntax error" true (check "func main( {");
  Alcotest.(check bool) "unknown variable" true
    (check "func main() { x = y; }")

(* ---------- mutator ---------- *)

let test_site_arithmetic () =
  let ast =
    Pta_cfront.Cparser.parse
      {|
      func main() {
        var a, b;
        a = malloc();
        if (a == b) { b = a; } else { b = malloc(); }
        while (a != b) { a = b; }
      }
      |}
  in
  match ast with
  | [ Pta_cfront.Ast.Func { body; _ } ] ->
    (* decl + assign + if (+2 arms) + while (+1 body) = 7 preorder sites *)
    Alcotest.(check int) "site count" 7 (Mutate.count_list body);
    Alcotest.(check bool) "get first" true (Mutate.get_nth body 0 <> None);
    Alcotest.(check bool) "get last" true (Mutate.get_nth body 6 <> None);
    Alcotest.(check bool) "get off-end" true (Mutate.get_nth body 7 = None);
    (* deleting site 2 (the if) removes its whole subtree *)
    let without_if = Mutate.map_nth body 2 (fun _ -> []) in
    Alcotest.(check int) "delete subtree" 4 (Mutate.count_list without_if)
  | _ -> Alcotest.fail "unexpected parse"

let prop_mutants_never_crash =
  (* grammar-shape preservation: every mutant pretty-prints and reparses;
     and on trunk the crash oracle never turns one into a finding — invalid
     mutants must surface as clean Rejected diagnostics *)
  QCheck2.Test.make ~name:"mutants reparse and never crash the frontend"
    ~count:30
    QCheck2.Gen.(40_000 -- 41_000)
    (fun seed ->
      let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random seed) in
      let mutant =
        Pta_cfront.Ast_print.program
          (Mutate.program ~seed (Pta_cfront.Cparser.parse src))
      in
      let reparses =
        Pta_cfront.Ast_print.program (Pta_cfront.Cparser.parse mutant)
        = mutant
      in
      let benign =
        match (Option.get (Oracle.find "crash")).Oracle.check mutant with
        | Oracle.Pass | Oracle.Rejected _ -> true
        | Oracle.Fail _ -> false
      in
      reparses && benign)

let test_mutator_deterministic () =
  let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random 77) in
  let run () =
    Pta_cfront.Ast_print.program
      (Mutate.program ~seed:123 (Pta_cfront.Cparser.parse src))
  in
  Alcotest.(check string) "same seed, same mutant" (run ()) (run ());
  Alcotest.(check bool) "different seed, different mutant" true
    (run ()
    <> Pta_cfront.Ast_print.program
         (Mutate.program ~seed:124 (Pta_cfront.Cparser.parse src)))

(* ---------- shrinker ---------- *)

let test_shrinker_synthetic () =
  (* a synthetic oracle that fails exactly when the program still contains
     a malloc: the shrinker must descend to a near-minimal program that
     keeps one *)
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let oracle =
    {
      Oracle.name = "synthetic-malloc";
      doc = "fails while a malloc survives";
      check =
        (fun src ->
          match Pta_cfront.Cparser.parse src with
          | exception Pta_cfront.Cparser.Parse_error _ ->
            Oracle.Rejected "parse"
          | _ ->
            if contains ~needle:"malloc" src then
              Oracle.Fail { cls = "has-malloc"; detail = "still has malloc" }
            else Oracle.Pass);
    }
  in
  let src = Pta_workload.Gen.source (Pta_workload.Gen.small_random 99) in
  Alcotest.(check bool) "base has malloc" true (contains ~needle:"malloc" src);
  let r =
    Shrink.minimize ~oracle ~cls:"has-malloc" ~max_steps:400
      (Pta_cfront.Cparser.parse src)
  in
  let out = Pta_cfront.Ast_print.program r.Shrink.program in
  Alcotest.(check bool) "still fails" true (contains ~needle:"malloc" out);
  Alcotest.(check bool) "shrank a lot" true
    (Pta_workload.Gen.loc out <= 5
    && Pta_workload.Gen.loc out < Pta_workload.Gen.loc src);
  Alcotest.(check bool) "made reductions" true (r.Shrink.reductions > 0);
  Alcotest.(check bool) "respected budget" true (r.Shrink.steps <= 400)

let test_shrinker_preserves_class () =
  (* failing with a *different* class must count as not-failing: shrinking
     a "has-malloc" failure under an oracle that reports "has-null" for
     null programs must never land on a null-only reproducer *)
  let oracle =
    {
      Oracle.name = "synthetic-two-classes";
      doc = "distinguishes malloc from null findings";
      check =
        (fun src ->
          let has needle =
            let nl = String.length needle and hl = String.length src in
            let rec go i =
              i + nl <= hl && (String.sub src i nl = needle || go (i + 1))
            in
            go 0
          in
          if has "malloc" then
            Oracle.Fail { cls = "has-malloc"; detail = "" }
          else if has "null" then Oracle.Fail { cls = "has-null"; detail = "" }
          else Oracle.Pass);
    }
  in
  let ast =
    Pta_cfront.Cparser.parse
      {|
      func main() {
        var a, b;
        a = malloc();
        b = null;
      }
      |}
  in
  let r = Shrink.minimize ~oracle ~cls:"has-malloc" ~max_steps:100 ast in
  match oracle.Oracle.check (Pta_cfront.Ast_print.program r.Shrink.program) with
  | Oracle.Fail { cls; _ } ->
    Alcotest.(check string) "kept the original class" "has-malloc" cls
  | _ -> Alcotest.fail "minimised program no longer fails"

(* ---------- corpus ---------- *)

let test_corpus_roundtrip () =
  let e =
    {
      Corpus.oracle = "equiv";
      seed = 42;
      cls = "top-level";
      verdict = Corpus.Fail;
      note = "unit test";
      source = "func main() {\n  var a;\n  a = malloc();\n}\n";
    }
  in
  let e' = Corpus.of_string (Corpus.to_string e) in
  Alcotest.(check string) "oracle" e.Corpus.oracle e'.Corpus.oracle;
  Alcotest.(check int) "seed" e.Corpus.seed e'.Corpus.seed;
  Alcotest.(check string) "cls" e.Corpus.cls e'.Corpus.cls;
  Alcotest.(check bool) "verdict" true (e'.Corpus.verdict = Corpus.Fail);
  Alcotest.(check string) "source" e.Corpus.source e'.Corpus.source;
  Alcotest.(check string) "filename" "seed00000042-equiv.c" (Corpus.filename e)

(* dune runs tests from the test directory, but be robust to invocation
   from the repo root too by falling back to the executable's directory *)
let corpus_dir =
  if Sys.file_exists "corpus_fuzz" then "corpus_fuzz"
  else Filename.concat (Filename.dirname Sys.executable_name) "corpus_fuzz"

let test_corpus_replays () =
  let entries = Corpus.load_dir corpus_dir in
  Alcotest.(check bool) "corpus is non-empty" true (entries <> []);
  List.iter
    (fun (file, e) ->
      match Corpus.replay e with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" file msg)
    entries

let test_par_oracle_on_corpus () =
  (* the par oracle must agree with the recorded world view on every
     persisted reproducer: worker-domain solves never flip a verdict *)
  let par = Option.get (Oracle.find "par") in
  let entries = Corpus.load_dir corpus_dir in
  Alcotest.(check bool) "corpus is non-empty" true (entries <> []);
  List.iter
    (fun (file, e) ->
      match par.Oracle.check e.Corpus.source with
      | Oracle.Pass | Oracle.Rejected _ -> ()
      | Oracle.Fail { cls; detail } ->
        Alcotest.failf "%s: par oracle failed (%s): %s" file cls detail)
    entries

(* ---------- driver ---------- *)

let test_driver_clean_and_deterministic () =
  let cfg = { Driver.default with runs = 8; seed = 5 } in
  let r1 = Result.get_ok (Driver.run cfg) in
  let r2 = Result.get_ok (Driver.run ~jobs:4 cfg) in
  Alcotest.(check bool) "no failures on trunk" true (r1.Driver.failures = []);
  Alcotest.(check string) "byte-identical reports across jobs counts"
    (Driver.report_to_string r1) (Driver.report_to_string r2);
  Alcotest.(check int) "all cases counted" 8
    (r1.Driver.gen_cases + r1.Driver.adversarial_cases
   + r1.Driver.mutant_cases)

let test_driver_unknown_oracle () =
  match Driver.run { Driver.default with runs = 1; oracle = Some "bogus" } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an unknown-oracle error"

let () =
  Alcotest.run "pta_fuzz"
    [
      ( "oracles",
        [
          Alcotest.test_case "registry" `Quick test_oracle_registry;
          Alcotest.test_case "pass on clean" `Quick test_oracles_pass_on_clean;
          Alcotest.test_case "clean rejections" `Quick
            test_crash_oracle_rejects_invalid;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "site arithmetic" `Quick test_site_arithmetic;
          QCheck_alcotest.to_alcotest prop_mutants_never_crash;
          Alcotest.test_case "deterministic" `Quick test_mutator_deterministic;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "synthetic oracle" `Quick test_shrinker_synthetic;
          Alcotest.test_case "class preserved" `Quick
            test_shrinker_preserves_class;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "replay" `Slow test_corpus_replays;
          Alcotest.test_case "par oracle over corpus" `Slow
            test_par_oracle_on_corpus;
        ] );
      ( "driver",
        [
          Alcotest.test_case "clean + deterministic" `Slow
            test_driver_clean_and_deterministic;
          Alcotest.test_case "unknown oracle" `Quick test_driver_unknown_oracle;
        ] );
    ]
