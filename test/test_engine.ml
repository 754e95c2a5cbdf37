(* Tests for Pta_engine: the two worklist orders, the generic fixpoint loop,
   budgets (a typed error, on the toy dataflow and on SFS/VSFS solves of
   corpus programs), telemetry bookkeeping, and the bench JSON schema. *)

module Engine = Pta_engine.Engine
module Scheduler = Pta_engine.Scheduler
module Telemetry = Pta_engine.Telemetry
module Pipeline = Pta_workload.Pipeline
module Corpus = Pta_workload.Corpus
module Sfs = Pta_sfs.Sfs
module Vsfs = Vsfs_core.Vsfs

(* ---------- scheduler ---------- *)

let drain t =
  let rec go acc =
    match Scheduler.pop t with Some x -> go (x :: acc) | None -> List.rev acc
  in
  go []

let test_topo_order () =
  let rank = [| 30; 10; 20 |] in
  let t = Scheduler.topo ~rank:(fun v -> rank.(v)) in
  List.iter (fun x -> ignore (Scheduler.push t x)) [ 0; 1; 2 ];
  (* ranks read at pop: demote node 1 after the push *)
  rank.(1) <- 40;
  Alcotest.(check (list int)) "rank-at-pop order" [ 2; 0; 1 ] (drain t)

(* ---------- generic engine on a toy dataflow ---------- *)

(* Transitive closure of "reaches" bitmasks over a small digraph: node v's
   value flows to its successors; the fixpoint is independent of the visit
   order, which is exactly what the engine promises for either order. *)
let toy_edges = [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3); (1, 5) ]
let toy_n = 6

let toy_succs v = List.filter_map (fun (a, b) -> if a = v then Some b else None) toy_edges

let schedulers =
  [ ("fifo", Scheduler.fifo); ("topo", fun () -> Scheduler.topo ~rank:Fun.id) ]

let run_toy ?budget scheduler =
  let value = Array.init toy_n (fun v -> 1 lsl v) in
  let scheduler = scheduler () in
  let tel = Telemetry.phase ~sink:(Telemetry.create ()) ~name:"toy" () in
  let process v =
    List.filter
      (fun w ->
        let v' = value.(w) lor value.(v) in
        if v' <> value.(w) then begin
          value.(w) <- v';
          true
        end
        else false)
      (toy_succs v)
  in
  let eng = Engine.create ~telemetry:tel ~scheduler ~process () in
  for v = 0 to toy_n - 1 do
    Engine.push eng v
  done;
  Engine.run ?budget eng;
  (value, tel)

let test_engine_fixpoint_all_schedulers () =
  let reference, _ = run_toy Scheduler.fifo in
  List.iter
    (fun (name, s) ->
      let value, tel = run_toy s in
      Alcotest.(check (array int)) name reference value;
      Alcotest.(check bool) "grew <= pops" true
        (tel.Telemetry.grew <= tel.Telemetry.pops))
    schedulers

let test_engine_step_budget () =
  let _, full = run_toy Scheduler.fifo in
  (* a budget of exactly the pops a fixpoint takes is enough ... *)
  let _, tel =
    run_toy ~budget:(Engine.step_budget full.Telemetry.pops) Scheduler.fifo
  in
  Alcotest.(check int) "fixpoint within budget" full.Telemetry.pops
    tel.Telemetry.pops;
  (* ... and one pop less is not *)
  let budget = Engine.step_budget (full.Telemetry.pops - 1) in
  match run_toy ~budget Scheduler.fifo with
  | _ -> Alcotest.fail "expected Exhausted"
  | exception Engine.Exhausted -> ()

let test_engine_time_budget_expired () =
  let tel = Telemetry.phase ~sink:(Telemetry.create ()) ~name:"t" () in
  let eng =
    Engine.create ~telemetry:tel ~scheduler:(Scheduler.fifo ())
      ~process:(fun _ -> [])
      ()
  in
  Engine.push eng 0;
  (* an already-expired deadline gives up before the first pop *)
  (match Engine.run ~budget:(Engine.time_budget (-1.0)) eng with
  | () -> Alcotest.fail "expected Exhausted"
  | exception Engine.Exhausted -> ());
  Alcotest.(check int) "nothing processed" 0 tel.Telemetry.pops

(* ---------- telemetry ---------- *)

let test_telemetry_counters_and_sink () =
  let sink = Telemetry.create () in
  let p = Telemetry.phase ~sink ~name:"x" () in
  let c = Telemetry.counter p "widgets" in
  incr c;
  Telemetry.bump p "widgets" 4;
  Alcotest.(check int) "extra" 5 (Telemetry.extra p "widgets");
  Alcotest.(check bool) "cached ref" true (c == Telemetry.counter p "widgets");
  (* the sink is bounded: old phases fall off, newest survive *)
  for i = 0 to 99 do
    ignore (Telemetry.phase ~sink ~name:(string_of_int i) ())
  done;
  let ps = Telemetry.phases sink in
  Alcotest.(check bool) "bounded" true (List.length ps <= 64);
  Alcotest.(check string) "newest kept" "99"
    (List.nth ps (List.length ps - 1)).Telemetry.name

(* ---------- budgeted solver runs (corpus programs) ---------- *)

let corpus_builds =
  lazy
    (List.map
       (fun name ->
         let src =
           match Corpus.find name with
           | Some s -> s
           | None -> Alcotest.failf "corpus program %s missing" name
         in
         (name, Pipeline.build_source src))
       [ "hash_table"; "event_loop"; "binary_tree" ])

let check_same_sets name prog pt_a pt_b obj_a obj_b =
  Pta_ir.Prog.iter_vars prog (fun v ->
      let a, b =
        if Pta_ir.Prog.is_top prog v then (pt_a v, pt_b v) else (obj_a v, obj_b v)
      in
      if not (Pta_ds.Bitset.equal a b) then
        Alcotest.failf "%s: %s differs between budgeted and unbudgeted solve"
          name
          (Pta_ir.Prog.name prog v))

(* An exhausted solve raises, and the phase it opened in the default sink
   still reports the pops it made and the time it took. *)
let check_exhausted what ~phase ~budget solve =
  match solve budget with
  | _ -> Alcotest.failf "%s: expected Exhausted" what
  | exception Engine.Exhausted ->
    let p = List.hd (List.rev (Telemetry.phases (Telemetry.global ()))) in
    Alcotest.(check string) (what ^ ": phase") phase p.Telemetry.name;
    Alcotest.(check int) (what ^ ": pops") 23 p.Telemetry.pops;
    Alcotest.(check bool) (what ^ ": wall > 0") true (p.Telemetry.wall > 0.)

let test_budgeted_solves () =
  List.iter
    (fun (name, b) ->
      let svfg = Pipeline.fresh_svfg b in
      let budget = Engine.step_budget 23 in
      check_exhausted (name ^ "/sfs") ~phase:"sfs.solve" ~budget (fun budget ->
          Sfs.solve ~budget svfg);
      check_exhausted (name ^ "/vsfs") ~phase:"vsfs.solve" ~budget
        (fun budget -> Vsfs.solve ~budget svfg);
      (* unbudgeted solves on the same graph keep their answers, and a
         budget of exactly the pops they take lets them finish *)
      let full_sfs = Sfs.solve svfg and full_vsfs = Vsfs.solve svfg in
      let sfs =
        Sfs.solve ~budget:(Engine.step_budget (Sfs.processed full_sfs)) svfg
      and vsfs =
        Vsfs.solve ~budget:(Engine.step_budget (Vsfs.processed full_vsfs)) svfg
      in
      check_same_sets (name ^ "/sfs") b.Pipeline.prog (Sfs.pt full_sfs)
        (Sfs.pt sfs) (Sfs.object_pt full_sfs) (Sfs.object_pt sfs);
      check_same_sets (name ^ "/vsfs") b.Pipeline.prog (Vsfs.pt full_vsfs)
        (Vsfs.pt vsfs) (Vsfs.object_pt full_vsfs) (Vsfs.object_pt vsfs);
      Alcotest.(check bool)
        (name ^ ": Equiv agrees")
        true
        (Vsfs_core.Equiv.is_equal (Vsfs_core.Equiv.compare full_sfs vsfs svfg)))
    (Lazy.force corpus_builds)

(* ---------- bench JSON schema round-trip ---------- *)

(* A deliberately small JSON reader — just enough for the bench schema, so
   the test fails loudly if the emitters produce something unparseable. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let pos = ref 0 in
  let n = String.length s in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = Alcotest.failf "json parse error at %d: %s" !pos msg in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'u' ->
          advance ();
          advance ();
          advance ();
          advance ()
          (* keep the escape opaque; schema keys never use \u *)
        | Some c -> Buffer.add_char b c
        | None -> fail "eof in string");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
      | None -> fail "eof in string"
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while (match peek () with Some c -> is_num c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "eof"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj k =
  match obj with
  | Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> Alcotest.failf "missing JSON key %s" k)
  | _ -> Alcotest.failf "not an object while looking for %s" k

let num = function Num f -> f | _ -> Alcotest.fail "expected number"
let str = function Str s -> s | _ -> Alcotest.fail "expected string"

let test_bench_json_roundtrip () =
  let _, b = List.hd (Lazy.force corpus_builds) in
  let r, run = Pipeline.run_sfs b in
  let j = parse_json (Pipeline.json_of_run run) in
  List.iter
    (fun k -> ignore (num (field j k)))
    [ "seconds"; "pre_seconds"; "words"; "unshared_words"; "unique_sets";
      "sets"; "props"; "pops" ];
  Alcotest.(check int) "pops" run.Pipeline.pops
    (int_of_float (num (field j "pops")));
  let e = field j "engine" in
  Alcotest.(check string) "phase" "sfs.solve" (str (field e "phase"));
  List.iter
    (fun k -> ignore (num (field e k)))
    [ "pushes"; "dups"; "pops"; "grew"; "wall_seconds" ];
  (match field e "extras" with
  | Obj _ -> ()
  | _ -> Alcotest.fail "extras must be an object");
  let tel = Sfs.telemetry r in
  Alcotest.(check int) "engine pops match telemetry" tel.Telemetry.pops
    (int_of_float (num (field e "pops")));
  (* a snapshot with escaping-hostile strings survives the emitter *)
  let hostile =
    Telemetry.phase ~sink:(Telemetry.create ())
      ~name:"we\"ird\\phase\nname" ()
  in
  let j2 = parse_json (Telemetry.snapshot_to_json (Telemetry.snapshot hostile)) in
  Alcotest.(check string) "escaped name" "we\"ird\\phase\nname"
    (str (field j2 "phase"))

let () =
  Alcotest.run "pta_engine"
    [
      ( "scheduler",
        [
          Alcotest.test_case "topo rank-at-pop" `Quick test_topo_order;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fixpoint under all schedulers" `Quick
            test_engine_fixpoint_all_schedulers;
          Alcotest.test_case "step budget raises Exhausted" `Quick
            test_engine_step_budget;
          Alcotest.test_case "expired time budget" `Quick
            test_engine_time_budget_expired;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters and bounded sink" `Quick
            test_telemetry_counters_and_sink;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "budget raises Exhausted"
            `Quick test_budgeted_solves;
        ] );
      ( "json",
        [ Alcotest.test_case "bench schema round-trip" `Quick
            test_bench_json_roundtrip ] );
    ]
