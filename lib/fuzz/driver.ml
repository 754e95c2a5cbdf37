module Gen = Pta_workload.Gen

(* The campaign driver. Fully deterministic: the per-case seed is a mix of
   the campaign seed and the case index, every random draw goes through a
   case-local PRNG, and the report carries no wall-clock data — the same
   (runs, seed, max_shrink_steps, oracle) always prints the same bytes. *)

type config = {
  runs : int;
  seed : int;
  max_shrink_steps : int;
  oracle : string option;  (** [None] = the whole tower *)
  corpus_dir : string option;  (** persist shrunk reproducers here *)
}

let default =
  {
    runs = 100;
    seed = 1;
    max_shrink_steps = 200;
    oracle = None;
    corpus_dir = None;
  }

type failure = {
  case : int;
  case_seed : int;
  oracle_name : string;
  cls : string;
  detail : string;
  shrunk_loc : int;
  shrink_steps : int;
  corpus_path : string option;
}

type report = {
  cfg : config;
  cases : int;
  rejected : int;  (** mutants the frontend cleanly refused *)
  gen_cases : int;
  adversarial_cases : int;
  mutant_cases : int;
  total_loc : int;
  failures : failure list;
}

let mix campaign_seed i = ((campaign_seed * 1_000_003) + i) land 0x3FFF_FFFF

(* An adversarial config: small programs with the edge-case levers the
   benchmark suite never exercises turned up. *)
let adversarial_config rng case_seed =
  let f lo hi = lo +. Random.State.float rng (hi -. lo) in
  let i lo hi = lo + Random.State.int rng (hi - lo + 1) in
  Gen.clamp
    {
      Gen.seed = case_seed;
      n_functions = i 1 6;
      n_globals = i 0 4;
      n_fp_globals = i 0 2;
      locals_per_fn = i 0 4;
      stmts_per_fn = i 1 12;
      max_depth = i 1 3;
      heap_ratio = f 0. 1.;
      load_bias = f 0.1 4.;
      field_ratio = f 0. 0.9;
      indirect_ratio = f 0. 0.8;
      call_density = f 0. 5.;
      recursion_ratio = f 0. 0.6;
      global_traffic = f 0. 1.;
      empty_fn_ratio = f 0. 0.5;
      dead_block_ratio = f 0. 0.4;
      mutual_recursion_ratio = f 0. 0.6;
      null_reset_ratio = f 0. 0.4;
      chain_depth = i 0 6;
      phi_fanin = i 0 8;
    }

type case_kind = Plain | Adversarial | Mutant

let case_source rng case_seed =
  match Random.State.int rng 3 with
  | 0 -> (Plain, Gen.source (Gen.small_random case_seed))
  | 1 -> (Adversarial, Gen.source (adversarial_config rng case_seed))
  | _ ->
    let base_cfg =
      if Random.State.bool rng then adversarial_config rng case_seed
      else Gen.small_random case_seed
    in
    let ast = Pta_cfront.Cparser.parse (Gen.source base_cfg) in
    (Mutant, Pta_cfront.Ast_print.program (Mutate.program ~seed:case_seed ast))

let oracles_of cfg =
  match cfg.oracle with
  | None -> Ok Oracle.all
  | Some name -> (
    match Oracle.find name with
    | Some o -> Ok [ o ]
    | None -> Error (Printf.sprintf "unknown oracle %S (have: %s)" name
                       (String.concat ", " Oracle.names)))

(* One case, self-contained: everything from program generation to shrinking
   and corpus persistence happens on the domain running it, against that
   domain's private [Ptset]/[Stats] state, and only plain data comes back.
   Determinism is per-case by construction — the case seed is index-mixed
   and every random draw goes through the case-local PRNG — so fanning cases
   out over a pool cannot change any verdict, only who computes it. *)
type case_outcome = {
  o_kind : case_kind;
  o_loc : int;
  o_verdict : [ `Ok | `Rejected | `Fail of failure ];
}

let run_case cfg oracles case =
  (* keep the interning pool and memo tables case-local *)
  Pta_ds.Ptset.reset ();
  let case_seed = mix cfg.seed case in
  let rng = Random.State.make [| case_seed; 0xF022 |] in
  let kind, src = case_source rng case_seed in
  let rec first_failure = function
    | [] -> `None
    | o :: rest -> (
      match o.Oracle.check src with
      | Oracle.Pass -> first_failure rest
      | Oracle.Rejected _ ->
        (* the frontend refused the program; no later oracle can say
           anything about it either *)
        `Rejected
      | Oracle.Fail { cls; detail } -> `Fail (o, cls, detail))
  in
  (* The case's interned-set pool, after every oracle has used it, must
     still satisfy its invariant; a violation is a case failure of the
     pseudo-oracle "pool" (nothing to shrink). *)
  let with_pool_check v =
    match Pta_ds.Ptset.check_pool () with
    | Ok () -> v
    | Error detail ->
      `Fail
        {
          case;
          case_seed;
          oracle_name = "pool";
          cls = "pool-invariant";
          detail;
          shrunk_loc = Gen.loc src;
          shrink_steps = 0;
          corpus_path = None;
        }
  in
  let verdict =
    match first_failure oracles with
    | `None -> with_pool_check `Ok
    | `Rejected -> with_pool_check `Rejected
    | `Fail (o, cls, detail) ->
      let ast = Pta_cfront.Cparser.parse src in
      let shrunk =
        Shrink.minimize ~oracle:o ~cls ~max_steps:cfg.max_shrink_steps ast
      in
      let shrunk_src = Pta_cfront.Ast_print.program shrunk.Shrink.program in
      let corpus_path =
        Option.map
          (fun dir ->
            Corpus.save ~dir
              {
                Corpus.oracle = o.Oracle.name;
                seed = case_seed;
                cls;
                verdict = Corpus.Fail;
                note =
                  Printf.sprintf
                    "campaign seed=%d case=%d; shrunk %d->%d loc in %d steps"
                    cfg.seed case (Gen.loc src) (Gen.loc shrunk_src)
                    shrunk.Shrink.steps;
                source = shrunk_src;
              })
          cfg.corpus_dir
      in
      `Fail
        {
          case;
          case_seed;
          oracle_name = o.Oracle.name;
          cls;
          detail;
          shrunk_loc = Gen.loc shrunk_src;
          shrink_steps = shrunk.Shrink.steps;
          corpus_path;
        }
  in
  { o_kind = kind; o_loc = Gen.loc src; o_verdict = verdict }

let run ?(jobs = 1) cfg =
  match oracles_of cfg with
  | Error e -> Error e
  | Ok oracles ->
    (* The fan-out: cases run on pool workers (even at [jobs = 1], so the
       caller's domain-local state is never touched by a campaign), the
       join folds outcomes back in case order — the report is therefore
       byte-identical for every jobs count. *)
    let outcomes =
      Pta_par.Pool.run ~jobs (run_case cfg oracles)
        (List.init cfg.runs Fun.id)
    in
    let rejected = ref 0 in
    let gen_cases = ref 0
    and adversarial_cases = ref 0
    and mutant_cases = ref 0 in
    let total_loc = ref 0 in
    let failures = ref [] in
    List.iter
      (fun o ->
        (match o.o_kind with
        | Plain -> incr gen_cases
        | Adversarial -> incr adversarial_cases
        | Mutant -> incr mutant_cases);
        total_loc := !total_loc + o.o_loc;
        match o.o_verdict with
        | `Ok -> ()
        | `Rejected -> incr rejected
        | `Fail f -> failures := f :: !failures)
      outcomes;
    Ok
      {
        cfg;
        cases = cfg.runs;
        rejected = !rejected;
        gen_cases = !gen_cases;
        adversarial_cases = !adversarial_cases;
        mutant_cases = !mutant_cases;
        total_loc = !total_loc;
        failures = List.rev !failures;
      }

let pp_report ppf r =
  let oracle_names =
    match r.cfg.oracle with Some n -> n | None -> String.concat "," Oracle.names
  in
  Format.fprintf ppf "fuzz: runs=%d seed=%d max-shrink-steps=%d oracles=%s@."
    r.cfg.runs r.cfg.seed r.cfg.max_shrink_steps oracle_names;
  Format.fprintf ppf
    "fuzz: cases %d (generated %d, adversarial %d, mutants %d), %d loc total@."
    r.cases r.gen_cases r.adversarial_cases r.mutant_cases r.total_loc;
  List.iter
    (fun f ->
      Format.fprintf ppf "@.FAIL case=%d seed=%d oracle=%s cls=%s@." f.case
        f.case_seed f.oracle_name f.cls;
      Format.fprintf ppf "  %s@."
        (String.concat "\n  " (String.split_on_char '\n' f.detail));
      Format.fprintf ppf "  shrunk to %d loc in %d oracle checks%s@."
        f.shrunk_loc f.shrink_steps
        (match f.corpus_path with
        | Some p -> " -> " ^ p
        | None -> " (no corpus dir; not persisted)"))
    r.failures;
  Format.fprintf ppf "@.fuzz: %d ok, %d rejected mutants, %d failures@."
    (r.cases - r.rejected - List.length r.failures)
    r.rejected
    (List.length r.failures)

let report_to_string r = Format.asprintf "%a" pp_report r
