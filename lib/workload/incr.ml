(* Function-level incremental re-analysis: content-addressed splicing of
   per-function SFS results.

   The unit of reuse is a function's *dependency closure*. A function's
   flow-sensitive result is fully determined by the value-flow subgraph
   that can reach it: SVFG nodes and indirect edges, top-level def-use
   chains, and the call-boundary flows of every *potential* call edge (the
   auxiliary call graph over-approximates the solvers' on-the-fly
   resolution, so closing over it covers any edge the solve can discover).
   We digest each function's local content by *name* (names survive edits
   that shift ids), digest each closure as the combination of its members'
   local digests, and address per-function result artifacts
   (stage "fnresult") by the closure digest. On a reload:

     - a closure hit means everything that could influence the function is
       byte-identical to a previous solve — its pt / IN / OUT entries are
       seeded verbatim and the function's nodes are never re-processed;
     - a miss (edited function, or any function upstream of one) marks the
       function dirty: its nodes are scheduled, its IN sets start from the
       values its reused predecessors would have propagated (boundary
       injection), and call/def sites in the reused region that feed it
       are scheduled so parameter/return unions and on-the-fly call edges
       re-fire.

   The seeded solve then converges to the cold fixpoint (monotone engine,
   sound seeds) while popping only the dirty region — strictly fewer
   engine steps whenever anything is reused.

   Fallbacks are always whole-program correctness-preserving: duplicate
   variable or function names, a decode failure, or an unresolvable name
   simply mark artifacts unusable (full or partial re-solve), never wrong
   results. *)

module Store = Pta_store.Store
module Codec = Pta_store.Codec
module Digest = Pta_store.Digest
module Svfg = Pta_svfg.Svfg
module Annot = Pta_memssa.Annot
module Sfs = Pta_sfs.Sfs
open Pta_ir
open Pta_ds

let stage = "fnresult"

(* ---------- program-wide naming ---------- *)

(* ---------- structural views of the SVFG ---------- *)

let node_fn svfg n =
  match Svfg.kind svfg n with
  | Svfg.NInst { f; _ }
  | Svfg.NMemPhi { f; _ }
  | Svfg.NFormalIn { f; _ }
  | Svfg.NFormalOut { f; _ }
  | Svfg.NActualIn { f; _ }
  | Svfg.NActualOut { f; _ } -> f

type structure = {
  prog : Prog.t;
  svfg : Svfg.t;
  n_funcs : int;
  fn_nodes : int array array;  (** function id -> node ids, ascending *)
  local_of : int array;  (** node id -> index within its function *)
  fn_of_node : int array;
  sources : int list array;  (** var -> nodes whose processing writes pt(var) *)
  call_edges : (Callgraph.callsite * int * Inst.func_id) list;
      (** potential call edges [(cs, cs_node, callee)]: auxiliary call
          graph plus static direct calls — a superset of anything the
          on-the-fly resolution can discover *)
}

let build_structure prog aux svfg =
  let n = Svfg.n_nodes svfg in
  let n_funcs = Prog.n_funcs prog in
  let buckets = Array.make n_funcs [] in
  let fn_of_node = Array.make n 0 in
  for i = n - 1 downto 0 do
    let f = node_fn svfg i in
    fn_of_node.(i) <- f;
    buckets.(f) <- i :: buckets.(f)
  done;
  let fn_nodes = Array.map Array.of_list buckets in
  let local_of = Array.make n 0 in
  Array.iter
    (fun nodes -> Array.iteri (fun li node -> local_of.(node) <- li) nodes)
    fn_nodes;
  (* Potential call edges: every auxiliary-call-graph edge plus every
     static direct call (the latter are connected pre-solve and may be
     absent from the auxiliary graph's view). *)
  let seen = Hashtbl.create 256 in
  let call_edges = ref [] in
  let add_edge cs g =
    let node = Svfg.node_of_inst svfg cs.Callgraph.cs_func cs.Callgraph.cs_inst in
    if node >= 0 && not (Hashtbl.mem seen (cs, g)) then begin
      Hashtbl.add seen (cs, g) ();
      call_edges := (cs, node, g) :: !call_edges
    end
  in
  Callgraph.iter_edges aux.Pta_memssa.Modref.cg add_edge;
  Prog.iter_funcs prog (fun fn ->
      for i = 0 to Prog.n_insts fn - 1 do
        match Prog.inst fn i with
        | Inst.Call { callee = Inst.Direct g; _ } ->
          add_edge { Callgraph.cs_func = fn.Prog.id; cs_inst = i } g
        | _ -> ()
      done);
  (* Producers of each top-level variable: its defining node, plus — for
     parameters and call results — the call and exit nodes whose
     processing unions into it (Solver_common.process_top_level). *)
  let sources = Array.make (Prog.n_vars prog) [] in
  let add_source v node = if node >= 0 then sources.(v) <- node :: sources.(v) in
  Prog.iter_vars prog (fun v -> add_source v (Svfg.def_node svfg v));
  List.iter
    (fun (cs, cs_node, g) ->
      let callee = Prog.func prog g in
      List.iter (fun p -> add_source p cs_node) callee.Prog.params;
      match Prog.inst (Prog.func prog cs.Callgraph.cs_func) cs.Callgraph.cs_inst with
      | Inst.Call { lhs = Some l; _ } ->
        if callee.Prog.ret <> None then begin
          add_source l cs_node;
          add_source l (Svfg.exit_node svfg g)
        end
      | _ -> ())
    !call_edges;
  { prog; svfg; n_funcs; fn_nodes; local_of; fn_of_node; sources;
    call_edges = !call_edges }

(* Qualified variable name: raw names are only scoped per function
   (parameters and locals keep their source names, so "p" recurs in every
   function that has a parameter p) — prefixing the defining function's
   name makes them program-wide handles that survive edits elsewhere.
   Objects and never-assigned variables have no defining node; their raw
   names are already globally scoped by the lowering's naming conventions
   ("fn.heapN", "g.o", "base.fN"), and {!build_name_maps} verifies the
   result is injective either way. *)
let qual st v =
  let d = Svfg.def_node st.svfg v in
  if d >= 0 then
    (Prog.func st.prog st.fn_of_node.(d)).Prog.fname ^ "/"
    ^ Prog.name st.prog v
  else "/" ^ Prog.name st.prog v

(* Semantic handle of an SVFG node within its function: kind anchor plus
   qualified object name — never the node's index, global or local. Node
   *enumeration order* is layout (hash-order) dependent and shifts under
   edits elsewhere in the program, so indices can neither appear in digest
   buffers nor address artifact rows. Injective per function: one node per
   instruction / (phi site, object) / (boundary site, object). *)
let local_tag st n =
  let name v = qual st v in
  match Svfg.kind st.svfg n with
  | Svfg.NInst { i; _ } -> "I" ^ string_of_int i
  | Svfg.NMemPhi { at; obj; _ } -> Printf.sprintf "M%d:%s" at (name obj)
  | Svfg.NFormalIn { obj; _ } -> "FI:" ^ name obj
  | Svfg.NFormalOut { obj; _ } -> "FO:" ^ name obj
  | Svfg.NActualIn { call; obj; _ } -> Printf.sprintf "AI%d:%s" call (name obj)
  | Svfg.NActualOut { call; obj; _ } ->
    Printf.sprintf "AO%d:%s" call (name obj)

(* Name-based matching across program versions requires the qualified
   names to be injective (and function names, which scope them). Generated
   and lowered programs satisfy this by construction; a hand-written IR
   file may not — then splicing is disabled wholesale (correct, just never
   incremental). *)
let build_name_maps st =
  let vars = Hashtbl.create 256 and funcs = Hashtbl.create 64 in
  let ok = ref true in
  Prog.iter_vars st.prog (fun v ->
      let n = qual st v in
      if Hashtbl.mem vars n then ok := false else Hashtbl.add vars n v);
  Prog.iter_funcs st.prog (fun fn ->
      if Hashtbl.mem funcs fn.Prog.fname then ok := false
      else Hashtbl.add funcs fn.Prog.fname fn.Prog.id);
  if !ok then Some vars else None

(* ---------- per-function local digests ---------- *)

(* Everything the solver can read about a function, by name: its IR, its
   SVFG nodes and the indirect edges incident to them (endpoints as
   (function name, local node index)), μ/χ annotations, the static
   strong-update facts, and the kind/singleton/function binding of every
   object it mentions. Two functions (across program versions) with equal
   local digests present bit-identical transfer functions to the solver. *)
let local_digests st =
  let prog = st.prog and svfg = st.svfg in
  let annot = Svfg.annot svfg in
  let aux = Svfg.aux svfg in
  let bufs = Array.init st.n_funcs (fun _ -> Buffer.create 512) in
  let edges = Array.make st.n_funcs [] in
  (* qualified names throughout: a digest must pin exactly which
     program-wide entity every mention refers to (a local shadowing a
     global must not read back as the global) *)
  let name v = qual st v in
  let add_names b s =
    let names = List.sort compare (List.map name (Bitset.elements s)) in
    Buffer.add_char b '{';
    List.iter (fun x -> Buffer.add_string b x; Buffer.add_char b ';') names;
    Buffer.add_char b '}'
  in
  (* objects a function mentions: record the facts the solver reads about
     them — kind tag, singleton flag, function binding *)
  let obj_facts b o =
    Buffer.add_string b (name o);
    Buffer.add_char b ':';
    (match Prog.obj_kind prog o with
    | Prog.Stack -> Buffer.add_char b 'S'
    | Prog.Global -> Buffer.add_char b 'G'
    | Prog.Heap -> Buffer.add_char b 'H'
    | Prog.Func f -> Buffer.add_string b ("F" ^ (Prog.func prog f).Prog.fname)
    | Prog.FieldOf { base; offset } ->
      Buffer.add_string b (Printf.sprintf "f%s+%d" (name base) offset));
    Buffer.add_string b (if Prog.is_singleton prog o then "!1" else "!n");
    Buffer.add_string b (if Prog.is_dead prog o then "!d" else "");
    Buffer.add_char b ' '
  in
  let objs_mentioned = Array.init st.n_funcs (fun _ -> Hashtbl.create 32) in
  let mention f o = Hashtbl.replace objs_mentioned.(f) o () in
  let mention_set f s = Bitset.iter (mention f) s in
  (* IR + annotations *)
  Prog.iter_funcs prog (fun fn ->
      let f = fn.Prog.id in
      let b = bufs.(f) in
      Buffer.add_string b ("fn " ^ fn.Prog.fname ^ "(");
      List.iter (fun p -> Buffer.add_string b (name p ^ ",")) fn.Prog.params;
      Buffer.add_string b ")";
      (match fn.Prog.ret with
      | Some r -> Buffer.add_string b ("->" ^ name r)
      | None -> ());
      Buffer.add_string b (if fn.Prog.address_taken then "@" else "");
      Buffer.add_char b '\n';
      for i = 0 to Prog.n_insts fn - 1 do
        Buffer.add_string b (string_of_int i ^ ":");
        (match Prog.inst fn i with
        | Inst.Entry -> Buffer.add_string b "entry"
        | Inst.Exit -> Buffer.add_string b "exit"
        | Inst.Branch -> Buffer.add_string b "br"
        | Inst.Alloc { lhs; obj } ->
          Buffer.add_string b (name lhs ^ "=alloc " ^ name obj);
          mention f obj
        | Inst.Copy { lhs; rhs } ->
          Buffer.add_string b (name lhs ^ "=" ^ name rhs)
        | Inst.Phi { lhs; rhs } ->
          Buffer.add_string b (name lhs ^ "=phi");
          List.iter (fun r -> Buffer.add_string b (" " ^ name r)) rhs
        | Inst.Field { lhs; base; offset } ->
          Buffer.add_string b
            (Printf.sprintf "%s=&%s->%d" (name lhs) (name base) offset)
        | Inst.Load { lhs; ptr } ->
          Buffer.add_string b (name lhs ^ "=*" ^ name ptr);
          mention_set f (Annot.mu annot f i);
          Buffer.add_string b " mu";
          add_names b (Annot.mu annot f i)
        | Inst.Store { ptr; rhs } ->
          Buffer.add_string b ("*" ^ name ptr ^ "=" ^ name rhs);
          mention_set f (Annot.chi annot f i);
          Buffer.add_string b " chi";
          add_names b (Annot.chi annot f i);
          (* the static strong-update condition reads |pt_aux(ptr)| *)
          Buffer.add_string b
            (if Bitset.cardinal (aux.Pta_memssa.Modref.pt ptr) = 1 then "!su"
             else "!weak")
        | Inst.Call { lhs; callee; args } ->
          (match lhs with
          | Some l -> Buffer.add_string b (name l ^ "=")
          | None -> ());
          (match callee with
          | Inst.Direct g ->
            Buffer.add_string b ("call " ^ (Prog.func prog g).Prog.fname)
          | Inst.Indirect fp -> Buffer.add_string b ("icall " ^ name fp));
          List.iter (fun a -> Buffer.add_string b (" " ^ name a)) args;
          mention_set f (Annot.mu annot f i);
          mention_set f (Annot.chi annot f i);
          Buffer.add_string b " mu";
          add_names b (Annot.mu annot f i);
          Buffer.add_string b " chi";
          add_names b (Annot.chi annot f i));
        Buffer.add_char b '\n'
      done;
      Buffer.add_string b "entry_chi";
      mention_set f (Annot.entry_chi annot f);
      add_names b (Annot.entry_chi annot f);
      Buffer.add_string b " exit_mu";
      mention_set f (Annot.exit_mu annot f);
      add_names b (Annot.exit_mu annot f);
      Buffer.add_char b '\n');
  (* SVFG nodes and indirect edges, by semantic handle ({!local_tag}) and
     in sorted order: enumeration order is layout-dependent and must not
     reach the digest. An edge is recorded on both endpoint functions so
     either side's digest shifts when it appears/disappears. *)
  let fname_of f = (Prog.func prog f).Prog.fname in
  let node_str n = fname_of st.fn_of_node.(n) ^ "#" ^ local_tag st n in
  let node_tags = Array.make st.n_funcs [] in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    let f = st.fn_of_node.(n) in
    (match Svfg.kind svfg n with
    | Svfg.NInst _ -> ()
    | Svfg.NMemPhi { obj; _ }
    | Svfg.NFormalIn { obj; _ }
    | Svfg.NFormalOut { obj; _ }
    | Svfg.NActualIn { obj; _ }
    | Svfg.NActualOut { obj; _ } -> mention f obj);
    node_tags.(f) <- local_tag st n :: node_tags.(f);
    Svfg.iter_ind_all svfg n (fun o m ->
        let fm = st.fn_of_node.(m) in
        mention f o;
        mention fm o;
        let e = Printf.sprintf "%s --%s--> %s" (node_str n) (name o) (node_str m) in
        edges.(f) <- e :: edges.(f);
        if fm <> f then edges.(fm) <- e :: edges.(fm))
  done;
  Array.init st.n_funcs (fun f ->
      let b = bufs.(f) in
      List.iter
        (fun t -> Buffer.add_string b ("node " ^ t); Buffer.add_char b '\n')
        (List.sort compare node_tags.(f));
      List.iter
        (fun e -> Buffer.add_string b e; Buffer.add_char b '\n')
        (List.sort compare edges.(f));
      (* facts about every mentioned object, in canonical order *)
      let objs =
        List.sort compare
          (Hashtbl.fold (fun o () acc -> name o :: acc) objs_mentioned.(f) [])
      in
      let by_name = Hashtbl.create 32 in
      Hashtbl.iter
        (fun o () -> Hashtbl.replace by_name (name o) o)
        objs_mentioned.(f);
      List.iter (fun nm -> obj_facts b (Hashtbl.find by_name nm)) objs;
      Digest.hex (Buffer.contents b))

(* ---------- closures ---------- *)

(* Function-level influence edges (f1 -> f2: f1's content can affect f2's
   values), derived from cross-function SVFG edges, top-level def-use, and
   potential call-boundary flows. *)
let closure_digests st locals =
  let svfg = st.svfg in
  let preds = Array.make st.n_funcs [] in
  let add_edge f1 f2 = if f1 <> f2 then preds.(f2) <- f1 :: preds.(f2) in
  (* which functions memory can enter / leave at all: without formal-in
     nodes no ActualIn -> FormalIn edge can ever materialise, without
     formal-outs no FormalOut -> ActualOut *)
  let has_fin = Array.make st.n_funcs false in
  let has_fout = Array.make st.n_funcs false in
  for n = 0 to Svfg.n_nodes svfg - 1 do
    match Svfg.kind svfg n with
    | Svfg.NFormalIn { f; _ } -> has_fin.(f) <- true
    | Svfg.NFormalOut { f; _ } -> has_fout.(f) <- true
    | _ -> ()
  done;
  for n = 0 to Svfg.n_nodes svfg - 1 do
    Svfg.iter_ind_all svfg n (fun _ m ->
        add_edge st.fn_of_node.(n) st.fn_of_node.(m))
  done;
  (* A variable's sources reach its users' functions, and the function
     that defines it: its pt row is stored there even when nothing uses it
     (an unused parameter written only by callers). *)
  Array.iteri
    (fun v srcs ->
      match srcs with
      | [] -> ()
      | _ ->
        let users = Svfg.users svfg v in
        let def = Svfg.def_node svfg v in
        List.iter
          (fun s ->
            let f = st.fn_of_node.(s) in
            if def >= 0 then add_edge f st.fn_of_node.(def);
            List.iter (fun u -> add_edge f st.fn_of_node.(u)) users)
          srcs)
    st.sources;
  List.iter
    (fun (_cs, cs_node, g) ->
      (* memory flows into the callee only when it has formal-in nodes and
         back out only when it has formal-outs; top-level parameter/return
         flow is already covered by the [sources] def-use edges above.
         Keeping these directed (rather than blanket bidirectional) is what
         lets an edit to a pure sink leave the rest of the program reused:
         blanket edges would make every closure span the whole undirected
         call graph. *)
      if has_fin.(g) then add_edge st.fn_of_node.(cs_node) g;
      if has_fout.(g) then add_edge g st.fn_of_node.(cs_node))
    st.call_edges;
  let preds = Array.map (fun l -> List.sort_uniq compare l) preds in
  (* backward reachability per function (the root included) *)
  Array.init st.n_funcs (fun f ->
      let seen = Array.make st.n_funcs false in
      let rec visit g =
        if not seen.(g) then begin
          seen.(g) <- true;
          List.iter visit preds.(g)
        end
      in
      visit f;
      let members = ref [] in
      for g = st.n_funcs - 1 downto 0 do
        if seen.(g) && g <> f then members := locals.(g) :: !members
      done;
      Digest.combine (locals.(f) :: List.sort compare !members))

(* ---------- per-function result artifacts ---------- *)

(* Payload: a sorted string pool (qualified variable names and semantic
   node tags), then rows referencing it.
     pt rows:  (var, set)       — vars defined in this function
     in rows:  (node tag, obj, set)
     out rows: (node tag, obj, set)
   All sets are element lists of pool indices; all rows sorted. Nodes are
   addressed by {!local_tag}, never by index: enumeration order within a
   function is layout-dependent even when the digest is unchanged. *)
let encode_fnresult ~pool_names ~pt_rows ~in_rows ~out_rows ~n_local =
  let b = Buffer.create 1024 in
  Codec.add_uint b n_local;
  Codec.add_array Codec.add_string b pool_names;
  let add_set buf l =
    Codec.add_list Codec.add_uint buf l
  in
  Codec.add_list
    (fun buf (v, set) ->
      Codec.add_uint buf v;
      add_set buf set)
    b pt_rows;
  let add_mem_row buf (tag, o, set) =
    Codec.add_uint buf tag;
    Codec.add_uint buf o;
    add_set buf set
  in
  Codec.add_list add_mem_row b in_rows;
  Codec.add_list add_mem_row b out_rows;
  Buffer.contents b

type fnresult = {
  r_pt : (Inst.var * Bitset.t) list;
  r_ins : (int * Inst.var * Bitset.t) list;  (* node ids resolved *)
  r_outs : (int * Inst.var * Bitset.t) list;
}

(* Decode against the *current* program: pool strings resolve through the
   variable name map or the function's node-tag map; any unresolvable
   string means the artifact mentions state this program version cannot
   express — treat as a miss. *)
let decode_fnresult ~var_of_name ~node_of_tag ~n_local payload =
  let d = Codec.of_string payload in
  let n = Codec.uint d in
  if n <> n_local then raise (Codec.Corrupt "node count");
  let pool = Codec.array Codec.string d in
  let str i =
    if i >= Array.length pool then raise (Codec.Corrupt "pool index")
    else pool.(i)
  in
  let var i =
    let nm = str i in
    match Hashtbl.find_opt var_of_name nm with
    | Some v -> v
    | None -> raise (Codec.Corrupt ("unknown name " ^ nm))
  in
  let node i =
    let nm = str i in
    match Hashtbl.find_opt node_of_tag nm with
    | Some n -> n
    | None -> raise (Codec.Corrupt ("unknown node " ^ nm))
  in
  let read_set d =
    let l = Codec.list Codec.uint d in
    let s = Bitset.create () in
    List.iter (fun i -> ignore (Bitset.add s (var i))) l;
    s
  in
  let pt_rows =
    Codec.list
      (fun d ->
        let v = var (Codec.uint d) in
        (v, read_set d))
      d
  in
  let read_mem d =
    let n = node (Codec.uint d) in
    let o = var (Codec.uint d) in
    (n, o, read_set d)
  in
  let in_rows = Codec.list read_mem d in
  let out_rows = Codec.list read_mem d in
  Codec.expect_end d;
  { r_pt = pt_rows; r_ins = in_rows; r_outs = out_rows }

(* ---------- planning & the spliced solve ---------- *)

type stats = {
  funcs_total : int;
  funcs_reused : int;
  funcs_dirty : int;
  scheduled : int;
  spliceable : bool;  (** false: names not unique, whole-program fallback *)
}

type table = {
  st : structure;
  locals : string array;
  closures : string array;
  var_of_name : (string, Inst.var) Hashtbl.t;
}

let digest_table (b : Pipeline.built) svfg =
  let st = build_structure b.Pipeline.prog b.Pipeline.aux svfg in
  match build_name_maps st with
  | None -> None
  | Some var_of_name ->
    let locals = local_digests st in
    let closures = closure_digests st locals in
    Some { st; locals; closures; var_of_name }

let fn_key closure_digest = Store.key ~stage [ closure_digest ]

(* Save the per-function artifacts of a solved result for every function
   in [save_for] (ids). *)
let save_fnresults ~store ?(label = "") tbl (r : Sfs.result) save_for =
  let prog = tbl.st.prog in
  let wanted = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace wanted f ()) save_for;
  if Hashtbl.length wanted > 0 then begin
    let n_funcs = tbl.st.n_funcs in
    (* collect rows per function *)
    let pt_rows = Array.make n_funcs []
    and in_rows = Array.make n_funcs []
    and out_rows = Array.make n_funcs []
    and pools = Array.init n_funcs (fun _ -> Hashtbl.create 64) in
    let intern_str f nm =
      match Hashtbl.find_opt pools.(f) nm with
      | Some i -> i
      | None ->
        let i = Hashtbl.length pools.(f) in
        Hashtbl.add pools.(f) nm i;
        i
    in
    let intern f v = intern_str f (qual tbl.st v) in
    let set_row f s =
      List.sort compare (List.map (intern f) (Bitset.elements s))
    in
    Prog.iter_vars prog (fun v ->
        let def = Svfg.def_node tbl.st.svfg v in
        if def >= 0 then begin
          let f = tbl.st.fn_of_node.(def) in
          if Hashtbl.mem wanted f then
            let s = Sfs.pt r v in
            if not (Bitset.is_empty s) then
              pt_rows.(f) <- (intern f v, set_row f s) :: pt_rows.(f)
        end);
    let mem_row rows n o s =
      let f = tbl.st.fn_of_node.(n) in
      if Hashtbl.mem wanted f then
        rows.(f) <-
          (intern_str f (local_tag tbl.st n), intern f o, set_row f s)
          :: rows.(f)
    in
    Sfs.iter_ins r (fun n o s -> mem_row in_rows n o s);
    Sfs.iter_outs r (fun n o s -> mem_row out_rows n o s);
    List.iter
      (fun f ->
        (* canonical payload: sort the name pool and remap the rows *)
        let names =
          Array.of_list
            (List.sort compare
               (Hashtbl.fold (fun nm _ acc -> nm :: acc) pools.(f) []))
        in
        let index = Hashtbl.create (Array.length names) in
        Array.iteri (fun i nm -> Hashtbl.replace index nm i) names;
        let old_to_new = Array.make (Hashtbl.length pools.(f)) 0 in
        Hashtbl.iter
          (fun nm i0 -> old_to_new.(i0) <- Hashtbl.find index nm)
          pools.(f);
        let fix_set l = List.sort compare (List.map (fun i -> old_to_new.(i)) l) in
        let pt =
          List.sort compare
            (List.map (fun (v, s) -> (old_to_new.(v), fix_set s)) pt_rows.(f))
        in
        let fix_mem rows =
          List.sort compare
            (List.map
               (fun (tag, o, s) -> (old_to_new.(tag), old_to_new.(o), fix_set s))
               rows)
        in
        let payload =
          encode_fnresult ~pool_names:names ~pt_rows:pt
            ~in_rows:(fix_mem in_rows.(f)) ~out_rows:(fix_mem out_rows.(f))
            ~n_local:(Array.length tbl.st.fn_nodes.(f))
        in
        let fname = (Prog.func prog f).Prog.fname in
        Store.save store ~stage ~key:(fn_key tbl.closures.(f))
          ~label:(if label = "" then "fn:" ^ fname else label ^ " fn:" ^ fname)
          payload)
      (List.sort compare
         (Hashtbl.fold (fun f () acc -> f :: acc) wanted []))
  end

(* The spliced solve: plan from store hits, seed, run, save what was
   missing. Returns the result plus reuse accounting. *)
let run_sfs_spliced ~store ?label (b : Pipeline.built) svfg =
  match digest_table b svfg with
  | None ->
    (* names not unique: whole-program solve, no artifacts *)
    let r = Sfs.solve svfg in
    ( r,
      {
        funcs_total = Prog.n_funcs b.Pipeline.prog;
        funcs_reused = 0;
        funcs_dirty = Prog.n_funcs b.Pipeline.prog;
        scheduled = Svfg.n_nodes svfg;
        spliceable = false;
      },
      None )
  | Some tbl ->
    let st = tbl.st in
    let n_funcs = st.n_funcs in
    let decoded = Array.make n_funcs None in
    for f = 0 to n_funcs - 1 do
      decoded.(f) <-
        Store.load store ~stage ~key:(fn_key tbl.closures.(f)) (fun payload ->
            let node_of_tag = Hashtbl.create 64 in
            Array.iter
              (fun n -> Hashtbl.replace node_of_tag (local_tag st n) n)
              st.fn_nodes.(f);
            decode_fnresult ~var_of_name:tbl.var_of_name ~node_of_tag
              ~n_local:(Array.length st.fn_nodes.(f)) payload)
    done;
    if Sys.getenv_opt "PTA_INCR_DEBUG" <> None then
      for f = 0 to n_funcs - 1 do
        Printf.eprintf "incr: %-20s local=%s closure=%s %s\n%!"
          (Prog.func st.prog f).Prog.fname
          (String.sub tbl.locals.(f) 0 8)
          (String.sub tbl.closures.(f) 0 8)
          (if decoded.(f) = None then "MISS" else "hit")
      done;
    let seeded f = decoded.(f) <> None in
    let schedule = Hashtbl.create 256 in
    let sched n = Hashtbl.replace schedule n () in
    (* (1) every node of a dirty function *)
    for f = 0 to n_funcs - 1 do
      if not (seeded f) then Array.iter sched st.fn_nodes.(f)
    done;
    (* (2) reused-region call sites with a dirty potential callee: their
       processing re-fires parameter unions, return subscriptions and
       on-the-fly call-edge syncs into the re-solved region *)
    List.iter
      (fun (_cs, cs_node, g) ->
        if seeded st.fn_of_node.(cs_node) && not (seeded g) then sched cs_node)
      st.call_edges;
    (* (3) top-level variables with any dirty producer cannot be seeded;
       schedule their reused-region producers so every contribution
       (parameter/return unions from reused callers) is recomputed *)
    let var_seedable = Array.make (Prog.n_vars st.prog) true in
    Array.iteri
      (fun v srcs ->
        if List.exists (fun s -> not (seeded st.fn_of_node.(s))) srcs then begin
          var_seedable.(v) <- false;
          List.iter (fun s -> if seeded st.fn_of_node.(s) then sched s) srcs
        end)
      st.sources;
    (* seeds from the decoded artifacts *)
    let seed_pt = ref [] and seed_ins = ref [] and seed_outs = ref [] in
    let outs_by_key = Hashtbl.create 256 and ins_by_key = Hashtbl.create 256 in
    Array.iter
      (function
        | None -> ()
        | Some fr ->
          List.iter
            (fun (v, s) ->
              (* the var's defining node is in this (seeded) function; all
                 other producers must be seeded too *)
              if var_seedable.(v) then seed_pt := (v, s) :: !seed_pt)
            fr.r_pt;
          List.iter
            (fun (n, o, s) ->
              seed_ins := (n, o, s) :: !seed_ins;
              Hashtbl.replace ins_by_key (n, o) s)
            fr.r_ins;
          List.iter
            (fun (n, o, s) ->
              seed_outs := (n, o, s) :: !seed_outs;
              Hashtbl.replace outs_by_key (n, o) s)
            fr.r_outs)
      decoded;
    (* (4) boundary injection: along every *static* indirect edge from a
       reused node to a dirty one, pre-union the value the reused side
       would have propagated (its OUT for stores, IN pass-through
       otherwise). Dynamic (indirect-call) edges need no injection: they
       are (re)discovered by the call sites scheduled in (2), whose
       on-call-edge sync performs exactly this union. *)
    let injected = Hashtbl.create 64 in
    for n = 0 to Svfg.n_nodes svfg - 1 do
      if seeded st.fn_of_node.(n) then
        Svfg.iter_ind_all svfg n (fun o m ->
            if not (seeded st.fn_of_node.(m)) then begin
              let exposed =
                let is_store =
                  match Svfg.kind svfg n with
                  | Svfg.NInst { f; i } ->
                    Inst.is_store (Prog.inst (Prog.func st.prog f) i)
                  | _ -> false
                in
                if is_store then Hashtbl.find_opt outs_by_key (n, o)
                else Hashtbl.find_opt ins_by_key (n, o)
              in
              match exposed with
              | None -> ()
              | Some s ->
                let acc =
                  match Hashtbl.find_opt injected (m, o) with
                  | Some acc -> acc
                  | None ->
                    let acc = Bitset.create () in
                    Hashtbl.add injected (m, o) acc;
                    acc
                in
                ignore (Bitset.union_into ~into:acc s)
            end)
    done;
    Hashtbl.iter (fun (m, o) s -> seed_ins := (m, o, s) :: !seed_ins) injected;
    let schedule_list =
      List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) schedule [])
    in
    let reused = ref 0 in
    Array.iter (fun d -> if d <> None then incr reused) decoded;
    let seed =
      {
        Sfs.seed_pt = !seed_pt;
        seed_ins = !seed_ins;
        seed_outs = !seed_outs;
        schedule = schedule_list;
      }
    in
    let r = Sfs.solve ~seed svfg in
    (* persist what was missing, addressed by the new closure digests *)
    let missing = ref [] in
    for f = 0 to n_funcs - 1 do
      if decoded.(f) = None then missing := f :: !missing
    done;
    save_fnresults ~store ?label tbl r !missing;
    ( r,
      {
        funcs_total = n_funcs;
        funcs_reused = !reused;
        funcs_dirty = n_funcs - !reused;
        scheduled = List.length schedule_list;
        spliceable = true;
      },
      Some tbl )
