open Pta_ds
module Prog = Pta_ir.Prog
module Inst = Pta_ir.Inst
module Callgraph = Pta_ir.Callgraph
module Svfg = Pta_svfg.Svfg

let with_decoder bytes f =
  let d = Codec.of_string bytes in
  match f d with
  | x ->
    Codec.expect_end d;
    x
  | exception Invalid_argument m -> raise (Codec.Corrupt ("replay: " ^ m))
  | exception Failure m -> raise (Codec.Corrupt ("replay: " ^ m))

(* ---------- structure-shared bitset frames ----------

   Solver artifacts are dominated by bitsets, and after interning most of
   them are duplicates (the same points-to set referenced from many slots).
   A frame serialises each distinct bitset once, in first-appearance order,
   followed by the body in which every bitset is a pool index. Decoding
   returns shared instances — all consumers treat decoded bitsets as
   read-only, like interned views. *)

module BsTbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

type pool_enc = {
  tbl : int BsTbl.t;
  mutable sets : Bitset.t list;  (* reversed first-appearance order *)
  mutable n : int;
  body : Buffer.t;
}

let pool_enc () =
  { tbl = BsTbl.create 256; sets = []; n = 0; body = Buffer.create 8192 }

let add_sb p b s =
  let idx =
    match BsTbl.find_opt p.tbl s with
    | Some i -> i
    | None ->
      let i = p.n in
      p.n <- i + 1;
      BsTbl.add p.tbl s i;
      p.sets <- s :: p.sets;
      i
  in
  Codec.add_uint b idx

let add_sbs p b a = Codec.add_array (add_sb p) b a

(* ---------- v3: block-pooled set pools ----------

   Whole-set dedup still leaves cross-set redundancy on disk: two distinct
   points-to sets that share a large stable core re-serialise every shared
   word. The v3 pool splits each set into 16-word block spans, serialises
   each *distinct* span once, and encodes a set as (delta-coded block
   index, block ref) pairs.

   Layout: magic | n_blocks | blocks (mask + words) | n_sets | sets | body.
   The magic is a set count no real v2 pool could reach (~2·10⁹ distinct
   sets), so a v2 pool, which starts with its set count, is rejected as
   corrupt. *)

let v3_pool_magic = 0x7fff_fff3
let pool_block_words = 16

let popcount word =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 word

let bitpos bit =
  let rec go b acc = if b = 1 then acc else go (b lsr 1) (acc + 1) in
  go bit 0

module BlkTbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash (a : int array) = Hashtbl.hash a
end)

(* pool first, then the index-referencing body *)
let pool_finish p =
  let btbl = BlkTbl.create 256 in
  let blocks = ref [] in
  let nb = ref 0 in
  let intern_span arr =
    match BlkTbl.find_opt btbl arr with
    | Some i -> i
    | None ->
      let i = !nb in
      incr nb;
      BlkTbl.add btbl arr i;
      blocks := arr :: !blocks;
      i
  in
  (* (block index, block ref) list per set, ascending block index *)
  let enc_set s =
    let entries = ref [] in
    let cur_bi = ref (-1) in
    let cur = ref [] in (* (local word, word) in reverse *)
    let flush () =
      if !cur_bi >= 0 then begin
        let lst = List.rev !cur in
        let mask =
          List.fold_left (fun m (lw, _) -> m lor (1 lsl lw)) 0 lst
        in
        let arr = Array.of_list (mask :: List.map snd lst) in
        entries := (!cur_bi, intern_span arr) :: !entries
      end
    in
    Bitset.iter_words
      (fun w word ->
        let bi = w / pool_block_words in
        if bi <> !cur_bi then begin
          flush ();
          cur_bi := bi;
          cur := []
        end;
        cur := (w mod pool_block_words, word) :: !cur)
      s;
    flush ();
    List.rev !entries
  in
  let encoded = List.rev_map enc_set p.sets in
  let out = Buffer.create (Buffer.length p.body + 1024) in
  Codec.add_uint out v3_pool_magic;
  Codec.add_uint out !nb;
  List.iter
    (fun arr ->
      Codec.add_uint out arr.(0);
      for k = 1 to Array.length arr - 1 do
        Codec.add_word out arr.(k)
      done)
    (List.rev !blocks);
  Codec.add_uint out p.n;
  List.iter
    (fun entries ->
      Codec.add_uint out (List.length entries);
      let prev = ref (-1) in
      List.iter
        (fun (bi, id) ->
          Codec.add_uint out (bi - !prev - 1);
          prev := bi;
          Codec.add_uint out id)
        entries)
    encoded;
  Buffer.add_buffer out p.body;
  Buffer.contents out

let shared_pool d =
  if Codec.uint d <> v3_pool_magic then raise (Codec.Corrupt "not a v3 pool");
  let nb = Codec.uint d in
  if nb > Codec.remaining d then
    raise (Codec.Corrupt (Printf.sprintf "block pool count %d" nb));
  let blocks =
    Array.init nb (fun _ ->
        let mask = Codec.uint d in
        if mask = 0 || mask >= 1 lsl pool_block_words then
          raise (Codec.Corrupt (Printf.sprintf "bad block mask %#x" mask));
        let n = popcount mask in
        let arr = Array.make (n + 1) 0 in
        arr.(0) <- mask;
        for k = 1 to n do
          let w = Codec.word d in
          if w = 0 then raise (Codec.Corrupt "zero word in block");
          arr.(k) <- w
        done;
        arr)
  in
  let ns = Codec.uint d in
  if ns > Codec.remaining d then
    raise (Codec.Corrupt (Printf.sprintf "set pool count %d" ns));
  Array.init ns (fun _ ->
      let ne = Codec.uint d in
      if ne > Codec.remaining d then
        raise (Codec.Corrupt (Printf.sprintf "set span count %d" ne));
      let s = Bitset.create () in
      let prev = ref (-1) in
      for _ = 1 to ne do
        let bi = !prev + 1 + Codec.uint d in
        prev := bi;
        let id = Codec.uint d in
        if id >= nb then
          raise
            (Codec.Corrupt (Printf.sprintf "block ref %d out of range" id));
        let arr = blocks.(id) in
        let mask = ref arr.(0) in
        let k = ref 1 in
        while !mask <> 0 do
          let bit = !mask land - !mask in
          mask := !mask land (!mask - 1);
          Bitset.append_word s
            ((bi * pool_block_words) + bitpos bit)
            arr.(!k);
          incr k
        done
      done;
      s)

let sb pool d =
  let i = Codec.uint d in
  if i >= Array.length pool then
    raise (Codec.Corrupt (Printf.sprintf "bitset pool index %d out of range" i));
  pool.(i)

let sbs pool d = Codec.array (sb pool) d

(* ---------- program ---------- *)

let add_okind b = function
  | Prog.Stack -> Codec.add_uint b 0
  | Prog.Global -> Codec.add_uint b 1
  | Prog.Heap -> Codec.add_uint b 2
  | Prog.Func f ->
    Codec.add_uint b 3;
    Codec.add_uint b f
  | Prog.FieldOf { base; offset } ->
    Codec.add_uint b 4;
    Codec.add_uint b base;
    Codec.add_uint b offset

let okind d =
  match Codec.uint d with
  | 0 -> Prog.Stack
  | 1 -> Prog.Global
  | 2 -> Prog.Heap
  | 3 -> Prog.Func (Codec.uint d)
  | 4 ->
    let base = Codec.uint d in
    let offset = Codec.uint d in
    Prog.FieldOf { base; offset }
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad object kind tag %d" t))

let add_callee b = function
  | Inst.Direct f ->
    Codec.add_uint b 0;
    Codec.add_uint b f
  | Inst.Indirect v ->
    Codec.add_uint b 1;
    Codec.add_uint b v

let callee d =
  match Codec.uint d with
  | 0 -> Inst.Direct (Codec.uint d)
  | 1 -> Inst.Indirect (Codec.uint d)
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad callee tag %d" t))

let add_inst b = function
  | Inst.Entry -> Codec.add_uint b 0
  | Inst.Exit -> Codec.add_uint b 1
  | Inst.Alloc { lhs; obj } ->
    Codec.add_uint b 2;
    Codec.add_uint b lhs;
    Codec.add_uint b obj
  | Inst.Copy { lhs; rhs } ->
    Codec.add_uint b 3;
    Codec.add_uint b lhs;
    Codec.add_uint b rhs
  | Inst.Phi { lhs; rhs } ->
    Codec.add_uint b 4;
    Codec.add_uint b lhs;
    Codec.add_list Codec.add_uint b rhs
  | Inst.Field { lhs; base; offset } ->
    Codec.add_uint b 5;
    Codec.add_uint b lhs;
    Codec.add_uint b base;
    Codec.add_uint b offset
  | Inst.Load { lhs; ptr } ->
    Codec.add_uint b 6;
    Codec.add_uint b lhs;
    Codec.add_uint b ptr
  | Inst.Store { ptr; rhs } ->
    Codec.add_uint b 7;
    Codec.add_uint b ptr;
    Codec.add_uint b rhs
  | Inst.Call { lhs; callee; args } ->
    Codec.add_uint b 8;
    Codec.add_option Codec.add_uint b lhs;
    add_callee b callee;
    Codec.add_list Codec.add_uint b args
  | Inst.Branch -> Codec.add_uint b 9

let inst d =
  match Codec.uint d with
  | 0 -> Inst.Entry
  | 1 -> Inst.Exit
  | 2 ->
    let lhs = Codec.uint d in
    let obj = Codec.uint d in
    Inst.Alloc { lhs; obj }
  | 3 ->
    let lhs = Codec.uint d in
    let rhs = Codec.uint d in
    Inst.Copy { lhs; rhs }
  | 4 ->
    let lhs = Codec.uint d in
    let rhs = Codec.list Codec.uint d in
    Inst.Phi { lhs; rhs }
  | 5 ->
    let lhs = Codec.uint d in
    let base = Codec.uint d in
    let offset = Codec.uint d in
    Inst.Field { lhs; base; offset }
  | 6 ->
    let lhs = Codec.uint d in
    let ptr = Codec.uint d in
    Inst.Load { lhs; ptr }
  | 7 ->
    let ptr = Codec.uint d in
    let rhs = Codec.uint d in
    Inst.Store { ptr; rhs }
  | 8 ->
    let lhs = Codec.option Codec.uint d in
    let callee = callee d in
    let args = Codec.list Codec.uint d in
    Inst.Call { lhs; callee; args }
  | 9 -> Inst.Branch
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad instruction tag %d" t))

let encode_prog prog =
  let b = Buffer.create 4096 in
  Codec.add_uint b (Prog.n_vars prog);
  Prog.iter_vars prog (fun v ->
      Codec.add_string b (Prog.name prog v);
      Codec.add_option add_okind b
        (if Prog.is_top prog v then None else Some (Prog.obj_kind prog v));
      Codec.add_bool b (Prog.is_singleton prog v);
      Codec.add_bool b (Prog.is_dead prog v));
  Codec.add_uint b (Prog.n_funcs prog);
  Prog.iter_funcs prog (fun f ->
      Codec.add_string b f.Prog.fname;
      Codec.add_list Codec.add_uint b f.Prog.params;
      Codec.add_option Codec.add_uint b f.Prog.ret;
      Codec.add_uint b f.Prog.exit_inst;
      Codec.add_bool b f.Prog.address_taken;
      Codec.add_int b f.Prog.fobj;
      let n = Prog.n_insts f in
      Codec.add_uint b n;
      for i = 0 to n - 1 do
        add_inst b (Prog.inst f i)
      done;
      for i = 0 to n - 1 do
        Codec.add_bitset b (Pta_graph.Digraph.succs f.Prog.cfg i)
      done);
  Codec.add_int b
    (match Prog.entry_opt prog with Some f -> f.Prog.id | None -> -1);
  Buffer.contents b

let decode_prog bytes =
  with_decoder bytes (fun d ->
      let prog = Prog.create () in
      let nv = Codec.uint d in
      for _ = 1 to nv do
        let name = Codec.string d in
        let kind = Codec.option okind d in
        let singleton = Codec.bool d in
        let dead = Codec.bool d in
        ignore (Prog.restore_var prog ~name ~kind ~singleton ~dead)
      done;
      let nf = Codec.uint d in
      for _ = 1 to nf do
        let fname = Codec.string d in
        let params = Codec.list Codec.uint d in
        let ret = Codec.option Codec.uint d in
        let exit_inst = Codec.uint d in
        let address_taken = Codec.bool d in
        let fobj = Codec.int d in
        let f = Prog.declare_func prog fname ~params in
        f.Prog.ret <- ret;
        f.Prog.exit_inst <- exit_inst;
        f.Prog.address_taken <- address_taken;
        f.Prog.fobj <- fobj;
        let n = Codec.uint d in
        if n < 2 then raise (Codec.Corrupt "function with fewer than 2 insts");
        for i = 0 to n - 1 do
          let ins = inst d in
          (* declare_func already pushed Entry/Exit at ids 0 and 1 *)
          if i < 2 then Prog.set_inst f i ins else ignore (Prog.add_inst f ins)
        done;
        for i = 0 to n - 1 do
          Bitset.iter (fun j -> Prog.add_flow f i j) (Codec.bitset d)
        done
      done;
      (match Codec.int d with
      | -1 -> ()
      | e ->
        if e < 0 || e >= Prog.n_funcs prog then
          raise (Codec.Corrupt "entry function out of range");
        Prog.set_entry prog e);
      prog)

(* ---------- Andersen ---------- *)

type aux = { pts : Bitset.t array; cg : Callgraph.t }

let to_aux a = { Pta_memssa.Modref.pt = (fun v -> a.pts.(v)); cg = a.cg }

let encode_aux a =
  let p = pool_enc () in
  let b = p.body in
  add_sbs p b a.pts;
  let edges = ref [] in
  Callgraph.iter_edges a.cg (fun cs g ->
      edges := (cs.Callgraph.cs_func, cs.Callgraph.cs_inst, g) :: !edges);
  let edges = List.sort compare !edges in
  Codec.add_list
    (fun b (f, i, g) ->
      Codec.add_uint b f;
      Codec.add_uint b i;
      Codec.add_uint b g)
    b edges;
  let ind = ref [] in
  Callgraph.iter_indirect_targets a.cg (fun f -> ind := f :: !ind);
  Codec.add_list Codec.add_uint b (List.rev !ind);
  pool_finish p

let decode_aux ~n_vars bytes =
  with_decoder bytes (fun d ->
      let pool = shared_pool d in
      let pts = sbs pool d in
      if Array.length pts <> n_vars then
        raise (Codec.Corrupt "points-to table length mismatch");
      let cg = Callgraph.create () in
      List.iter
        (fun (f, i, g) ->
          ignore (Callgraph.add cg { Callgraph.cs_func = f; cs_inst = i } g))
        (Codec.list
           (fun d ->
             let f = Codec.uint d in
             let i = Codec.uint d in
             let g = Codec.uint d in
             (f, i, g))
           d);
      List.iter
        (fun f -> Callgraph.mark_indirect_target cg f)
        (Codec.list Codec.uint d);
      { pts; cg })

(* ---------- SVFG ---------- *)

let add_nkind b = function
  | Svfg.NInst { f; i } ->
    Codec.add_uint b 0;
    Codec.add_uint b f;
    Codec.add_uint b i
  | Svfg.NMemPhi { f; at; obj } ->
    Codec.add_uint b 1;
    Codec.add_uint b f;
    Codec.add_uint b at;
    Codec.add_uint b obj
  | Svfg.NFormalIn { f; obj } ->
    Codec.add_uint b 2;
    Codec.add_uint b f;
    Codec.add_uint b obj
  | Svfg.NFormalOut { f; obj } ->
    Codec.add_uint b 3;
    Codec.add_uint b f;
    Codec.add_uint b obj
  | Svfg.NActualIn { f; call; obj } ->
    Codec.add_uint b 4;
    Codec.add_uint b f;
    Codec.add_uint b call;
    Codec.add_uint b obj
  | Svfg.NActualOut { f; call; obj } ->
    Codec.add_uint b 5;
    Codec.add_uint b f;
    Codec.add_uint b call;
    Codec.add_uint b obj

let nkind d =
  match Codec.uint d with
  | 0 ->
    let f = Codec.uint d in
    let i = Codec.uint d in
    Svfg.NInst { f; i }
  | 1 ->
    let f = Codec.uint d in
    let at = Codec.uint d in
    let obj = Codec.uint d in
    Svfg.NMemPhi { f; at; obj }
  | 2 ->
    let f = Codec.uint d in
    let obj = Codec.uint d in
    Svfg.NFormalIn { f; obj }
  | 3 ->
    let f = Codec.uint d in
    let obj = Codec.uint d in
    Svfg.NFormalOut { f; obj }
  | 4 ->
    let f = Codec.uint d in
    let call = Codec.uint d in
    let obj = Codec.uint d in
    Svfg.NActualIn { f; call; obj }
  | 5 ->
    let f = Codec.uint d in
    let call = Codec.uint d in
    let obj = Codec.uint d in
    Svfg.NActualOut { f; call; obj }
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad SVFG node tag %d" t))

let encode_svfg (r : Svfg.raw) =
  let p = pool_enc () in
  let b = p.body in
  Codec.add_array add_nkind b r.Svfg.raw_kinds;
  Codec.add_array
    (fun b (src, obj, dsts) ->
      Codec.add_uint b src;
      Codec.add_uint b obj;
      Codec.add_array Codec.add_uint b dsts)
    b r.Svfg.raw_ind;
  add_sbs p b r.Svfg.raw_mods;
  add_sbs p b r.Svfg.raw_refs;
  Codec.add_array (add_sbs p) b r.Svfg.raw_mu;
  Codec.add_array (add_sbs p) b r.Svfg.raw_chi;
  add_sbs p b r.Svfg.raw_entry_chis;
  add_sbs p b r.Svfg.raw_exit_mus;
  pool_finish p

let decode_svfg bytes =
  with_decoder bytes (fun d ->
      let pool = shared_pool d in
      let raw_kinds = Codec.array nkind d in
      let raw_ind =
        Codec.array
          (fun d ->
            let src = Codec.uint d in
            let obj = Codec.uint d in
            let dsts = Codec.array Codec.uint d in
            (src, obj, dsts))
          d
      in
      let raw_mods = sbs pool d in
      let raw_refs = sbs pool d in
      let raw_mu = Codec.array (sbs pool) d in
      let raw_chi = Codec.array (sbs pool) d in
      let raw_entry_chis = sbs pool d in
      let raw_exit_mus = sbs pool d in
      {
        Svfg.raw_kinds;
        raw_ind;
        raw_mods;
        raw_refs;
        raw_mu;
        raw_chi;
        raw_entry_chis;
        raw_exit_mus;
      })

(* ---------- versioning ---------- *)

let add_pairs b a =
  Codec.add_array
    (fun b (k, v) ->
      Codec.add_uint b k;
      Codec.add_uint b v)
    b a

let pairs d =
  Codec.array
    (fun d ->
      let k = Codec.uint d in
      let v = Codec.uint d in
      (k, v))
    d

let encode_versioning (r : Vsfs_core.Versioning.raw) =
  let b = Buffer.create 4096 in
  add_pairs b r.Vsfs_core.Versioning.raw_consume;
  add_pairs b r.Vsfs_core.Versioning.raw_store_yield;
  Codec.add_bitset b r.Vsfs_core.Versioning.raw_delta;
  Codec.add_array
    (fun b (k, s) ->
      Codec.add_uint b k;
      Codec.add_bitset b s)
    b r.Vsfs_core.Versioning.raw_reliance;
  Codec.add_uint b r.Vsfs_core.Versioning.raw_n_reliances;
  Codec.add_uint b r.Vsfs_core.Versioning.raw_n_prelabels;
  Codec.add_uint b r.Vsfs_core.Versioning.raw_n_versions;
  Buffer.contents b

let decode_versioning bytes =
  with_decoder bytes (fun d ->
      let raw_consume = pairs d in
      let raw_store_yield = pairs d in
      let raw_delta = Codec.bitset d in
      let raw_reliance =
        Codec.array
          (fun d ->
            let k = Codec.uint d in
            let s = Codec.bitset d in
            (k, s))
          d
      in
      let raw_n_reliances = Codec.uint d in
      let raw_n_prelabels = Codec.uint d in
      let raw_n_versions = Codec.uint d in
      {
        Vsfs_core.Versioning.raw_consume;
        raw_store_yield;
        raw_delta;
        raw_reliance;
        raw_n_reliances;
        raw_n_prelabels;
        raw_n_versions;
      })

(* ---------- final points-to results ---------- *)

type points_to = { top : Bitset.t array; obj : Bitset.t array }

let encode_points_to r =
  let p = pool_enc () in
  (* one pool across top-level and object collapses — they overlap a lot *)
  add_sbs p p.body r.top;
  add_sbs p p.body r.obj;
  pool_finish p

let decode_points_to bytes =
  with_decoder bytes (fun d ->
      let pool = shared_pool d in
      let top = sbs pool d in
      let obj = sbs pool d in
      { top; obj })
