open Pta_ds
open Pta_ir
module Svfg = Pta_svfg.Svfg

module Tbl = Pair_key.Tbl

type t = {
  svfg : Svfg.t;
  vt : Version.table;
  (* every key is a checked [Pair_key.pack]: no tuple per lookup *)
  consume : Version.t Tbl.t;  (* (node, obj) -> C *)
  store_yield : Version.t Tbl.t;  (* store prelabels *)
  delta : Bitset.t;
  reliance : Bitset.t Tbl.t;  (* (obj, κ) -> κ' set *)
  subscribers : Bitset.t Tbl.t;  (* (obj, κ) -> nodes *)
  mutable n_reliances : int;
  mutable duration : float;
}

let table t = t.vt
let svfg t = t.svfg

let consume t n o =
  match Tbl.find_opt t.consume (Pair_key.pack n o) with
  | Some v -> v
  | None -> Version.epsilon

let is_store_node svfg n =
  match Svfg.kind svfg n with
  | Svfg.NInst _ -> Inst.is_store (Svfg.inst_of svfg n)
  | _ -> false

let yield t n o =
  if is_store_node t.svfg n then
    match Tbl.find_opt t.store_yield (Pair_key.pack n o) with
    | Some v -> v
    | None -> Version.epsilon
  else consume t n o

let is_delta t n = Bitset.mem t.delta n

let add_reliance t o y c =
  let k = Pair_key.pack o y in
  let set =
    match Tbl.find_opt t.reliance k with
    | Some s -> s
    | None ->
      let s = Bitset.create () in
      Tbl.add t.reliance k s;
      s
  in
  if Bitset.add set c then begin
    t.n_reliances <- t.n_reliances + 1;
    true
  end
  else false

let add_dynamic_edge t src o dst =
  let y = yield t src o and c = consume t dst o in
  if Version.is_epsilon y || y = c then None
  else begin
    ignore (add_reliance t o y c);
    Some (y, c)
  end

let iter_relied t o v f =
  match Tbl.find_opt t.reliance (Pair_key.pack o v) with
  | Some s -> Bitset.iter f s
  | None -> ()

let iter_subscribers t o v f =
  match Tbl.find_opt t.subscribers (Pair_key.pack o v) with
  | Some s -> Bitset.iter f s
  | None -> ()

let subscribe t o v n =
  if not (Version.is_epsilon v) then begin
    let k = Pair_key.pack o v in
    let set =
      match Tbl.find_opt t.subscribers k with
      | Some s -> s
      | None ->
        let s = Bitset.create () in
        Tbl.add t.subscribers k s;
        s
    in
    ignore (Bitset.add set n)
  end

let duration t = t.duration
let n_versions t = Version.n_versions t.vt

let sharing_factor t =
  (* consume-points per distinct (object, version) pair: how many SVFG
     node/object states share one points-to set. SFS is by definition 1.0. *)
  let distinct = Tbl.create 256 in
  let points = ref 0 in
  Tbl.iter
    (fun k v ->
      if not (Version.is_epsilon v) then begin
        incr points;
        Tbl.replace distinct (Pair_key.pack (Pair_key.lo k) v) ()
      end)
    t.consume;
  if Tbl.length distinct = 0 then 1.0
  else float !points /. float (Tbl.length distinct)

let n_reliances t = t.n_reliances

let words t =
  let acc = ref (Version.words t.vt) in
  let add_tbl tbl = acc := !acc + (4 * Tbl.length tbl) in
  add_tbl t.consume;
  add_tbl t.store_yield;
  Tbl.iter (fun _ s -> acc := !acc + Bitset.words s) t.reliance;
  Tbl.iter (fun _ s -> acc := !acc + Bitset.words s) t.subscribers;
  !acc + Bitset.words t.delta

(* ---------- serialization (Pta_store) ---------- *)

type raw = {
  raw_consume : (int * Version.t) array;
  raw_store_yield : (int * Version.t) array;
  raw_delta : Bitset.t;
  raw_reliance : (int * Bitset.t) array;
  raw_n_reliances : int;
  raw_n_prelabels : int;
  raw_n_versions : int;
}

let sorted_bindings tbl =
  let l = Tbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) l)

let export t =
  {
    raw_consume = sorted_bindings t.consume;
    raw_store_yield = sorted_bindings t.store_yield;
    raw_delta = t.delta;
    raw_reliance = sorted_bindings t.reliance;
    raw_n_reliances = t.n_reliances;
    raw_n_prelabels = Version.n_prelabels t.vt;
    raw_n_versions = Version.n_versions t.vt;
  }

let import svfg raw =
  let t =
    {
      svfg;
      vt =
        Version.import_sealed ~n_prelabels:raw.raw_n_prelabels
          ~n_versions:raw.raw_n_versions;
      consume = Tbl.create (max 16 (Array.length raw.raw_consume));
      store_yield = Tbl.create (max 16 (Array.length raw.raw_store_yield));
      delta = Bitset.copy raw.raw_delta;
      reliance = Tbl.create (max 16 (Array.length raw.raw_reliance));
      subscribers = Tbl.create 1024;
      n_reliances = raw.raw_n_reliances;
      duration = 0.;
    }
  in
  Array.iter (fun (k, v) -> Tbl.replace t.consume k v) raw.raw_consume;
  Array.iter (fun (k, v) -> Tbl.replace t.store_yield k v) raw.raw_store_yield;
  (* The solver grows reliance sets on-the-fly (dynamic call edges), so each
     import must own fresh copies. Subscribers are solver-side state and
     always start empty (export happens before solving). *)
  Array.iter
    (fun (k, s) -> Tbl.replace t.reliance k (Bitset.copy s))
    raw.raw_reliance;
  t

let compute ?(release_labels = true) ?(order = `Fifo) svfg =
  let start = Unix.gettimeofday () in
  let prog = Svfg.prog svfg in
  let aux = Svfg.aux svfg in
  let t =
    {
      svfg;
      vt = Version.create ();
      consume = Tbl.create 1024;
      store_yield = Tbl.create 256;
      delta = Bitset.create ();
      reliance = Tbl.create 1024;
      subscribers = Tbl.create 1024;
      n_reliances = 0;
      duration = 0.;
    }
  in
  (* Meld labelling converges fastest when nodes are visited in topological
     order of the SVFG's SCC condensation (labels only flow forward); FIFO
     is kept for the ablation. *)
  let wl =
    match order with
    | `Fifo -> `F (Worklist.Fifo.create ())
    | `Topo ->
      let rank = Svfg.topo_rank svfg in
      let priority n = if n < Array.length rank then rank.(n) else max_int in
      `P (Worklist.Prio.create ~priority ())
  in
  let wl_push n =
    ignore
      (match wl with
      | `F w -> Worklist.Fifo.push w n
      | `P w -> Worklist.Prio.push w n)
  in
  let wl_pop () =
    match wl with `F w -> Worklist.Fifo.pop w | `P w -> Worklist.Prio.pop w
  in
  (* Prelabelling (Fig. 6). *)
  for n = 0 to Svfg.n_nodes svfg - 1 do
    match Svfg.kind svfg n with
    | Svfg.NInst { f; i } -> (
      match Prog.inst (Prog.func prog f) i with
      | Inst.Store _ ->
        Bitset.iter
          (fun o ->
            Tbl.replace t.store_yield (Pair_key.pack n o)
              (Version.fresh t.vt ~table_label:"store");
            wl_push n)
          (Pta_memssa.Annot.chi (Svfg.annot svfg) f i)
      | _ -> ())
    | Svfg.NFormalIn { f; obj } ->
      (* δ: functions that may be the target of an indirect call. *)
      if Callgraph.is_indirect_target aux.Pta_memssa.Modref.cg f then begin
        ignore (Bitset.add t.delta n);
        Tbl.replace t.consume (Pair_key.pack n obj)
          (Version.fresh t.vt ~table_label:"delta-fin");
        wl_push n
      end
    | Svfg.NActualOut { f; call; obj } -> (
      (* δ: return targets of indirect calls. *)
      match Prog.inst (Prog.func prog f) call with
      | Inst.Call { callee = Inst.Indirect _; _ } ->
        ignore (Bitset.add t.delta n);
        Tbl.replace t.consume (Pair_key.pack n obj)
          (Version.fresh t.vt ~table_label:"delta-aout");
        wl_push n
      | _ -> ())
    | _ -> ()
  done;
  Stats.add "vsfs.prelabels" (Version.n_prelabels t.vt);
  (* Meld labelling (Fig. 8): [EXTERNAL] melds Y of the source into C of the
     destination (unless δ); [INTERNAL] is folded into [yield]. *)
  let rec loop () =
    match wl_pop () with
    | None -> ()
    | Some n ->
      Svfg.iter_ind_all svfg n (fun o m ->
          let y = yield t n o in
          if (not (Version.is_epsilon y)) && not (is_delta t m) then begin
            let c = consume t m o in
            let merged = Version.meld t.vt c y in
            if merged <> c then begin
              Tbl.replace t.consume (Pair_key.pack m o) merged;
              (* Non-store nodes yield what they consume, so successors of m
                 must be revisited; stores yield a fixed prelabel but are
                 pushed harmlessly (their outgoing yields are unchanged). *)
              if not (is_store_node svfg m) then wl_push m
            end
          end);
      loop ()
  in
  loop ();
  (* Static version reliances ([A-PROP] with differing versions). *)
  for n = 0 to Svfg.n_nodes svfg - 1 do
    Svfg.iter_ind_all svfg n (fun o m ->
        let y = yield t n o in
        if not (Version.is_epsilon y) then begin
          let c = consume t m o in
          if y <> c then ignore (add_reliance t o y c)
        end)
  done;
  if release_labels then Version.seal t.vt;
  t.duration <- Unix.gettimeofday () -. start;
  Stats.add "vsfs.versions" (Version.n_versions t.vt);
  t
