(* Hash-consed points-to sets.

   A set is an [int] id into a domain-local intern pool of canonical flat
   [Bitset]s: structurally equal sets always share one id (and one heap
   representation), so set equality is integer equality and every solver
   that materialises "the same set at a thousand program points" stores it
   once. On top of the pool sit memo caches for the hot operations —
   [add], [union], [union_delta] and [diff] — keyed by operand ids: once a
   union of two interned sets has been computed, every later occurrence on
   the same domain is a single probe of a packed-int table
   ([Pair_key.Tbl]). [union_delta] additionally
   returns the interned set of elements actually added, which is what makes
   difference propagation in the flow-sensitive solvers fall out for free.

   All ids and elements must stay below 2^31 so that an (id, id) or
   (id, element) pair packs into one OCaml int; [Pair_key.pack] checks it
   rather than assuming it. *)

module HC = Hashcons.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

type t = int

module Tbl = Pair_key.Tbl

type state = {
  pool : HC.t;
  add_memo : int Tbl.t;
  union_memo : int Tbl.t;
  delta_memo : (int * int) Tbl.t;
  diff_memo : int Tbl.t;
  (* [Stats] counters, looked up once per state: a memo hit is a single
     probe, and a by-name increment would cost more than the probe. *)
  interned : int ref;
  add_hits : int ref;
  add_misses : int ref;
  union_hits : int ref;
  union_misses : int ref;
  delta_hits : int ref;
  delta_misses : int ref;
  diff_hits : int ref;
  diff_misses : int ref;
}

let fresh_state () =
  let pool = HC.create 4096 in
  let eps = HC.intern pool (Bitset.create ()) in
  assert (eps = 0);
  let c name = Stats.counter ("ptset." ^ name) in
  {
    pool;
    add_memo = Tbl.create 4096;
    union_memo = Tbl.create 4096;
    delta_memo = Tbl.create 4096;
    diff_memo = Tbl.create 1024;
    interned = c "interned";
    add_hits = c "add_hits";
    add_misses = c "add_misses";
    union_hits = c "union_hits";
    union_misses = c "union_misses";
    delta_hits = c "delta_hits";
    delta_misses = c "delta_misses";
    diff_hits = c "diff_hits";
    diff_misses = c "diff_misses";
  }

(* The pool and memo tables are confined to the domain that uses them
   ([Domain.DLS]): each worker domain of a parallel batch gets a fresh,
   unshared generation on first use, so interning needs no locks and ids
   never leak meaning across domains. The flip side is a sharp ownership
   rule — an id is only valid on the domain (and generation) that interned
   it, so values crossing domains must carry [Bitset]s (or other plain
   data), never [Ptset.t]. *)
let dls_state = Domain.DLS.new_key fresh_state
let state () = Domain.DLS.get dls_state
let reset () = Domain.DLS.set dls_state (fresh_state ())

let empty = 0
let is_empty id = id = 0
let equal : t -> t -> bool = Int.equal
let hash (id : t) = id

(* Memo keys pack two ids (or an id and an element) into one OCaml int, so
   both halves are bounded by a named, checked width: enough for ~2·10^9
   interned sets or abstract objects. *)
let key_bits = Pair_key.bits
let key_limit = Pair_key.limit
let pack = Pair_key.pack
let unpack = Pair_key.unpack
let view id = HC.get (state ()).pool id

(* Intern a set the caller owns (and will never mutate again). *)
let intern_owned s =
  let st = state () in
  match HC.find_opt st.pool s with
  | Some id -> id
  | None ->
    incr st.interned;
    HC.intern st.pool s

let of_bitset s =
  match HC.find_opt (state ()).pool s with
  | Some id -> id
  | None -> intern_owned (Bitset.copy s)

let of_list l = intern_owned (Bitset.of_list l)
let mem id x = Bitset.mem (view id) x

let add id x =
  if mem id x then id
  else begin
    let st = state () in
    let key = pack id x in
    match Tbl.find_opt st.add_memo key with
    | Some r ->
      incr st.add_hits;
      r
    | None ->
      incr st.add_misses;
      let s = Bitset.copy (view id) in
      ignore (Bitset.add s x);
      let r = intern_owned s in
      Tbl.add st.add_memo key r;
      r
  end

let singleton x = add empty x

let union a b =
  if a = b || b = empty then a
  else if a = empty then b
  else begin
    let st = state () in
    let key = pack (Int.min a b) (Int.max a b) in
    match Tbl.find_opt st.union_memo key with
    | Some r ->
      incr st.union_hits;
      r
    | None ->
      incr st.union_misses;
      let sa = view a and sb = view b in
      (* Subset fast paths return an existing id without allocating. *)
      let r =
        if Bitset.subset sb sa then a
        else if Bitset.subset sa sb then b
        else intern_owned (Bitset.union sa sb)
      in
      Tbl.add st.union_memo key r;
      r
  end

let union_delta a b =
  if a = b || b = empty then (a, empty)
  else if a = empty then (b, b)
  else begin
    let st = state () in
    let key = pack a b in
    match Tbl.find_opt st.delta_memo key with
    | Some r ->
      incr st.delta_hits;
      r
    | None ->
      incr st.delta_misses;
      let d = Bitset.diff (view b) (view a) in
      let r =
        if Bitset.is_empty d then (a, empty) else (union a b, intern_owned d)
      in
      Tbl.add st.delta_memo key r;
      r
  end

let diff a b =
  if a = b || b = empty then if b = empty then a else empty
  else if a = empty then empty
  else begin
    let st = state () in
    let key = pack a b in
    match Tbl.find_opt st.diff_memo key with
    | Some r ->
      incr st.diff_hits;
      r
    | None ->
      incr st.diff_misses;
      let r = intern_owned (Bitset.diff (view a) (view b)) in
      Tbl.add st.diff_memo key r;
      r
  end

let inter a b =
  if a = b then a
  else if a = empty || b = empty then empty
  else intern_owned (Bitset.inter (view a) (view b))

let subset a b = a = b || Bitset.subset (view a) (view b)
let cardinal id = Bitset.cardinal (view id)
let iter f id = Bitset.iter f (view id)
let fold f id acc = Bitset.fold f (view id) acc
let elements id = Bitset.elements (view id)
let choose id = Bitset.choose (view id)
let words id = Bitset.words (view id)
let n_unique () = HC.count (state ()).pool

let pool_words () =
  let total = ref 0 in
  HC.iter (fun _ s -> total := !total + Bitset.words s) (state ()).pool;
  !total

let pp ppf id = Bitset.pp ppf (view id)

(* ---------- the pool invariant ---------- *)

(* Every canonical set must re-intern to its own id (no duplicate or
   mutated pool entries), and every memo entry must equal what a fresh
   [Bitset] recomputation from its unpacked operands gives — a packed-key
   collision or a stale entry fails here. The first violation is
   reported. *)
let check_pool () =
  let st = state () in
  let n = HC.count st.pool in
  let err = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt
  in
  let live id = id >= 0 && id < n in
  HC.iter
    (fun id s ->
      match HC.find_opt st.pool s with
      | Some id' when id' = id -> ()
      | Some id' -> fail "pool: set %d re-interns to %d" id id'
      | None -> fail "pool: set %d is no longer interned" id)
    st.pool;
  let same what key r expected =
    if not (live r && Bitset.equal (HC.get st.pool r) expected) then
      let a, b = unpack key in
      fail "%s memo: (%d, %d) -> %d differs from recomputation" what a b r
  in
  let operands what key k =
    let a, b = unpack key in
    if live a && live b then k (HC.get st.pool a) (HC.get st.pool b)
    else fail "%s memo: operand (%d, %d) outside the pool" what a b
  in
  Tbl.iter
    (fun key r ->
      let a, x = unpack key in
      if not (live a) then fail "add memo: set %d outside the pool" a
      else begin
        let s = Bitset.copy (HC.get st.pool a) in
        ignore (Bitset.add s x);
        same "add" key r s
      end)
    st.add_memo;
  Tbl.iter
    (fun key r ->
      operands "union" key (fun sa sb ->
          same "union" key r (Bitset.union sa sb)))
    st.union_memo;
  Tbl.iter
    (fun key (u, d) ->
      operands "union_delta" key (fun sa sb ->
          same "union_delta" key u (Bitset.union sa sb);
          same "union_delta" key d (Bitset.diff sb sa)))
    st.delta_memo;
  Tbl.iter
    (fun key r ->
      operands "diff" key (fun sa sb -> same "diff" key r (Bitset.diff sa sb)))
    st.diff_memo;
  match !err with None -> Ok () | Some m -> Error m

(* ---------- shared-footprint accounting ---------- *)

module Tally = struct
  type nonrec t = {
    seen : Bitset.t; (* distinct set ids *)
    mutable refs : int;
    mutable unshared : int;
  }

  let create () = { seen = Bitset.create (); refs = 0; unshared = 0 }

  let visit tl id =
    tl.refs <- tl.refs + 1;
    tl.unshared <- tl.unshared + words id;
    ignore (Bitset.add tl.seen id)

  let unique tl = Bitset.cardinal tl.seen
  let refs tl = tl.refs
  let unshared_words tl = tl.unshared

  let shared_words tl =
    Bitset.fold (fun id acc -> acc + words id) tl.seen tl.refs
end
