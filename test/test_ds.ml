(* Unit and property tests for the data-structure substrate (pta_ds):
   sparse bit vectors against a sorted-list reference model, vectors,
   hash-consing, union-find, and the worklists. *)

open Pta_ds

(* ---------- reference model for bitsets ---------- *)

module Model = struct
  (* values: sorted, distinct int lists *)

  let of_list l = List.sort_uniq Int.compare l
  let union a b = of_list (a @ b)
  let inter a b = List.filter (fun x -> List.mem x b) a
  let diff a b = List.filter (fun x -> not (List.mem x b)) a
  let subset a b = List.for_all (fun x -> List.mem x b) a
end

let bitset_of_list l = Bitset.of_list l

let check_same what model bits =
  Alcotest.(check (list int)) what model (Bitset.elements bits)

(* ---------- bitset unit tests ---------- *)

let test_empty () =
  let s = Bitset.create () in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal s);
  Alcotest.(check (option int)) "choose" None (Bitset.choose s)

let test_add_mem () =
  let s = Bitset.create () in
  Alcotest.(check bool) "add new" true (Bitset.add s 5);
  Alcotest.(check bool) "add dup" false (Bitset.add s 5);
  Alcotest.(check bool) "mem" true (Bitset.mem s 5);
  Alcotest.(check bool) "not mem" false (Bitset.mem s 6);
  Alcotest.(check bool) "add far" true (Bitset.add s 100000);
  Alcotest.(check bool) "mem far" true (Bitset.mem s 100000);
  Alcotest.(check int) "cardinal" 2 (Bitset.cardinal s)

let test_remove () =
  let s = bitset_of_list [ 1; 2; 3; 200 ] in
  Alcotest.(check bool) "remove hit" true (Bitset.remove s 2);
  Alcotest.(check bool) "remove miss" false (Bitset.remove s 2);
  check_same "after remove" [ 1; 3; 200 ] s;
  Alcotest.(check bool) "remove word" true (Bitset.remove s 200);
  check_same "word drained" [ 1; 3 ] s

let test_word_boundaries () =
  (* Elements straddling 63-bit word boundaries. *)
  let interesting = [ 0; 62; 63; 64; 125; 126; 127; 189; 1000; 100000 ] in
  let s = bitset_of_list interesting in
  check_same "boundaries" (Model.of_list interesting) s;
  List.iter
    (fun x -> Alcotest.(check bool) (string_of_int x) true (Bitset.mem s x))
    interesting;
  Alcotest.(check bool) "absent 61" false (Bitset.mem s 61)

let test_union_into () =
  let a = bitset_of_list [ 1; 2; 3 ] in
  let b = bitset_of_list [ 3; 4; 1000 ] in
  Alcotest.(check bool) "changed" true (Bitset.union_into ~into:a b);
  check_same "union" [ 1; 2; 3; 4; 1000 ] a;
  Alcotest.(check bool) "idempotent" false (Bitset.union_into ~into:a b);
  check_same "b untouched" [ 3; 4; 1000 ] b

let test_union_into_empty () =
  let a = bitset_of_list [ 1 ] in
  Alcotest.(check bool) "empty src" false
    (Bitset.union_into ~into:a (Bitset.create ()));
  let e = Bitset.create () in
  Alcotest.(check bool) "into empty" true (Bitset.union_into ~into:e a);
  check_same "copied" [ 1 ] e

let test_equal_hash () =
  let a = bitset_of_list [ 7; 70; 700 ] in
  let b = bitset_of_list [ 700; 7; 70 ] in
  Alcotest.(check bool) "equal" true (Bitset.equal a b);
  Alcotest.(check int) "hash equal" (Bitset.hash a) (Bitset.hash b);
  ignore (Bitset.add b 8);
  Alcotest.(check bool) "not equal" false (Bitset.equal a b)

let test_compare_order () =
  let a = bitset_of_list [ 1 ] and b = bitset_of_list [ 2 ] in
  Alcotest.(check bool) "antisym" true
    (Bitset.compare a b = -Bitset.compare b a);
  Alcotest.(check int) "refl" 0 (Bitset.compare a (Bitset.copy a))

let test_copy_isolated () =
  let a = bitset_of_list [ 1; 2 ] in
  let b = Bitset.copy a in
  ignore (Bitset.add b 3);
  check_same "original intact" [ 1; 2 ] a;
  check_same "copy grew" [ 1; 2; 3 ] b

(* ---------- bitset property tests ---------- *)

let ints_small = QCheck2.Gen.(list_size (0 -- 40) (0 -- 300))
let ints_sparse = QCheck2.Gen.(list_size (0 -- 20) (0 -- 1_000_000))

let prop_roundtrip =
  QCheck2.Test.make ~name:"bitset elements = sorted input" ~count:500
    QCheck2.Gen.(oneof [ ints_small; ints_sparse ])
    (fun l -> Bitset.elements (bitset_of_list l) = Model.of_list l)

(* Elements on and around word boundaries, including each word's top bit
   [bpw - 1], mixed with arbitrary ones. *)
let ints_edges =
  let bpw = Sys.int_size in
  QCheck2.Gen.(
    list_size (0 -- 30)
      (oneof
         [
           map (fun w -> (w * bpw) + bpw - 1) (0 -- 40);
           map (fun w -> w * bpw) (0 -- 40);
           map2 (fun w b -> (w * bpw) + b) (0 -- 40) (0 -- (bpw - 1));
           0 -- 1_000_000;
         ]))

let prop_iter_choose =
  QCheck2.Test.make ~name:"bitset iter and choose match a naive bit scan"
    ~count:500
    QCheck2.Gen.(oneof [ ints_small; ints_sparse; ints_edges ])
    (fun l ->
      let s = bitset_of_list l in
      (* reference: test every bit of every stored word *)
      let naive = ref [] in
      Bitset.iter_words
        (fun w word ->
          for b = 0 to Sys.int_size - 1 do
            if word land (1 lsl b) <> 0 then
              naive := ((w * Sys.int_size) + b) :: !naive
          done)
        s;
      let naive = List.rev !naive in
      let seen = ref [] in
      Bitset.iter (fun x -> seen := x :: !seen) s;
      List.rev !seen = naive
      && naive = Model.of_list l
      && Bitset.choose s = (match naive with [] -> None | x :: _ -> Some x))

let prop_union =
  QCheck2.Test.make ~name:"bitset union matches model" ~count:500
    QCheck2.Gen.(pair ints_small ints_sparse)
    (fun (a, b) ->
      let s = bitset_of_list a in
      ignore (Bitset.union_into ~into:s (bitset_of_list b));
      Bitset.elements s = Model.union (Model.of_list a) (Model.of_list b))

let prop_union_changed =
  QCheck2.Test.make ~name:"union_into returns changed iff grew" ~count:500
    QCheck2.Gen.(pair ints_small ints_small)
    (fun (a, b) ->
      let s = bitset_of_list a in
      let before = Bitset.cardinal s in
      let changed = Bitset.union_into ~into:s (bitset_of_list b) in
      changed = (Bitset.cardinal s > before))

let prop_inter =
  QCheck2.Test.make ~name:"bitset inter matches model" ~count:500
    QCheck2.Gen.(pair ints_small ints_small)
    (fun (a, b) ->
      Bitset.elements (Bitset.inter (bitset_of_list a) (bitset_of_list b))
      = Model.inter (Model.of_list a) (Model.of_list b))

let prop_diff =
  QCheck2.Test.make ~name:"bitset diff matches model" ~count:500
    QCheck2.Gen.(pair ints_small ints_small)
    (fun (a, b) ->
      Bitset.elements (Bitset.diff (bitset_of_list a) (bitset_of_list b))
      = Model.diff (Model.of_list a) (Model.of_list b))

let prop_subset =
  QCheck2.Test.make ~name:"bitset subset matches model" ~count:500
    QCheck2.Gen.(pair ints_small ints_small)
    (fun (a, b) ->
      Bitset.subset (bitset_of_list a) (bitset_of_list b)
      = Model.subset (Model.of_list a) (Model.of_list b))

let prop_intersects =
  QCheck2.Test.make ~name:"intersects = inter nonempty" ~count:500
    QCheck2.Gen.(pair ints_small ints_small)
    (fun (a, b) ->
      let sa = bitset_of_list a and sb = bitset_of_list b in
      Bitset.intersects sa sb = not (Bitset.is_empty (Bitset.inter sa sb)))

let prop_cardinal =
  QCheck2.Test.make ~name:"cardinal = length of model" ~count:500 ints_sparse
    (fun l -> Bitset.cardinal (bitset_of_list l) = List.length (Model.of_list l))

let prop_remove =
  QCheck2.Test.make ~name:"remove then mem is false" ~count:500
    QCheck2.Gen.(pair ints_small (0 -- 300))
    (fun (l, x) ->
      let s = bitset_of_list l in
      ignore (Bitset.remove s x);
      (not (Bitset.mem s x))
      && Bitset.elements s = Model.diff (Model.of_list l) [ x ])

let prop_equal_means_hash =
  QCheck2.Test.make ~name:"equal implies same hash" ~count:500
    QCheck2.Gen.(pair ints_small ints_small)
    (fun (a, b) ->
      let sa = bitset_of_list a and sb = bitset_of_list b in
      (not (Bitset.equal sa sb)) || Bitset.hash sa = Bitset.hash sb)

let prop_union_accumulate =
  (* Stateful: repeated unions into one accumulator (exercising the in-place
     backward-merge path once capacity grows) track the model. *)
  QCheck2.Test.make ~name:"repeated union_into tracks model" ~count:200
    QCheck2.Gen.(list_size (1 -- 12) ints_small)
    (fun batches ->
      let acc = Bitset.create () in
      let model = ref [] in
      List.for_all
        (fun batch ->
          ignore (Bitset.union_into ~into:acc (bitset_of_list batch));
          model := Model.union !model (Model.of_list batch);
          Bitset.elements acc = !model)
        batches)

let prop_add_remove_sequence =
  (* Random add/remove interleavings match a set model. *)
  QCheck2.Test.make ~name:"add/remove sequences track model" ~count:200
    QCheck2.Gen.(list_size (0 -- 60) (pair bool (0 -- 200)))
    (fun ops ->
      let s = Bitset.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (add, x) ->
          if add then begin
            let changed = Bitset.add s x in
            let expected = not (Hashtbl.mem model x) in
            Hashtbl.replace model x ();
            changed = expected
          end
          else begin
            let changed = Bitset.remove s x in
            let expected = Hashtbl.mem model x in
            Hashtbl.remove model x;
            changed = expected
          end)
        ops
      && Bitset.elements s
         = List.sort Int.compare (Hashtbl.fold (fun k () a -> k :: a) model []))

(* ---------- interned points-to sets ---------- *)

let ptset_of_list l = Ptset.of_list l

let test_ptset_intern () =
  Ptset.reset ();
  let a = ptset_of_list [ 3; 1; 2 ] in
  let b = ptset_of_list [ 2; 3; 1 ] in
  Alcotest.(check bool) "equal sets share an id" true (Ptset.equal a b);
  Alcotest.(check (list int)) "elements" [ 1; 2; 3 ] (Ptset.elements a);
  Alcotest.(check bool) "empty is id 0" true
    (Ptset.equal Ptset.empty (ptset_of_list []));
  Alcotest.(check int) "cardinal" 3 (Ptset.cardinal a);
  Alcotest.(check bool) "mem" true (Ptset.mem a 2);
  Alcotest.(check bool) "not mem" false (Ptset.mem a 4)

let test_ptset_add_union () =
  Ptset.reset ();
  let a = ptset_of_list [ 1; 2 ] in
  Alcotest.(check bool) "add member is identity" true
    (Ptset.equal (Ptset.add a 1) a);
  let a3 = Ptset.add a 3 in
  Alcotest.(check (list int)) "add" [ 1; 2; 3 ] (Ptset.elements a3);
  Alcotest.(check bool) "add interns" true
    (Ptset.equal a3 (ptset_of_list [ 1; 2; 3 ]));
  let b = ptset_of_list [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ]
    (Ptset.elements (Ptset.union a b));
  Alcotest.(check bool) "union subset fast path" true
    (Ptset.equal (Ptset.union a3 a) a3);
  Alcotest.(check bool) "union commutes" true
    (Ptset.equal (Ptset.union a b) (Ptset.union b a))

let test_ptset_union_delta () =
  Ptset.reset ();
  let a = ptset_of_list [ 1; 2 ] and b = ptset_of_list [ 2; 3 ] in
  let u, d = Ptset.union_delta a b in
  Alcotest.(check (list int)) "union part" [ 1; 2; 3 ] (Ptset.elements u);
  Alcotest.(check (list int)) "delta = b \\ a" [ 3 ] (Ptset.elements d);
  let u', d' = Ptset.union_delta u b in
  Alcotest.(check bool) "no growth returns same id" true (Ptset.equal u' u);
  Alcotest.(check bool) "empty delta" true (Ptset.is_empty d');
  let u'', d'' = Ptset.union_delta Ptset.empty b in
  Alcotest.(check bool) "from empty: union is b" true (Ptset.equal u'' b);
  Alcotest.(check bool) "from empty: delta is b" true (Ptset.equal d'' b)

let test_ptset_view_words () =
  Ptset.reset ();
  let a = ptset_of_list [ 1; 100; 10_000 ] in
  Alcotest.(check (list int)) "view" [ 1; 100; 10_000 ]
    (Bitset.elements (Ptset.view a));
  Alcotest.(check bool) "words positive" true (Ptset.words a > 0);
  let tl = Ptset.Tally.create () in
  Ptset.Tally.visit tl a;
  Ptset.Tally.visit tl a;
  Ptset.Tally.visit tl (ptset_of_list [ 5 ]);
  Alcotest.(check int) "unique" 2 (Ptset.Tally.unique tl);
  Alcotest.(check int) "refs" 3 (Ptset.Tally.refs tl);
  Alcotest.(check int) "shared = distinct words + refs"
    (Ptset.words a + Ptset.words (ptset_of_list [ 5 ]) + 3)
    (Ptset.Tally.shared_words tl);
  Alcotest.(check int) "unshared counts a twice"
    ((2 * Ptset.words a) + Ptset.words (ptset_of_list [ 5 ]))
    (Ptset.Tally.unshared_words tl)

let test_ptset_key_overflow () =
  Ptset.reset ();
  Alcotest.(check int) "key_limit = 2^key_bits" (1 lsl Ptset.key_bits)
    Ptset.key_limit;
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  (* Elements at the packed-key width must be rejected, not silently
     folded into a colliding memo key (the seed packed unchecked). *)
  Alcotest.(check bool) "add at key_limit rejected" true
    (raises (fun () -> Ptset.add Ptset.empty Ptset.key_limit));
  Alcotest.(check bool) "singleton at key_limit rejected" true
    (raises (fun () -> Ptset.singleton Ptset.key_limit));
  let top = Ptset.key_limit - 1 in
  let s = Ptset.add Ptset.empty top in
  Alcotest.(check bool) "element just below the limit works" true
    (Ptset.mem s top);
  Alcotest.(check int) "cardinal" 1 (Ptset.cardinal s)

let test_ptset_check_pool () =
  Ptset.reset ();
  let a = ptset_of_list [ 1; 2 ] and b = ptset_of_list [ 2; 70_000 ] in
  ignore (Ptset.union a b);
  ignore (Ptset.union_delta b a);
  ignore (Ptset.diff a b);
  ignore (Ptset.add a 9);
  Alcotest.(check bool) "clean pool" true (Ptset.check_pool () = Ok ());
  (* Writing through a shared view corrupts the pool: the set no longer
     re-interns to its id and the memo entries over it go stale. *)
  ignore (Bitset.add (Ptset.view a) 5);
  Alcotest.(check bool) "mutated set caught" true
    (Result.is_error (Ptset.check_pool ()));
  Ptset.reset ()

(* Random operation sequences over a growing population of sets, checked
   against the sorted-list model. Every operation runs twice, so the second
   answer comes from the memo, and [union a b] follows each
   [union_delta a b] so the two caches must agree; the run ends with the
   pool invariant. *)
let prop_ptset_op_sequences =
  QCheck2.Test.make ~name:"op sequences match model and pool" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (1 -- 4) (oneof [ ints_small; ints_sparse ]))
        (list_size (1 -- 30)
           (quad (0 -- 3) (0 -- 1000) (0 -- 1000) (0 -- 1500))))
    (fun (seeds, ops) ->
      Ptset.reset ();
      let vals =
        ref
          (Array.of_list
             (List.map (fun l -> (ptset_of_list l, Model.of_list l)) seeds))
      in
      let pick i = !vals.(i mod Array.length !vals) in
      let ok = ref true in
      let expect s m = ok := !ok && Ptset.elements s = m in
      let twice f =
        let r = f () in
        ok := !ok && f () = r;
        r
      in
      List.iter
        (fun (op, i, j, x) ->
          let a, ma = pick i and b, mb = pick j in
          let r, mr =
            match op with
            | 0 -> (twice (fun () -> Ptset.add a x), Model.union ma [ x ])
            | 1 -> (twice (fun () -> Ptset.union a b), Model.union ma mb)
            | 2 ->
              let u, d = twice (fun () -> Ptset.union_delta a b) in
              expect d (Model.diff mb ma);
              ok := !ok && Ptset.equal (twice (fun () -> Ptset.union a b)) u;
              (u, Model.union ma mb)
            | _ -> (twice (fun () -> Ptset.diff a b), Model.diff ma mb)
          in
          expect r mr;
          vals := Array.append !vals [| (r, mr) |])
        ops;
      !ok && Ptset.check_pool () = Ok ())

let prop_ptset_roundtrip =
  QCheck2.Test.make ~name:"ptset elements = sorted input" ~count:300
    QCheck2.Gen.(oneof [ ints_small; ints_sparse ])
    (fun l -> Ptset.elements (ptset_of_list l) = Model.of_list l)

let prop_ptset_equal_ids =
  QCheck2.Test.make ~name:"structurally equal ptsets share one id" ~count:300
    ints_small (fun l ->
      let a = ptset_of_list l and b = ptset_of_list (List.rev l) in
      Ptset.equal a b && Ptset.hash a = Ptset.hash b)

let prop_ptset_add =
  QCheck2.Test.make ~name:"ptset add matches model" ~count:300
    QCheck2.Gen.(pair ints_small (0 -- 300))
    (fun (l, x) ->
      Ptset.elements (Ptset.add (ptset_of_list l) x)
      = Model.union (Model.of_list l) [ x ])

let prop_ptset_union =
  QCheck2.Test.make ~name:"ptset union matches model" ~count:300
    QCheck2.Gen.(pair ints_small ints_sparse)
    (fun (a, b) ->
      Ptset.elements (Ptset.union (ptset_of_list a) (ptset_of_list b))
      = Model.union (Model.of_list a) (Model.of_list b))

let prop_ptset_union_delta =
  QCheck2.Test.make ~name:"union_delta = (union, b minus a)" ~count:300
    QCheck2.Gen.(pair ints_small ints_small)
    (fun (a, b) ->
      let sa = ptset_of_list a and sb = ptset_of_list b in
      let u, d = Ptset.union_delta sa sb in
      Ptset.equal u (Ptset.union sa sb)
      && Ptset.elements d = Model.diff (Model.of_list b) (Model.of_list a)
      && Ptset.is_empty d = Ptset.equal u sa)

let prop_ptset_diff =
  QCheck2.Test.make ~name:"ptset diff matches model" ~count:300
    QCheck2.Gen.(pair ints_small ints_small)
    (fun (a, b) ->
      Ptset.elements (Ptset.diff (ptset_of_list a) (ptset_of_list b))
      = Model.diff (Model.of_list a) (Model.of_list b))

let prop_ptset_memo_consistent =
  (* The memo caches must return exactly what a recomputation from the
     canonical bitsets returns — exercised by asking twice. *)
  QCheck2.Test.make ~name:"memoized ops are stable across repeats" ~count:300
    QCheck2.Gen.(triple ints_small ints_small (0 -- 300))
    (fun (a, b, x) ->
      let sa = ptset_of_list a and sb = ptset_of_list b in
      let u1 = Ptset.union sa sb and u2 = Ptset.union sa sb in
      let d1 = Ptset.union_delta sa sb and d2 = Ptset.union_delta sa sb in
      let a1 = Ptset.add sa x and a2 = Ptset.add sa x in
      let fresh =
        Bitset.copy (Ptset.view sa)
      in
      ignore (Bitset.union_into ~into:fresh (Ptset.view sb));
      Ptset.equal u1 u2
      && Bitset.equal (Ptset.view u1) fresh
      && fst d1 = fst d2 && snd d1 = snd d2
      && Ptset.equal a1 a2)

let prop_ptset_subset_cardinal =
  QCheck2.Test.make ~name:"ptset subset/cardinal match model" ~count:300
    QCheck2.Gen.(pair ints_small ints_small)
    (fun (a, b) ->
      let sa = ptset_of_list a and sb = ptset_of_list b in
      Ptset.subset sa sb = Model.subset (Model.of_list a) (Model.of_list b)
      && Ptset.cardinal sa = List.length (Model.of_list a))

(* Union is commutative and associative and the pool is hash-consed, so
   folding the same sets into a slot in any order yields not just equal
   contents but the very same Ptset id. Modelled: k slots, each hit by a
   random subset of sets, merged once in the generated order and once in a
   random permutation of it. *)
let prop_ptset_union_order_independent =
  QCheck2.Test.make ~name:"ptset union order-independent (same ids)"
    ~count:50
    QCheck2.Gen.(
      triple (1 -- 6)
        (list_size (1 -- 12)
           (pair (0 -- 5) (list_size (0 -- 8) (0 -- 200))))
        (0 -- 10_000))
    (fun (n_slots, sets, shuffle_seed) ->
      let sets =
        List.map
          (fun (slot, elems) -> (slot mod n_slots, Bitset.of_list elems))
          sets
      in
      let merge order =
        let slots = Array.make n_slots Ptset.empty in
        List.iter
          (fun (slot, bits) ->
            slots.(slot) <- Ptset.union slots.(slot) (Ptset.of_bitset bits))
          order;
        slots
      in
      let canonical = merge sets in
      let rng = Random.State.make [| shuffle_seed; 0xDADA |] in
      let shuffled =
        List.map snd
          (List.sort compare
             (List.map (fun d -> (Random.State.bits rng, d)) sets))
      in
      Array.for_all2 Ptset.equal canonical (merge shuffled))

(* ---------- vec ---------- *)

let test_vec_basic () =
  let v = Vec.create ~dummy:(-1) () in
  Alcotest.(check int) "len 0" 0 (Vec.length v);
  let i0 = Vec.push v 10 in
  let i1 = Vec.push v 20 in
  Alcotest.(check int) "idx0" 0 i0;
  Alcotest.(check int) "idx1" 1 i1;
  Alcotest.(check int) "get" 20 (Vec.get v 1);
  Vec.set v 0 99;
  Alcotest.(check int) "set" 99 (Vec.get v 0);
  Vec.grow_to v 10;
  Alcotest.(check int) "grown" 10 (Vec.length v);
  Alcotest.(check int) "dummy fill" (-1) (Vec.get v 7);
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 10))

let test_vec_many () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 9999 do
    ignore (Vec.push v (i * 2))
  done;
  Alcotest.(check int) "len" 10000 (Vec.length v);
  Alcotest.(check int) "spot" 2468 (Vec.get v 1234);
  Alcotest.(check int) "fold" (9999 * 10000) (Vec.fold ( + ) 0 v)

let test_vec_dummy_free () =
  let v = Vec.create_empty () in
  Alcotest.(check int) "len 0" 0 (Vec.length v);
  for i = 0 to 999 do
    Alcotest.(check int) "push idx" i (Vec.push v (string_of_int i))
  done;
  Alcotest.(check int) "len" 1000 (Vec.length v);
  Alcotest.(check string) "spot" "123" (Vec.get v 123);
  Vec.set v 0 "zero";
  Alcotest.(check string) "set" "zero" (Vec.get v 0);
  Alcotest.check_raises "grow_to refused"
    (Invalid_argument "Vec.grow_to: dummy-free vector") (fun () ->
      Vec.grow_to v 2000);
  Alcotest.(check int) "length unchanged" 1000 (Vec.length v)

(* ---------- hashcons ---------- *)

module SHC = Hashcons.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let test_hashcons () =
  let t = SHC.create 4 in
  let a = SHC.intern t "foo" in
  let b = SHC.intern t "bar" in
  let a' = SHC.intern t "foo" in
  Alcotest.(check int) "same id" a a';
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check string) "get" "bar" (SHC.get t b);
  Alcotest.(check int) "count" 2 (SHC.count t);
  Alcotest.(check (option int)) "find" (Some a) (SHC.find_opt t "foo");
  Alcotest.(check (option int)) "find miss" None (SHC.find_opt t "baz")

(* ---------- union-find ---------- *)

let test_union_find () =
  let uf = Union_find.create 10 in
  Alcotest.(check bool) "distinct" false (Union_find.equiv uf 1 2);
  ignore (Union_find.union uf 1 2);
  Alcotest.(check bool) "joined" true (Union_find.equiv uf 1 2);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "transitive" true (Union_find.equiv uf 1 3);
  Union_find.grow uf 20;
  Alcotest.(check bool) "new singleton" false (Union_find.equiv uf 1 15);
  ignore (Union_find.union uf 15 1);
  Alcotest.(check bool) "joined after grow" true (Union_find.equiv uf 15 3)

let test_union_into_winner () =
  let uf = Union_find.create 10 in
  ignore (Union_find.union uf 4 5);
  Union_find.union_into uf ~winner:7 4;
  Alcotest.(check int) "winner kept" (Union_find.find uf 7) (Union_find.find uf 4);
  Alcotest.(check int) "winner is rep" 7 (Union_find.find uf 5)

let prop_union_find =
  QCheck2.Test.make ~name:"union-find equivalence closure" ~count:200
    QCheck2.Gen.(list_size (0 -- 30) (pair (0 -- 20) (0 -- 20)))
    (fun pairs ->
      let uf = Union_find.create 21 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* reference: naive closure *)
      let parent = Array.init 21 (fun i -> i) in
      let rec find x = if parent.(x) = x then x else find parent.(x) in
      List.iter
        (fun (a, b) ->
          let ra = find a and rb = find b in
          if ra <> rb then parent.(ra) <- rb)
        pairs;
      let ok = ref true in
      for a = 0 to 20 do
        for b = 0 to 20 do
          if Union_find.equiv uf a b <> (find a = find b) then ok := false
        done
      done;
      !ok)

let test_uf_idempotent_find () =
  let uf = Union_find.create 64 in
  (* one big class built as a chain of singletons under a fixed winner *)
  for i = 1 to 63 do
    Union_find.union_into uf ~winner:0 i
  done;
  for i = 0 to 63 do
    let r = Union_find.find uf i in
    Alcotest.(check int) "find idempotent" r (Union_find.find uf r);
    Alcotest.(check int) "one class" (Union_find.find uf 0) r
  done

let test_uf_union_by_rank () =
  let uf = Union_find.create 16 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  let big = Union_find.union uf 0 2 in
  (* merging a lower-rank class must keep the higher-rank root *)
  Alcotest.(check int) "singleton joins the taller tree" big
    (Union_find.union uf big 9);
  ignore (Union_find.union uf 10 11);
  Alcotest.(check int) "rank-1 class joins the taller tree" big
    (Union_find.union uf 10 big);
  (* and the survivor reported by [union] is what [find] answers for
     every member afterwards *)
  List.iter
    (fun v ->
      Alcotest.(check int) "survivor = find" big (Union_find.find uf v))
    [ 0; 1; 2; 3; 9; 10; 11 ]

let prop_uf_find_stable =
  QCheck2.Test.make ~name:"find stable across compression and grow" ~count:200
    QCheck2.Gen.(list_size (0 -- 40) (pair (0 -- 30) (0 -- 30)))
    (fun pairs ->
      let uf = Union_find.create 31 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* reads never change the partition: snapshot every representative,
         re-find everything (compressing paths), grow, and compare *)
      let before = Array.init 31 (Union_find.find uf) in
      for _ = 1 to 3 do
        for v = 0 to 30 do
          ignore (Union_find.find uf v)
        done
      done;
      Union_find.grow uf 40;
      let ok = ref true in
      for v = 0 to 30 do
        if Union_find.find uf v <> before.(v) then ok := false
      done;
      for v = 31 to 39 do
        if Union_find.find uf v <> v then ok := false
      done;
      !ok)

(* ---------- worklists ---------- *)

let test_fifo_dedup () =
  let w = Worklist.Fifo.create () in
  Alcotest.(check bool) "fresh" true (Worklist.Fifo.push w 1);
  Alcotest.(check bool) "fresh" true (Worklist.Fifo.push w 2);
  Alcotest.(check bool) "dup rejected" false (Worklist.Fifo.push w 1);
  Alcotest.(check int) "deduped" 2 (Worklist.Fifo.length w);
  Alcotest.(check (option int)) "fifo order" (Some 1) (Worklist.Fifo.pop w);
  Alcotest.(check bool) "re-push after pop" true (Worklist.Fifo.push w 1);
  Alcotest.(check int) "requeued" 2 (Worklist.Fifo.length w);
  Alcotest.(check (option int)) "next" (Some 2) (Worklist.Fifo.pop w);
  Alcotest.(check (option int)) "last" (Some 1) (Worklist.Fifo.pop w);
  Alcotest.(check (option int)) "empty" None (Worklist.Fifo.pop w)

let test_lifo_order () =
  let w = Worklist.Lifo.create () in
  List.iter (fun x -> ignore (Worklist.Lifo.push w x)) [ 1; 2; 3; 2 ];
  Alcotest.(check int) "deduped" 3 (Worklist.Lifo.length w);
  Alcotest.(check (option int)) "newest first" (Some 3) (Worklist.Lifo.pop w);
  Alcotest.(check (option int)) "then" (Some 2) (Worklist.Lifo.pop w);
  Alcotest.(check bool) "re-push popped" true (Worklist.Lifo.push w 3);
  Alcotest.(check (option int)) "requeued wins" (Some 3) (Worklist.Lifo.pop w);
  Alcotest.(check (option int)) "oldest last" (Some 1) (Worklist.Lifo.pop w);
  Alcotest.(check (option int)) "empty" None (Worklist.Lifo.pop w)

let test_prio_order () =
  let prio = [| 5; 1; 3; 0; 4 |] in
  let w = Worklist.Prio.create ~priority:(fun i -> prio.(i)) () in
  List.iter (fun x -> ignore (Worklist.Prio.push w x)) [ 0; 1; 2; 3; 4 ];
  let popped = List.init 5 (fun _ -> Option.get (Worklist.Prio.pop w)) in
  Alcotest.(check (list int)) "min-first" [ 3; 1; 2; 4; 0 ] popped;
  Alcotest.(check (option int)) "drained" None (Worklist.Prio.pop w)

(* Regression for the stale-rank footgun: ranks that change while a node is
   queued (as when Andersen collapses an SCC mid-solve) must take effect at
   pop, both when a rank improves (decrease-key by duplication) and when it
   worsens (lazy re-sink on pop). *)
let test_prio_rank_mutation () =
  let rank = [| 10; 20; 30 |] in
  let w = Worklist.Prio.create ~priority:(fun i -> rank.(i)) () in
  List.iter (fun x -> ignore (Worklist.Prio.push w x)) [ 0; 1; 2 ];
  (* Node 2's rank improves past everyone; the re-push advertises it. *)
  rank.(2) <- 1;
  Alcotest.(check bool) "re-push while queued is a dup" false
    (Worklist.Prio.push w 2);
  Alcotest.(check int) "still three queued" 3 (Worklist.Prio.length w);
  Alcotest.(check (option int)) "improved rank pops first" (Some 2)
    (Worklist.Prio.pop w);
  (* Node 0's rank worsens with no re-push at all: rank-at-pop must spot the
     stale heap key and re-sink instead of delivering it early. *)
  rank.(0) <- 99;
  Alcotest.(check (option int)) "worsened rank yields" (Some 1)
    (Worklist.Prio.pop w);
  Alcotest.(check (option int)) "demoted node last" (Some 0)
    (Worklist.Prio.pop w);
  Alcotest.(check (option int)) "drained" None (Worklist.Prio.pop w)

let prop_prio_sorted =
  QCheck2.Test.make ~name:"prio pops in priority order" ~count:200
    QCheck2.Gen.(list_size (1 -- 50) (0 -- 30))
    (fun items ->
      let w = Worklist.Prio.create ~priority:(fun i -> i) () in
      List.iter (fun x -> ignore (Worklist.Prio.push w x)) items;
      let rec drain acc =
        match Worklist.Prio.pop w with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort Int.compare (List.sort_uniq Int.compare items))

(* Under mutating ranks the order is only a heuristic, but dedup/termination
   must survive arbitrary interleavings of pushes, pops, and rank churn. *)
let prop_prio_rank_churn =
  QCheck2.Test.make ~name:"prio survives rank churn" ~count:200
    QCheck2.Gen.(
      list_size (1 -- 60) (pair (0 -- 15) (0 -- 2)))
    (fun ops ->
      let rank = Array.init 16 (fun i -> i) in
      let w = Worklist.Prio.create ~priority:(fun i -> rank.(i)) () in
      let queued = Hashtbl.create 16 and popped = ref 0 and pushed = ref 0 in
      List.iter
        (fun (x, op) ->
          match op with
          | 0 ->
            if Worklist.Prio.push w x then begin
              incr pushed;
              Hashtbl.replace queued x ()
            end
          | 1 -> rank.(x) <- (rank.(x) * 7) mod 31
          | _ -> (
            match Worklist.Prio.pop w with
            | Some y ->
              incr popped;
              Hashtbl.remove queued y
            | None -> ()))
        ops;
      let rec drain () =
        match Worklist.Prio.pop w with
        | Some y ->
          incr popped;
          Hashtbl.remove queued y;
          drain ()
        | None -> ()
      in
      drain ();
      (* every accepted push is delivered exactly once *)
      !popped = !pushed && Hashtbl.length queued = 0)

(* ---------- stats ---------- *)

let test_stats () =
  Stats.reset_all ();
  Stats.incr "test.counter";
  Stats.add "test.counter" 4;
  Alcotest.(check int) "count" 5 (Stats.get "test.counter");
  Stats.reset_all ();
  Alcotest.(check int) "reset" 0 (Stats.get "test.counter")

(* A ref taken before [reset_all] must keep counting into the table that
   [get] and [snapshot] read: hot loops cache their counters. *)
let test_stats_cached_ref () =
  let r = Stats.counter "test.cached" in
  Stats.reset_all ();
  Alcotest.(check (list (pair string int))) "zero counters omitted" []
    (List.filter (fun (k, _) -> k = "test.cached") (Stats.snapshot ()));
  incr r;
  incr r;
  Alcotest.(check int) "get sees the cached ref" 2 (Stats.get "test.cached");
  Alcotest.(check (option int)) "snapshot sees the cached ref" (Some 2)
    (List.assoc_opt "test.cached" (Stats.snapshot ()));
  Stats.reset_all ();
  Alcotest.(check int) "reset zeroes the ref" 0 !r

(* ---------- pair keys ---------- *)

let half = QCheck2.Gen.(oneof [ 0 -- 1000; 0 -- (Pair_key.limit - 1) ])

let prop_pair_key_roundtrip =
  QCheck2.Test.make ~name:"pair_key unpack (pack a b) = (a, b)" ~count:1000
    QCheck2.Gen.(pair half half)
    (fun (a, b) ->
      let k = Pair_key.pack a b in
      Pair_key.unpack k = (a, b)
      && Pair_key.hi k = a && Pair_key.lo k = b && k >= 0)

let test_pair_key_range () =
  let raises a b =
    match Pair_key.pack a b with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let lim = Pair_key.limit in
  Alcotest.(check int) "limit = 2^bits" (1 lsl Pair_key.bits) lim;
  Alcotest.(check bool) "negative high half" true (raises (-1) 0);
  Alcotest.(check bool) "negative low half" true (raises 0 (-1));
  Alcotest.(check bool) "high half at 2^31" true (raises lim 0);
  Alcotest.(check bool) "low half at 2^31" true (raises 0 lim);
  Alcotest.(check bool) "largest halves pack" false (raises (lim - 1) (lim - 1))

(* [Tbl] against a polymorphic [Hashtbl] model: after every operation the
   two agree on the probed key and on the size. *)
let prop_pair_key_tbl_model =
  let op =
    QCheck2.Gen.(triple (0 -- 2) (pair (0 -- 40) (0 -- 40)) (0 -- 1000))
  in
  QCheck2.Test.make ~name:"pair_key Tbl matches a Hashtbl model" ~count:300
    QCheck2.Gen.(list_size (0 -- 200) op)
    (fun ops ->
      let t = Pair_key.Tbl.create 8 and m = Hashtbl.create 8 in
      List.for_all
        (fun (kind, (a, b), v) ->
          let k = Pair_key.pack a b in
          (match kind with
          | 0 ->
            Pair_key.Tbl.add t k v;
            Hashtbl.add m (a, b) v
          | 1 ->
            Pair_key.Tbl.replace t k v;
            Hashtbl.replace m (a, b) v
          | _ -> ());
          Pair_key.Tbl.find_opt t k = Hashtbl.find_opt m (a, b)
          && Pair_key.Tbl.find_all t k = Hashtbl.find_all m (a, b)
          && Pair_key.Tbl.length t = Hashtbl.length m)
        ops)

(* Keys differing only in the high half must not share a bucket: their
   low 31 bits are all equal. *)
let test_pair_key_spread () =
  let t = Pair_key.Tbl.create 16 in
  for i = 0 to 4095 do
    Pair_key.Tbl.replace t (Pair_key.pack i 0) i
  done;
  let st = Pair_key.Tbl.stats t in
  Alcotest.(check int) "all keys present" 4096 st.Hashtbl.num_bindings;
  Alcotest.(check bool)
    (Printf.sprintf "max bucket length %d <= 8" st.Hashtbl.max_bucket_length)
    true
    (st.Hashtbl.max_bucket_length <= 8)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pta_ds"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/mem" `Quick test_add_mem;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "word boundaries" `Quick test_word_boundaries;
          Alcotest.test_case "union_into" `Quick test_union_into;
          Alcotest.test_case "union empty" `Quick test_union_into_empty;
          Alcotest.test_case "equal/hash" `Quick test_equal_hash;
          Alcotest.test_case "compare" `Quick test_compare_order;
          Alcotest.test_case "copy isolation" `Quick test_copy_isolated;
        ] );
      qsuite "bitset-props"
        [
          prop_roundtrip;
          prop_iter_choose;
          prop_union;
          prop_union_changed;
          prop_inter;
          prop_diff;
          prop_subset;
          prop_intersects;
          prop_cardinal;
          prop_remove;
          prop_equal_means_hash;
          prop_union_accumulate;
          prop_add_remove_sequence;
        ];
      ( "ptset",
        [
          Alcotest.test_case "interning" `Quick test_ptset_intern;
          Alcotest.test_case "add/union" `Quick test_ptset_add_union;
          Alcotest.test_case "union_delta" `Quick test_ptset_union_delta;
          Alcotest.test_case "view/tally" `Quick test_ptset_view_words;
          Alcotest.test_case "packed-key overflow" `Quick
            test_ptset_key_overflow;
          Alcotest.test_case "check_pool" `Quick test_ptset_check_pool;
        ] );
      ( "pair_key",
        [
          Alcotest.test_case "range checks" `Quick test_pair_key_range;
          Alcotest.test_case "bucket spread" `Quick test_pair_key_spread;
          QCheck_alcotest.to_alcotest prop_pair_key_roundtrip;
          QCheck_alcotest.to_alcotest prop_pair_key_tbl_model;
        ] );
      qsuite "ptset-props"
        [
          prop_ptset_op_sequences;
          prop_ptset_roundtrip;
          prop_ptset_equal_ids;
          prop_ptset_add;
          prop_ptset_union;
          prop_ptset_union_delta;
          prop_ptset_diff;
          prop_ptset_memo_consistent;
          prop_ptset_subset_cardinal;
          prop_ptset_union_order_independent;
        ];
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "many" `Quick test_vec_many;
          Alcotest.test_case "dummy-free" `Quick test_vec_dummy_free;
        ] );
      ("hashcons", [ Alcotest.test_case "intern" `Quick test_hashcons ]);
      ( "union-find",
        [
          Alcotest.test_case "basic" `Quick test_union_find;
          Alcotest.test_case "union_into winner" `Quick test_union_into_winner;
          Alcotest.test_case "idempotent find" `Quick test_uf_idempotent_find;
          Alcotest.test_case "union by rank" `Quick test_uf_union_by_rank;
          QCheck_alcotest.to_alcotest prop_union_find;
          QCheck_alcotest.to_alcotest prop_uf_find_stable;
        ] );
      ( "worklist",
        [
          Alcotest.test_case "fifo dedup" `Quick test_fifo_dedup;
          Alcotest.test_case "lifo order" `Quick test_lifo_order;
          Alcotest.test_case "prio order" `Quick test_prio_order;
          Alcotest.test_case "prio rank mutation" `Quick
            test_prio_rank_mutation;
          QCheck_alcotest.to_alcotest prop_prio_sorted;
          QCheck_alcotest.to_alcotest prop_prio_rank_churn;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats;
          Alcotest.test_case "cached ref survives reset" `Quick
            test_stats_cached_ref;
        ] );
    ]
