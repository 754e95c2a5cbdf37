(* Sparse bit vector: sorted parallel arrays of word indices and bit words.
   Invariants: [idx] strictly increasing on [0, len); every stored word is
   non-zero; capacities of [idx] and [bits] are equal. *)

let bpw = Sys.int_size (* 63 on 64-bit platforms *)

type t = { mutable idx : int array; mutable bits : int array; mutable len : int }

let create () = { idx = [||]; bits = [||]; len = 0 }

let copy s = { idx = Array.copy s.idx; bits = Array.copy s.bits; len = s.len }

let is_empty s = s.len = 0
let clear s = s.len <- 0

(* Binary search for word index [w]: returns the position if present,
   otherwise [-(insertion_point + 1)]. *)
let find_word s w =
  let lo = ref 0 and hi = ref (s.len - 1) and res = ref min_int in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = s.idx.(mid) in
    if v = w then begin
      res := mid;
      lo := !hi + 1
    end
    else if v < w then lo := mid + 1
    else hi := mid - 1
  done;
  if !res >= 0 then !res else -(!lo + 1)

let mem s x =
  if x < 0 then invalid_arg "Bitset.mem";
  let w = x / bpw and b = x mod bpw in
  let pos = find_word s w in
  pos >= 0 && s.bits.(pos) land (1 lsl b) <> 0

let ensure_capacity s n =
  if n > Array.length s.idx then begin
    let cap = ref (max 4 (Array.length s.idx)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let idx = Array.make !cap 0 and bits = Array.make !cap 0 in
    Array.blit s.idx 0 idx 0 s.len;
    Array.blit s.bits 0 bits 0 s.len;
    s.idx <- idx;
    s.bits <- bits
  end

let insert_word s pos w word =
  ensure_capacity s (s.len + 1);
  Array.blit s.idx pos s.idx (pos + 1) (s.len - pos);
  Array.blit s.bits pos s.bits (pos + 1) (s.len - pos);
  s.idx.(pos) <- w;
  s.bits.(pos) <- word;
  s.len <- s.len + 1

let delete_word s pos =
  Array.blit s.idx (pos + 1) s.idx pos (s.len - pos - 1);
  Array.blit s.bits (pos + 1) s.bits pos (s.len - pos - 1);
  s.len <- s.len - 1

let add s x =
  if x < 0 then invalid_arg "Bitset.add";
  let w = x / bpw and b = x mod bpw in
  let pos = find_word s w in
  if pos >= 0 then begin
    let old = s.bits.(pos) in
    let nw = old lor (1 lsl b) in
    if nw = old then false
    else begin
      s.bits.(pos) <- nw;
      true
    end
  end
  else begin
    insert_word s (-pos - 1) w (1 lsl b);
    true
  end

let remove s x =
  if x < 0 then invalid_arg "Bitset.remove";
  let w = x / bpw and b = x mod bpw in
  let pos = find_word s w in
  if pos < 0 then false
  else begin
    let old = s.bits.(pos) in
    let nw = old land lnot (1 lsl b) in
    if nw = old then false
    else begin
      if nw = 0 then delete_word s pos else s.bits.(pos) <- nw;
      true
    end
  end

let singleton x =
  let s = create () in
  ignore (add s x);
  s

let of_list xs =
  let s = create () in
  List.iter (fun x -> ignore (add s x)) xs;
  s

let popcount word =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 word

let cardinal s =
  let n = ref 0 in
  for i = 0 to s.len - 1 do
    n := !n + popcount s.bits.(i)
  done;
  !n

let equal a b =
  a.len = b.len
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < a.len do
    if a.idx.(!i) <> b.idx.(!i) || a.bits.(!i) <> b.bits.(!i) then ok := false;
    incr i
  done;
  !ok

let hash s =
  let h = ref 5381 in
  for i = 0 to s.len - 1 do
    h := (!h * 33) + s.idx.(i);
    h := (!h * 33) + s.bits.(i) land max_int
  done;
  !h land max_int

let compare a b =
  let rec go i =
    if i >= a.len && i >= b.len then 0
    else if i >= a.len then -1
    else if i >= b.len then 1
    else
      let c = Int.compare a.idx.(i) b.idx.(i) in
      if c <> 0 then c
      else
        let c = Int.compare a.bits.(i) b.bits.(i) in
        if c <> 0 then c else go (i + 1)
  in
  go 0

let subset a b =
  let rec go i j =
    if i >= a.len then true
    else if j >= b.len then false
    else if a.idx.(i) < b.idx.(j) then false
    else if a.idx.(i) > b.idx.(j) then go i (j + 1)
    else if a.bits.(i) land lnot b.bits.(j) <> 0 then false
    else go (i + 1) (j + 1)
  in
  go 0 0

let intersects a b =
  let rec go i j =
    if i >= a.len || j >= b.len then false
    else if a.idx.(i) < b.idx.(j) then go (i + 1) j
    else if a.idx.(i) > b.idx.(j) then go i (j + 1)
    else if a.bits.(i) land b.bits.(j) <> 0 then true
    else go (i + 1) (j + 1)
  in
  go 0 0

(* Cached per domain: a name lookup per call would cost more than a small
   union. *)
let union_into_calls =
  Domain.DLS.new_key (fun () -> Stats.counter "bitset.union_into")

let union_into ~into src =
  incr (Domain.DLS.get union_into_calls);
  if src.len = 0 then false
  else begin
    (* One counting pass: result length and whether anything is new. *)
    let changed = ref false in
    let rl = ref 0 in
    let i = ref 0 and j = ref 0 in
    while !i < into.len || !j < src.len do
      if !j >= src.len then begin
        rl := !rl + (into.len - !i);
        i := into.len
      end
      else if !i >= into.len then begin
        changed := true;
        rl := !rl + (src.len - !j);
        j := src.len
      end
      else if into.idx.(!i) < src.idx.(!j) then begin
        incr rl;
        incr i
      end
      else if into.idx.(!i) > src.idx.(!j) then begin
        changed := true;
        incr rl;
        incr j
      end
      else begin
        if src.bits.(!j) land lnot into.bits.(!i) <> 0 then changed := true;
        incr rl;
        incr i;
        incr j
      end
    done;
    if not !changed then false
    else begin
      let rl = !rl in
      if rl > Array.length into.idx then begin
        (* Grow with headroom, merging forward into fresh arrays. *)
        let cap = ref (max 4 (Array.length into.idx)) in
        while !cap < rl do
          cap := !cap * 2
        done;
        let idx = Array.make !cap 0 and bits = Array.make !cap 0 in
        let k = ref 0 and i = ref 0 and j = ref 0 in
        while !i < into.len || !j < src.len do
          if !j >= src.len || (!i < into.len && into.idx.(!i) < src.idx.(!j))
          then begin
            idx.(!k) <- into.idx.(!i);
            bits.(!k) <- into.bits.(!i);
            incr i
          end
          else if !i >= into.len || into.idx.(!i) > src.idx.(!j) then begin
            idx.(!k) <- src.idx.(!j);
            bits.(!k) <- src.bits.(!j);
            incr j
          end
          else begin
            idx.(!k) <- into.idx.(!i);
            bits.(!k) <- into.bits.(!i) lor src.bits.(!j);
            incr i;
            incr j
          end;
          incr k
        done;
        into.idx <- idx;
        into.bits <- bits;
        into.len <- !k
      end
      else begin
        (* Merge backwards in place: destination has room. *)
        let i = ref (into.len - 1) and j = ref (src.len - 1) in
        let k = ref (rl - 1) in
        while !j >= 0 do
          if !i >= 0 && into.idx.(!i) > src.idx.(!j) then begin
            into.idx.(!k) <- into.idx.(!i);
            into.bits.(!k) <- into.bits.(!i);
            decr i
          end
          else if !i >= 0 && into.idx.(!i) = src.idx.(!j) then begin
            into.idx.(!k) <- into.idx.(!i);
            into.bits.(!k) <- into.bits.(!i) lor src.bits.(!j);
            decr i;
            decr j
          end
          else begin
            into.idx.(!k) <- src.idx.(!j);
            into.bits.(!k) <- src.bits.(!j);
            decr j
          end;
          decr k
        done;
        (* Remaining dst entries are already in place (k = i here). *)
        into.len <- rl
      end;
      true
    end
  end

let union a b =
  let r = copy a in
  ignore (union_into ~into:r b);
  r

let inter a b =
  let r = create () in
  let i = ref 0 and j = ref 0 in
  while !i < a.len && !j < b.len do
    if a.idx.(!i) < b.idx.(!j) then incr i
    else if a.idx.(!i) > b.idx.(!j) then incr j
    else begin
      let w = a.bits.(!i) land b.bits.(!j) in
      if w <> 0 then begin
        ensure_capacity r (r.len + 1);
        r.idx.(r.len) <- a.idx.(!i);
        r.bits.(r.len) <- w;
        r.len <- r.len + 1
      end;
      incr i;
      incr j
    end
  done;
  r

let diff a b =
  let r = create () in
  let i = ref 0 and j = ref 0 in
  while !i < a.len do
    if !j >= b.len || a.idx.(!i) < b.idx.(!j) then begin
      ensure_capacity r (r.len + 1);
      r.idx.(r.len) <- a.idx.(!i);
      r.bits.(r.len) <- a.bits.(!i);
      r.len <- r.len + 1;
      incr i
    end
    else if a.idx.(!i) > b.idx.(!j) then incr j
    else begin
      let w = a.bits.(!i) land lnot b.bits.(!j) in
      if w <> 0 then begin
        ensure_capacity r (r.len + 1);
        r.idx.(r.len) <- a.idx.(!i);
        r.bits.(r.len) <- w;
        r.len <- r.len + 1
      end;
      incr i;
      incr j
    end
  done;
  r

(* Position of the lowest set bit of a non-zero word: a fixed binary split
   in six steps, covering bits 0 .. bpw - 1. *)
let lowest_bit w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin
    n := 32;
    w := !w lsr 32
  end;
  if !w land 0xFFFF = 0 then begin
    n := !n + 16;
    w := !w lsr 16
  end;
  if !w land 0xFF = 0 then begin
    n := !n + 8;
    w := !w lsr 8
  end;
  if !w land 0xF = 0 then begin
    n := !n + 4;
    w := !w lsr 4
  end;
  if !w land 0x3 = 0 then begin
    n := !n + 2;
    w := !w lsr 2
  end;
  if !w land 0x1 = 0 then !n + 1 else !n

let iter f s =
  for i = 0 to s.len - 1 do
    let base = s.idx.(i) * bpw in
    let w = ref s.bits.(i) in
    while !w <> 0 do
      f (base + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

let fold f s acc =
  let acc = ref acc in
  iter (fun x -> acc := f x !acc) s;
  !acc

let elements s = List.rev (fold (fun x acc -> x :: acc) s [])

let choose s =
  if s.len = 0 then None
  else Some ((s.idx.(0) * bpw) + lowest_bit s.bits.(0))

let iter_words f s =
  for i = 0 to s.len - 1 do
    f s.idx.(i) s.bits.(i)
  done

let n_words s = s.len

let append_word s w word =
  if word = 0 then invalid_arg "Bitset.append_word: zero word";
  if s.len > 0 && w <= s.idx.(s.len - 1) then
    invalid_arg "Bitset.append_word: word index not increasing";
  ensure_capacity s (s.len + 1);
  s.idx.(s.len) <- w;
  s.bits.(s.len) <- word;
  s.len <- s.len + 1

let words s = 3 + (2 * Array.length s.idx)

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (elements s)
