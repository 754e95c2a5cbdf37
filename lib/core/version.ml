open Pta_ds

module BitsetHashed = struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end

module HC = Hashcons.Make (BitsetHashed)

type t = int

type table = {
  mutable hc : HC.t;
  meld_memo : int Pair_key.Tbl.t;  (* Pair_key.pack (min a b) (max a b) *)
  mutable next_label : int;
  mutable n_sealed : int;  (* version count snapshot taken at seal time *)
  mutable sealed : bool;
}

let create () =
  let hc = HC.create 256 in
  (* ε is the empty label set and must get id 0. *)
  let eps = HC.intern hc (Bitset.create ()) in
  assert (eps = 0);
  { hc; meld_memo = Pair_key.Tbl.create 256; next_label = 0;
    n_sealed = 0; sealed = false }

let epsilon = 0
let is_epsilon v = v = 0

let fresh t =
  let l = t.next_label in
  t.next_label <- l + 1;
  HC.intern t.hc (Bitset.singleton l)

let meld t a b =
  if t.sealed then invalid_arg "Version.meld: table sealed";
  if a = b then a
  else if a = epsilon then b
  else if b = epsilon then a
  else begin
    let key = Pair_key.pack (Int.min a b) (Int.max a b) in
    match Pair_key.Tbl.find_opt t.meld_memo key with
    | Some v -> v
    | None ->
      Stats.incr "version.melds";
      let sa = HC.get t.hc a and sb = HC.get t.hc b in
      (* Subset fast paths avoid the union allocation and the hash-cons
         probe; chains of meld labelling hit them constantly. *)
      let v =
        if Bitset.subset sa sb then b
        else if Bitset.subset sb sa then a
        else HC.intern t.hc (Bitset.union sa sb)
      in
      Pair_key.Tbl.add t.meld_memo key v;
      v
  end

let labels t v =
  if t.sealed then invalid_arg "Version.labels: table sealed";
  Bitset.elements (HC.get t.hc v)

let n_versions t = if t.sealed then t.n_sealed else HC.count t.hc

(* After meld labelling, versions are only ever compared by id: the
   underlying prelabel sets and the meld memo are dead weight (they can be
   a large share of the analysis footprint on big programs — the paper's
   §V-B remarks on exactly this overhead of the off-the-shelf
   SparseBitVector representation). Sealing releases them. *)
let seal t =
  if not t.sealed then begin
    t.n_sealed <- HC.count t.hc;
    t.sealed <- true;
    t.hc <- HC.create 1;
    Pair_key.Tbl.reset t.meld_memo
  end
let n_prelabels t = t.next_label

let import_sealed ~n_prelabels ~n_versions =
  if n_prelabels < 0 || n_versions < 1 then
    invalid_arg "Version.import_sealed: counts out of range";
  let t = create () in
  t.next_label <- n_prelabels;
  seal t;
  t.n_sealed <- n_versions;
  t

let words t =
  let total = ref (3 * Pair_key.Tbl.length t.meld_memo) in
  HC.iter (fun _ s -> total := !total + Bitset.words s) t.hc;
  !total

let pp t ppf v =
  if is_epsilon v then Format.pp_print_string ppf "ε"
  else if t.sealed then Format.fprintf ppf "#%d" v
  else
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "⊙")
         Format.pp_print_int)
      (labels t v)
