(* Two ids packed into one OCaml int: [a] in the high half, [b] in the low
   31 bits. Packing is checked, never assumed: a half at or beyond 2^31
   would silently collide with another key. *)

let bits = 31
let limit = 1 lsl bits
let mask = limit - 1

let pack a b =
  if a < 0 || b < 0 || a >= limit || b >= limit then
    invalid_arg "Pair_key.pack: a half is negative or exceeds the 31-bit range";
  (a lsl bits) lor b

let hi k = k lsr bits
let lo k = k land mask
let unpack k = (hi k, lo k)

(* [Hashtbl.Make] picks a bucket from the hash's low bits, and a packed
   key's low 31 bits are [b] alone: an identity hash would put every key
   sharing a [b] (all nodes of one object) in one bucket. Adding the high
   half times an odd constant keeps the low bits a bijection of either half
   when the other is fixed, for one multiply. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k + (hi k * 0x9E3779B1)) land max_int
end)
