module Codec = Pta_store.Codec

let magic = "PTAQ"
let max_frame = 64 * 1024 * 1024

type tier = Unify | Andersen | Exact

let tier_name = function
  | Unify -> "unify"
  | Andersen -> "andersen"
  | Exact -> "exact"

type query =
  | Points_to of string
  | May_alias of string * string
  | Points_to_null of string
  | Callees of string

type request =
  | Query of tier * query list
  | Vars
  | Report
  | Stats
  | Reload of string option
  | Shutdown

type answer = Set of string list | Bool of bool | Unknown of string

type reload_info = {
  r_total : int;
  r_reused : int;
  r_dirty : int;
  r_scheduled : int;
  r_pops : int;
  r_spliceable : bool;
  r_warm_build : bool;
}

type reply =
  | Answers of tier * answer list
  | Names of string list
  | Report_r of (string * string list) list
  | Stats_r of (string * string) list
  | Reloaded of reload_info
  | Shutting_down
  | Error of string

(* ---------- bodies ---------- *)

let add_tier b t =
  Codec.add_uint b (match t with Unify -> 0 | Andersen -> 1 | Exact -> 2)

let tier d =
  match Codec.uint d with
  | 0 -> Unify
  | 1 -> Andersen
  | 2 -> Exact
  | t -> raise (Codec.Corrupt (Printf.sprintf "tier tag %d" t))

let add_query b = function
  | Points_to n ->
    Codec.add_uint b 0;
    Codec.add_string b n
  | May_alias (x, y) ->
    Codec.add_uint b 1;
    Codec.add_string b x;
    Codec.add_string b y
  | Points_to_null n ->
    Codec.add_uint b 2;
    Codec.add_string b n
  | Callees n ->
    Codec.add_uint b 3;
    Codec.add_string b n

let query d =
  match Codec.uint d with
  | 0 -> Points_to (Codec.string d)
  | 1 ->
    let x = Codec.string d in
    let y = Codec.string d in
    May_alias (x, y)
  | 2 -> Points_to_null (Codec.string d)
  | 3 -> Callees (Codec.string d)
  | t -> raise (Codec.Corrupt (Printf.sprintf "query tag %d" t))

let encode_request req =
  let b = Buffer.create 64 in
  (match req with
  | Query (t, qs) ->
    Codec.add_uint b 0;
    add_tier b t;
    Codec.add_list add_query b qs
  | Vars -> Codec.add_uint b 1
  | Report -> Codec.add_uint b 2
  | Stats -> Codec.add_uint b 3
  | Reload p ->
    Codec.add_uint b 4;
    Codec.add_option Codec.add_string b p
  | Shutdown -> Codec.add_uint b 5);
  Buffer.contents b

let decode_request bytes =
  let d = Codec.of_string bytes in
  let req =
    match Codec.uint d with
    | 0 ->
      let t = tier d in
      Query (t, Codec.list query d)
    | 1 -> Vars
    | 2 -> Report
    | 3 -> Stats
    | 4 -> Reload (Codec.option Codec.string d)
    | 5 -> Shutdown
    | t -> raise (Codec.Corrupt (Printf.sprintf "request tag %d" t))
  in
  Codec.expect_end d;
  req

let add_answer b = function
  | Set names ->
    Codec.add_uint b 0;
    Codec.add_list Codec.add_string b names
  | Bool v ->
    Codec.add_uint b 1;
    Codec.add_bool b v
  | Unknown n ->
    Codec.add_uint b 2;
    Codec.add_string b n

let answer d =
  match Codec.uint d with
  | 0 -> Set (Codec.list Codec.string d)
  | 1 -> Bool (Codec.bool d)
  | 2 -> Unknown (Codec.string d)
  | t -> raise (Codec.Corrupt (Printf.sprintf "answer tag %d" t))

let add_pair b (k, v) =
  Codec.add_string b k;
  Codec.add_string b v

let pair d =
  let k = Codec.string d in
  let v = Codec.string d in
  (k, v)

let add_row b (k, vs) =
  Codec.add_string b k;
  Codec.add_list Codec.add_string b vs

let row d =
  let k = Codec.string d in
  let vs = Codec.list Codec.string d in
  (k, vs)

let encode_reply reply =
  let b = Buffer.create 256 in
  (match reply with
  | Answers (t, ans) ->
    Codec.add_uint b 0;
    add_tier b t;
    Codec.add_list add_answer b ans
  | Names ns ->
    Codec.add_uint b 1;
    Codec.add_list Codec.add_string b ns
  | Report_r rows ->
    Codec.add_uint b 2;
    Codec.add_list add_row b rows
  | Stats_r kvs ->
    Codec.add_uint b 3;
    Codec.add_list add_pair b kvs
  | Reloaded i ->
    Codec.add_uint b 4;
    Codec.add_uint b i.r_total;
    Codec.add_uint b i.r_reused;
    Codec.add_uint b i.r_dirty;
    Codec.add_uint b i.r_scheduled;
    Codec.add_uint b i.r_pops;
    Codec.add_bool b i.r_spliceable;
    Codec.add_bool b i.r_warm_build
  | Shutting_down -> Codec.add_uint b 5
  | Error msg ->
    Codec.add_uint b 6;
    Codec.add_string b msg);
  Buffer.contents b

let decode_reply bytes =
  let d = Codec.of_string bytes in
  let reply =
    match Codec.uint d with
    | 0 ->
      let t = tier d in
      Answers (t, Codec.list answer d)
    | 1 -> Names (Codec.list Codec.string d)
    | 2 -> Report_r (Codec.list row d)
    | 3 -> Stats_r (Codec.list pair d)
    | 4 ->
      let r_total = Codec.uint d in
      let r_reused = Codec.uint d in
      let r_dirty = Codec.uint d in
      let r_scheduled = Codec.uint d in
      let r_pops = Codec.uint d in
      let r_spliceable = Codec.bool d in
      let r_warm_build = Codec.bool d in
      Reloaded
        { r_total; r_reused; r_dirty; r_scheduled; r_pops; r_spliceable;
          r_warm_build }
    | 5 -> Shutting_down
    | 6 -> Error (Codec.string d)
    | t -> raise (Codec.Corrupt (Printf.sprintf "reply tag %d" t))
  in
  Codec.expect_end d;
  reply

(* ---------- framing ---------- *)

(* [magic | varint length | body] — the length varint is read byte-by-byte
   off the socket (LEB128, at most 10 bytes), everything after it in one
   exact read. *)

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd bytes pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (pos + n) (len - n)
  end

let write_frame fd body =
  if String.length body > max_frame then
    invalid_arg "Protocol.write_frame: frame too large";
  let b = Buffer.create (String.length body + 16) in
  Buffer.add_string b magic;
  Codec.add_uint b (String.length body);
  Buffer.add_string b body;
  let s = Buffer.contents b in
  write_all fd s 0 (String.length s)

let rec read_byte fd buf =
  match Unix.read fd buf 0 1 with
  | 0 -> None
  | _ -> Some (Char.code (Bytes.get buf 0))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_byte fd buf

let read_exact fd buf pos len =
  let rec go pos len =
    if len > 0 then
      match Unix.read fd buf pos len with
      | 0 -> raise (Codec.Corrupt "connection closed mid-frame")
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
  in
  go pos len

(* [None] on a clean end-of-stream (peer closed between frames); {!Corrupt}
   on anything malformed: wrong magic, runaway or oversized length,
   truncation inside the frame. *)
let read_frame fd =
  let one = Bytes.create 1 in
  match read_byte fd one with
  | None -> None
  | Some c0 ->
    if Char.chr c0 <> magic.[0] then raise (Codec.Corrupt "bad frame magic");
    let rest = Bytes.create 3 in
    read_exact fd rest 0 3;
    if Bytes.to_string rest <> String.sub magic 1 3 then
      raise (Codec.Corrupt "bad frame magic");
    let len =
      let rec go shift acc n_bytes =
        if n_bytes > 10 then raise (Codec.Corrupt "frame length varint runaway");
        match read_byte fd one with
        | None -> raise (Codec.Corrupt "connection closed mid-frame")
        | Some byte ->
          let acc = acc lor ((byte land 0x7f) lsl shift) in
          if byte land 0x80 <> 0 then go (shift + 7) acc (n_bytes + 1) else acc
      in
      go 0 0 1
    in
    if len < 0 || len > max_frame then
      raise (Codec.Corrupt (Printf.sprintf "frame length %d out of range" len));
    let body = Bytes.create len in
    read_exact fd body 0 len;
    Some (Bytes.unsafe_to_string body)
