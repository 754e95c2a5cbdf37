(* "On the list" flags over dense ids, one byte each, grown on demand. A
   sparse [Bitset] would binary-search its words on every push and pop and
   shift them whenever a word fills up or empties. *)
module Flags = struct
  type t = { mutable bytes : Bytes.t }

  let create () = { bytes = Bytes.make 64 '\000' }

  let mem t x =
    if x < 0 then invalid_arg "Worklist: negative item";
    x < Bytes.length t.bytes && Bytes.unsafe_get t.bytes x <> '\000'

  (* true iff [x] was not set *)
  let add t x =
    if mem t x then false
    else begin
      let n = Bytes.length t.bytes in
      if x >= n then begin
        let bytes = Bytes.make (max (2 * n) (x + 1)) '\000' in
        Bytes.blit t.bytes 0 bytes 0 n;
        t.bytes <- bytes
      end;
      Bytes.unsafe_set t.bytes x '\001';
      true
    end

  let remove t x = if mem t x then Bytes.unsafe_set t.bytes x '\000'
end

module Fifo = struct
  type t = { queue : int Queue.t; queued : Flags.t }

  let create () = { queue = Queue.create (); queued = Flags.create () }

  let push t x =
    if Flags.add t.queued x then begin
      Queue.push x t.queue;
      true
    end
    else false

  let pop t =
    match Queue.pop t.queue with
    | x ->
      Flags.remove t.queued x;
      Some x
    | exception Queue.Empty -> None

  let is_empty t = Queue.is_empty t.queue
  let length t = Queue.length t.queue
end

module Lifo = struct
  type t = { mutable stack : int list; mutable count : int; queued : Flags.t }

  let create () = { stack = []; count = 0; queued = Flags.create () }

  let push t x =
    if Flags.add t.queued x then begin
      t.stack <- x :: t.stack;
      t.count <- t.count + 1;
      true
    end
    else false

  let pop t =
    match t.stack with
    | [] -> None
    | x :: rest ->
      t.stack <- rest;
      t.count <- t.count - 1;
      Flags.remove t.queued x;
      Some x

  let is_empty t = t.stack = []
  let length t = t.count
end

module Prio = struct
  (* Binary min-heap of (rank, item) pairs with an "on list" bitset for
     deduplication, tolerant of ranks that change while an item is queued
     (Andersen's online SCC collapses re-rank merged representatives; the
     engine's least-recently-fired policy bumps ranks on every pop):

     - [push] of an already-queued item whose current rank *improved* on the
       best stored entry inserts a duplicate entry at the fresh rank — a
       decrease-key by duplication. The stale entry is skipped at [pop]
       because the item is no longer in [queued] by the time it surfaces.
     - [pop] re-reads the root item's rank; if it *grew* while queued, the
       entry is re-sunk at the fresh rank instead of being delivered early
       (rank-at-pop revalidation).

     Order is a heuristic, not a contract: a rank that both grows and then
     shrinks again without a re-push can be delivered at the stale larger
     rank. What is guaranteed is deduplication, termination, and that a
     stable rank behaves like a plain min-heap. *)
  type t = {
    mutable heap : (int * int) array;
    mutable len : int;
    queued : Flags.t;
    mutable n_queued : int;
    best : (int, int) Hashtbl.t;  (* item -> best (smallest) stored rank *)
    priority : int -> int;
  }

  let create ~priority () =
    { heap = Array.make 16 (0, 0); len = 0; queued = Flags.create ();
      n_queued = 0; best = Hashtbl.create 64; priority }

  let swap t i j =
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(j);
    t.heap.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if fst t.heap.(i) < fst t.heap.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.len && fst t.heap.(l) < fst t.heap.(!smallest) then smallest := l;
    if r < t.len && fst t.heap.(r) < fst t.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let insert t entry =
    if t.len = Array.length t.heap then begin
      let heap = Array.make (2 * t.len) (0, 0) in
      Array.blit t.heap 0 heap 0 t.len;
      t.heap <- heap
    end;
    t.heap.(t.len) <- entry;
    t.len <- t.len + 1;
    sift_up t (t.len - 1)

  let push t x =
    let k = t.priority x in
    if Flags.add t.queued x then begin
      t.n_queued <- t.n_queued + 1;
      Hashtbl.replace t.best x k;
      insert t (k, x);
      true
    end
    else begin
      (match Hashtbl.find_opt t.best x with
      | Some b when k < b ->
        Hashtbl.replace t.best x k;
        insert t (k, x)
      | _ -> ());
      false
    end

  let drop_root t =
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.heap.(0) <- t.heap.(t.len);
      sift_down t 0
    end

  let rec pop t =
    if t.len = 0 then None
    else begin
      let k, x = t.heap.(0) in
      if not (Flags.mem t.queued x) then begin
        (* stale duplicate of an already-delivered item *)
        drop_root t;
        pop t
      end
      else begin
        let k' = t.priority x in
        if k' > k then begin
          (* rank grew while queued: revalidate instead of popping early *)
          t.heap.(0) <- (k', x);
          sift_down t 0;
          pop t
        end
        else begin
          drop_root t;
          Flags.remove t.queued x;
          t.n_queued <- t.n_queued - 1;
          Hashtbl.remove t.best x;
          Some x
        end
      end
    end

  let is_empty t = t.n_queued = 0
  let length t = t.n_queued
end
