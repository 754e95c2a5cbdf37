(* v3: solver artifacts reference a block-pooled set pool — distinct
   1008-element blocks are serialised once per artifact and sets reference
   them by index (see [Artifact]). The version is also folded into every
   key, so a format change never addresses an entry of the old one. *)
let format_version = 3
let magic = "PTAS"
let manifest_name = "MANIFEST.tsv"

type t = { dir : string }

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "cache dir %s exists and is not a directory" dir);
  { dir }

let dir t = t.dir

let key ~stage inputs =
  Digest.combine (string_of_int format_version :: stage :: inputs)

let manifest t = Filename.concat t.dir manifest_name
let entry_file ~stage ~key = Printf.sprintf "%s-%s.bin" stage key
let entry_path t ~stage ~key = Filename.concat t.dir (entry_file ~stage ~key)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Publication protocol for concurrent writers (parallel batch jobs share
   one store): every writer streams into its own uniquely named temp file —
   pid + atomic counter, so two domains (or two processes) never write the
   same inode — and publishes the complete frame with one atomic [rename].
   A reader therefore only ever opens a complete frame: either the old
   entry, the new one, or a miss, never torn bytes. The manifest, unlike
   the entries, is read-modify-write, so in-process writers additionally
   serialise its updates on [manifest_lock] (cross-process manifest races
   can still drop index lines, which [gc] reconstructs from the frames —
   the frames themselves are the source of truth). *)
let tmp_counter = Atomic.make 0

let fresh_tmp path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1)

let is_tmp_file f =
  (* matches [fresh_tmp] output and the pre-atomic ".tmp" suffix *)
  let rec contains i =
    i + 4 <= String.length f && (String.sub f i 4 = ".tmp" || contains (i + 1))
  in
  contains 0

let manifest_lock = Mutex.create ()
let lock_name = "MANIFEST.lock"

(* Manifest updates are read-modify-write, so they need mutual exclusion at
   two granularities: [manifest_lock] serialises threads of this process,
   and an advisory [lockf] region on a sidecar lock file serialises
   processes — a resident daemon ([vsfs serve]) and a concurrent
   [vsfs cache gc] must not interleave their load/filter/save cycles, or
   one overwrites the other's index lines. The lock file is separate from
   the manifest itself because {!Manifest.save} publishes by [rename],
   which would silently swap the locked inode out from under the region.
   Lock acquisition failing for environmental reasons (e.g. a filesystem
   without lock support) degrades to the old in-process-only behaviour
   rather than failing the operation: the manifest is advisory, frames are
   the source of truth. *)
let with_process_lock t f =
  let lock_path = Filename.concat t.dir lock_name in
  match Unix.openfile lock_path [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.lockf fd Unix.F_LOCK 0 with
        | exception Unix.Unix_error _ -> f ()
        | () ->
          Fun.protect
            ~finally:(fun () ->
              try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
            f)

let with_manifest_lock t f =
  Mutex.protect manifest_lock (fun () -> with_process_lock t f)

(* Parse and fully verify a frame; Codec.Corrupt on any mismatch. *)
let parse_frame bytes =
  if
    String.length bytes < String.length magic
    || String.sub bytes 0 (String.length magic) <> magic
  then raise (Codec.Corrupt "bad magic");
  let d = Codec.of_string ~pos:(String.length magic) bytes in
  let version = Codec.uint d in
  if version <> format_version then
    raise (Codec.Corrupt (Printf.sprintf "format version %d" version));
  let stage = Codec.string d in
  let key = Codec.string d in
  let md5 = Codec.string d in
  let payload = Codec.string d in
  Codec.expect_end d;
  if Stdlib.Digest.string payload <> md5 then
    raise (Codec.Corrupt "payload checksum mismatch");
  (stage, key, payload)

let save t ~stage ~key ?(label = "") payload =
  let b = Buffer.create (String.length payload + 128) in
  Buffer.add_string b magic;
  Codec.add_uint b format_version;
  Codec.add_string b stage;
  Codec.add_string b key;
  Codec.add_string b (Stdlib.Digest.string payload);
  Codec.add_string b payload;
  let path = entry_path t ~stage ~key in
  let tmp = fresh_tmp path in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc b);
  Sys.rename tmp path;
  Pta_ds.Stats.incr "store.writes";
  with_manifest_lock t (fun () ->
      Manifest.add (manifest t)
        {
          Manifest.stage;
          key;
          file = entry_file ~stage ~key;
          bytes = Buffer.length b;
          created = Unix.gettimeofday ();
          label;
        })

let miss ~stage =
  Pta_ds.Stats.incr "store.misses";
  Pta_ds.Stats.incr ("store.miss." ^ stage);
  None

let load t ~stage ~key decode =
  let path = entry_path t ~stage ~key in
  if not (Sys.file_exists path) then miss ~stage
  else
    let decoded () =
      match parse_frame (read_file path) with
      | stage', key', payload when stage' = stage && key' = key ->
        Some (decode payload)
      | _ -> None
    in
    match decoded () with
    | Some v ->
      Pta_ds.Stats.incr "store.hits";
      Pta_ds.Stats.incr ("store.hit." ^ stage);
      Some v
    | None | (exception Codec.Corrupt _) | (exception Sys_error _) ->
      (* corrupt, truncated, version-skewed, mislabelled or undecodable:
         reclaim and recompute rather than trust it *)
      Pta_ds.Stats.incr "store.corrupt";
      (try Sys.remove path with Sys_error _ -> ());
      with_manifest_lock t (fun () ->
          Manifest.remove (manifest t) (fun e ->
              e.Manifest.stage = stage && e.Manifest.key = key));
      miss ~stage

let ls t =
  List.sort
    (fun a b -> compare a.Manifest.created b.Manifest.created)
    (Manifest.load (manifest t))

let entry_files t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bin")
  |> List.sort compare

(* Temp files younger than this are possibly a *live* writer's in-flight
   frame (a resident daemon saving while another process runs gc); only
   older ones are safely attributable to a crashed writer. *)
let tmp_reclaim_age = 60.

let gc t ~kept ~removed =
  (* stale temp files are abandoned writes (a crashed or killed writer
     mid-publication); they were never visible to readers, reclaim them —
     but never a fresh one some live process is still streaming into *)
  let now = Unix.gettimeofday () in
  Sys.readdir t.dir |> Array.to_list
  |> List.filter is_tmp_file
  |> List.iter (fun f ->
         let path = Filename.concat t.dir f in
         match Unix.stat path with
         | exception Unix.Unix_error _ -> ()
         | st ->
           if now -. st.Unix.st_mtime > tmp_reclaim_age then begin
             (try Sys.remove path with Sys_error _ -> ());
             incr removed
           end);
  let valid = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let path = Filename.concat t.dir f in
      match parse_frame (read_file path) with
      | stage, key, payload when entry_file ~stage ~key = f ->
        Hashtbl.replace valid f (stage, key, String.length payload);
        incr kept
      | _ | (exception Codec.Corrupt _) | (exception Sys_error _) ->
        (try Sys.remove path with Sys_error _ -> ());
        incr removed)
    (entry_files t);
  (* Reconcile the index with what survived on disk, reading it under the
     lock: a concurrent writer may have published (frame, then index line)
     since the scan above, and its line must survive this rewrite — so an
     entry is dropped only when its frame is gone, not merely unscanned. *)
  with_manifest_lock t (fun () ->
      let kept_entries =
        List.filter
          (fun e -> Sys.file_exists (Filename.concat t.dir e.Manifest.file))
          (Manifest.load (manifest t))
      in
      let known = List.map (fun e -> e.Manifest.file) kept_entries in
      let recovered =
        Hashtbl.fold
          (fun f (stage, key, _) acc ->
            if List.mem f known then acc
            else
              {
                Manifest.stage;
                key;
                file = f;
                bytes = (Unix.stat (Filename.concat t.dir f)).Unix.st_size;
                created = (Unix.stat (Filename.concat t.dir f)).Unix.st_mtime;
                label = "";
              }
              :: acc)
          valid []
      in
      Manifest.save (manifest t) (kept_entries @ recovered))

let clear t =
  let files = entry_files t in
  List.iter (fun f -> try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ()) files;
  with_manifest_lock t (fun () ->
      try Sys.remove (manifest t) with Sys_error _ -> ());
  List.length files
