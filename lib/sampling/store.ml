(* A checkpoint is identified by the digest of its encoded (DSNP) bytes,
   so equal snapshots share one entry no matter how many windows start from
   them.  The store is an in-memory table with an optional on-disk spill
   directory (one file per digest); disk reads are re-verified against the
   digest, so a tampered or bit-rotted cache entry is refused, never
   restored.  Every reader in the process shares each image by reference.

   All table operations are serialized by a per-store mutex, so any mix of
   domains may put/get concurrently.  Disk I/O happens outside the lock;
   a duplicate cold read loses nothing but the redundant read. *)

let digest bytes = Digest.to_hex (Digest.string bytes)

let is_digest s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let digest_codec =
  Buf.conv Fun.id
    (fun d ->
      if is_digest d then d else Buf.corrupt (Printf.sprintf "malformed digest %S" d))
    Buf.str

(* Spill accounting for the byte-budget LRU policy: one record per
   on-disk entry.  [m_use] is a store-local logical clock tick (bumped on
   every add/find touching the entry); [m_pins] protects in-flight entries
   from eviction. *)
type meta = { mutable m_bytes : int; mutable m_use : int; mutable m_pins : int }

type t = {
  table : (string, string) Hashtbl.t;
  dir : string option;
  lock : Mutex.t;
  (* byte budget for the spill directory (None = unbounded, the
     pre-existing behaviour); enforcement state below is only meaningful
     when both [dir] and [max_bytes] are set *)
  max_bytes : int option;
  bus : Darco_obs.Bus.t option;
  meta : (string, meta) Hashtbl.t;
  mutable clock : int;
  mutable disk_bytes : int;
}

let path_of dir d = Filename.concat dir (d ^ ".dsnp")

let create ?bus ?dir ?max_bytes () =
  Option.iter
    (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
    dir;
  let t =
    {
      table = Hashtbl.create 16;
      dir;
      lock = Mutex.create ();
      max_bytes;
      bus;
      meta = Hashtbl.create 16;
      clock = 0;
      disk_bytes = 0;
    }
  in
  (* Seed the accounting from whatever a previous process left in the
     spill directory, oldest mtime first, so recency survives restarts
     well enough for LRU to keep making sense. *)
  (match dir with
  | None -> ()
  | Some d ->
    Sys.readdir d
    |> Array.to_list
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".dsnp" then begin
             let dg = Filename.chop_suffix f ".dsnp" in
             if is_digest dg then
               match Unix.stat (Filename.concat d f) with
               | st -> Some (dg, st.Unix.st_size, st.Unix.st_mtime)
               | exception Unix.Unix_error _ -> None
             else None
           end
           else None)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
    |> List.iter (fun (dg, size, _) ->
           t.clock <- t.clock + 1;
           Hashtbl.replace t.meta dg
             { m_bytes = size; m_use = t.clock; m_pins = 0 };
           t.disk_bytes <- t.disk_bytes + size));
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Call under the lock.  Records (or refreshes) the spill accounting for
   [d] and marks it most recently used. *)
let touch_spilled t d bytes =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.meta d with
  | Some m ->
    t.disk_bytes <- t.disk_bytes + bytes - m.m_bytes;
    m.m_bytes <- bytes;
    m.m_use <- t.clock
  | None ->
    Hashtbl.replace t.meta d { m_bytes = bytes; m_use = t.clock; m_pins = 0 };
    t.disk_bytes <- t.disk_bytes + bytes

let pin t d =
  locked t (fun () ->
      match Hashtbl.find_opt t.meta d with
      | Some m -> m.m_pins <- m.m_pins + 1
      | None ->
        (* not spilled (or not yet): a pin must still stick so the entry
           cannot be evicted between its spill and its use *)
        Hashtbl.replace t.meta d { m_bytes = 0; m_use = 0; m_pins = 1 })

let unpin t d =
  locked t (fun () ->
      match Hashtbl.find_opt t.meta d with
      | Some m -> m.m_pins <- max 0 (m.m_pins - 1)
      | None -> ())

(* Evict least-recently-used unpinned spill entries (never [keep], the
   entry that triggered enforcement) until the directory fits the budget
   or nothing evictable remains — then over-budget is tolerated rather
   than dropping pinned or just-written content. *)
let enforce_budget t ~keep =
  match (t.dir, t.max_bytes) with
  | Some dir, Some budget ->
    let evicted =
      locked t (fun () ->
          let out = ref [] in
          let continue = ref true in
          while !continue && t.disk_bytes > budget do
            let victim =
              Hashtbl.fold
                (fun d (m : meta) acc ->
                  if d = keep || m.m_pins > 0 || m.m_bytes = 0 then acc
                  else
                    match acc with
                    | Some (_, (b : meta)) when b.m_use <= m.m_use -> acc
                    | _ -> Some (d, m))
                t.meta None
            in
            match victim with
            | None -> continue := false
            | Some (d, m) ->
              Hashtbl.remove t.table d;
              Hashtbl.remove t.meta d;
              t.disk_bytes <- t.disk_bytes - m.m_bytes;
              out := (d, m.m_bytes) :: !out
          done;
          List.rev !out)
    in
    List.iter
      (fun (d, bytes) ->
        (try Sys.remove (path_of dir d) with Sys_error _ -> ());
        Option.iter
          (fun b ->
            Darco_obs.Bus.emit b ~at:(Darco_obs.Clock.ticks ())
              (Darco_obs.Event.Store_evict { digest = d; bytes }))
          t.bus)
      evicted
  | _ -> ()

let write_whole path s =
  (* write-then-rename so a crashed writer never leaves a short file that
     would fail digest verification on every later read *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s);
  Sys.rename tmp path

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let add t bytes =
  let d = digest bytes in
  let fresh =
    locked t (fun () ->
        if Hashtbl.mem t.table d then false
        else begin
          Hashtbl.replace t.table d bytes;
          true
        end)
  in
  (match t.dir with
  | None -> ()
  | Some dir ->
    let path = path_of dir d in
    if fresh && not (Sys.file_exists path) then write_whole path bytes;
    locked t (fun () -> touch_spilled t d (String.length bytes));
    enforce_budget t ~keep:d);
  d

let find t d =
  match locked t (fun () -> Hashtbl.find_opt t.table d) with
  | Some bytes ->
    if t.dir <> None then
      locked t (fun () ->
          if Hashtbl.mem t.meta d then touch_spilled t d (String.length bytes));
    Some bytes
  | None -> (
    match t.dir with
    | None -> None
    | Some dir -> (
      match read_whole (path_of dir d) with
      | exception Sys_error _ -> None
      | bytes ->
        if digest bytes <> d then
          Buf.corrupt
            (Printf.sprintf "checkpoint cache entry %s does not match its digest"
               d);
        (* a concurrent cold read of the same digest may have raced us
           here; either copy has the right content, last write wins *)
        locked t (fun () ->
            Hashtbl.replace t.table d bytes;
            touch_spilled t d (String.length bytes));
        Some bytes))

let mem t d = find t d <> None
let count t = locked t (fun () -> Hashtbl.length t.table)
let spilled_bytes t = locked t (fun () -> t.disk_bytes)
