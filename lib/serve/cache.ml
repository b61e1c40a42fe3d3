(* The daemon's schedule cache: fingerprint key -> chosen schedule, LRU
   bounded in memory, persisted through the [Robust] artifact envelope so a
   restarted daemon is warm.

   Consistency: a cached answer is only valid under the exact model weights,
   search index and machine model it was computed with, so the artifact
   header carries all three identities; a snapshot whose stamps disagree
   with the loading daemon's is discarded wholesale (reported as
   [`Invalidated]), never partially reused.

   Recency is a monotonic tick per entry.  Persisted snapshots keep the
   ticks, so a warm restart resumes with the same eviction order.  Eviction
   scans for the minimum tick — O(capacity), which at the bounded capacities
   the daemon uses (hundreds) is noise next to one model forward.

   Durability is a snapshot plus an append-only journal ([<file>.journal]).
   [save] writes the snapshot; [persist] appends one record holding every
   change since the previous persist and fsyncs it, compacting (snapshot,
   then a fresh journal) on the first persist and whenever the journal
   outgrows twice the snapshot.  The journal's first record names the
   snapshot it extends by the CRC of the snapshot's payload. *)

type entry = {
  schedule : string;  (* dataset-encoded SuperSchedule *)
  predicted : float;
  measured : float;
  degraded : bool;
}

type slot = { entry : entry; mutable tick : int }

(* What happened to a key since the last persist: only its recency moved
   ([find]), or it was inserted ([add]). *)
type change = Touched | Inserted

(* The journal this cache appends to, once a compaction started it. *)
type journal = {
  snapshot : string;  (* the snapshot path; the journal is its sibling *)
  snapshot_bytes : int;  (* payload bytes of that snapshot *)
  mutable bytes : int;  (* journal bytes written so far *)
}

type t = {
  capacity : int;
  model_digest : string;
  index_digest : string;
  machine : string;
  table : (string, slot) Hashtbl.t;
  mutable clock : int;
  mutable evictions : int;
  changes : (string, change) Hashtbl.t;
      (* live keys changed since the last persist; filled only while a
         journal is attached, so never larger than [capacity] *)
  mutable journal : journal option;
  mutable compactions : int;
}

let create ?(capacity = 512) ~model_digest ~index_digest ~machine () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  List.iter
    (fun (what, s) ->
      if String.exists (fun c -> c = ' ' || c = '\n') s then
        invalid_arg ("Cache.create: " ^ what ^ " with whitespace"))
    [ ("model_digest", model_digest); ("index_digest", index_digest);
      ("machine", machine) ];
  {
    capacity;
    model_digest;
    index_digest;
    machine;
    table = Hashtbl.create (2 * capacity);
    clock = 0;
    evictions = 0;
    changes = Hashtbl.create 16;
    journal = None;
    compactions = 0;
  }

let size t = Hashtbl.length t.table
let capacity t = t.capacity
let evictions t = t.evictions
let compactions t = t.compactions

let journal_bytes t =
  match t.journal with Some j -> j.bytes | None -> 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some slot ->
      slot.tick <- tick t;
      if Option.is_some t.journal && not (Hashtbl.mem t.changes key) then
        Hashtbl.replace t.changes key Touched;
      Some slot.entry
  | None -> None

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k slot ->
      match !victim with
      | Some (_, best) when slot.tick >= best -> ()
      | _ -> victim := Some (k, slot.tick))
    t.table;
  match !victim with
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      Hashtbl.remove t.changes k;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t key entry =
  if String.exists (fun c -> c = ' ' || c = '\n' || c = '\t') key then
    invalid_arg "Cache.add: key with whitespace";
  if String.contains entry.schedule '\n' || String.contains entry.schedule ' '
  then invalid_arg "Cache.add: schedule with whitespace";
  (match Hashtbl.find_opt t.table key with
  | Some _ -> Hashtbl.remove t.table key
  | None -> if Hashtbl.length t.table >= t.capacity then evict_lru t);
  Hashtbl.add t.table key { entry; tick = tick t };
  if Option.is_some t.journal then Hashtbl.replace t.changes key Inserted

(* Entries in ascending tick order: the canonical serialization (load+save
   roundtrips bytes) and the replay order that rebuilds identical recency. *)
let sorted_slots t =
  let all = Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.table [] in
  List.sort (fun (_, a) (_, b) -> Int.compare a.tick b.tick) all

(* --- persistence --- *)

(* One entry as snapshot line and journal item alike:
   [E tick key predicted measured degraded schedule]. *)
let add_entry buf k slot =
  Printf.bprintf buf "E %d %s %.17g %.17g %d %s" slot.tick k
    slot.entry.predicted slot.entry.measured
    (if slot.entry.degraded then 1 else 0)
    slot.entry.schedule

let journal_path path = path ^ ".journal"
let journal_header crc = Printf.sprintf "WACO-CACHE-JOURNAL snapshot=%s\n" crc

(* Stop journaling: the next [persist] compacts. *)
let detach t =
  t.journal <- None;
  Hashtbl.clear t.changes

let snapshot_payload t =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "CACHE model=%s index=%s machine=%s entries=%d\n"
    t.model_digest t.index_digest t.machine (Hashtbl.length t.table);
  List.iter
    (fun (k, slot) ->
      add_entry buf k slot;
      Buffer.add_char buf '\n')
    (sorted_slots t);
  Buffer.contents buf

let save t path =
  (* A snapshot rewritten under an attached journal leaves that journal
     naming the old snapshot: stop appending to it. *)
  (match t.journal with Some j when j.snapshot = path -> detach t | _ -> ());
  Robust.write_artifact ~kind:Robust.Kind.cache path (snapshot_payload t)

(* Rewrite the snapshot, then start a fresh journal naming it.  A crash
   between the two leaves the old journal, which names the old snapshot
   and is therefore ignored at load; the new snapshot already holds its
   records. *)
let compact t path =
  detach t;
  let payload = snapshot_payload t in
  Robust.write_artifact ~kind:Robust.Kind.cache path payload;
  let header = journal_header (Robust.crc32_hex payload) in
  Robust.Journal.append ~truncate:true (journal_path path)
    (fun emit -> emit header);
  t.journal <-
    Some
      {
        snapshot = path;
        snapshot_bytes = String.length payload;
        bytes = String.length header;
      };
  t.compactions <- t.compactions + 1

(* The journal record for the changes since the last persist: one line,
   [<crc32 of body> <body>], whose body lists a [T key tick] item per
   touched key, then an [E ...] item per inserted key, each group in tick
   order.  One record per persist makes the persist atomic: a torn record
   is dropped whole at load. *)
let journal_record t =
  let items =
    Hashtbl.fold
      (fun k change acc -> (change, (Hashtbl.find t.table k).tick, k) :: acc)
      t.changes []
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (change, tk, k) ->
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      match change with
      | Touched -> Printf.bprintf buf "T %s %d" k tk
      | Inserted -> add_entry buf k (Hashtbl.find t.table k))
    (List.sort compare items);
  let body = Buffer.contents buf in
  Printf.sprintf "%s %s\n" (Robust.crc32_hex body) body

let persist t path =
  match t.journal with
  | Some j when j.snapshot = path && j.bytes <= 2 * j.snapshot_bytes ->
      if Hashtbl.length t.changes > 0 then begin
        let record = journal_record t in
        (try
           Robust.Journal.append (journal_path path) (fun emit -> emit record)
         with e ->
           (* The journal may now end in a torn record: never append
              after it. *)
           detach t;
           raise e);
        Hashtbl.clear t.changes;
        j.bytes <- j.bytes + String.length record
      end
  | _ -> compact t path

type loaded = { cache : t; status : [ `Warm of int | `Invalidated of string ] }

(* Namespace check for kernel-partitioned caches: with [namespaces], every
   persisted key must carry a [<ns>/] prefix from the list.  A key without
   one comes from a pre-kernel snapshot whose entries cannot be attributed
   to any kernel, so the snapshot is discarded wholesale — same policy as a
   digest-stamp mismatch, never a partial reuse. *)
let missing_namespace ~namespaces key =
  match namespaces with
  | None -> false
  | Some nss ->
      not
        (List.exists
           (fun ns -> String.starts_with ~prefix:(ns ^ "/") key)
           nss)

(* The fields after an [E] tag. *)
let parse_entry = function
  | [ tick_s; key; pred_s; meas_s; deg_s; sched ]
    when deg_s = "0" || deg_s = "1" -> (
      match
        ( int_of_string_opt tick_s,
          float_of_string_opt pred_s,
          float_of_string_opt meas_s )
      with
      | Some tick, Some predicted, Some measured ->
          Some
            ( key,
              {
                entry = { schedule = sched; predicted; measured; degraded = deg_s = "1" };
                tick;
              } )
      | _ -> None)
  | _ -> None

exception Damaged of string * string  (* file, reason *)
exception Orphan of string  (* a key outside every namespace *)

(* Upsert one [E] item, given the fields after its tag. *)
let replay_entry ~namespaces ~damaged c fields =
  (match fields with
  | [ _; key; _; _; _; _ ] when missing_namespace ~namespaces key ->
      raise (Orphan key)
  | _ -> ());
  match parse_entry fields with
  | Some (key, slot) -> Hashtbl.replace c.table key slot
  | None -> damaged ()

let replay_snapshot ~namespaces c path lines =
  Array.iteri
    (fun li line ->
      let damaged what () =
        raise
          (Damaged (path, Printf.sprintf "%s at payload line %d" what (li + 1)))
      in
      if li > 0 then
        match String.split_on_char ' ' line with
        | "E" :: fields ->
            replay_entry ~namespaces c fields
              ~damaged:(damaged "unparseable cache entry")
        | _ -> damaged "malformed cache record" ())
    lines

(* Replay the journal over the snapshot's entries in [c].  Records upsert
   entries and move ticks; eviction is left to the final [trim]. *)
let replay_journal ~namespaces ~snapshot_crc c jpath =
  let contents =
    match Robust.read_file jpath with
    | Ok contents -> contents
    | Error e -> raise (Robust.Load_error e)
  in
  let records, torn = Robust.Journal.split contents in
  let n = Array.length records in
  (* An empty or torn header, or one naming another snapshot (a crash
     between snapshot rename and journal reset): nothing to replay. *)
  if n > 1 && records.(0) ^ "\n" = journal_header snapshot_crc then
    for i = 1 to n - 1 do
      let damaged what () =
        raise
          (Damaged (jpath, Printf.sprintf "%s at journal line %d" what (i + 1)))
      in
      let record = records.(i) in
      let body =
        match String.index_opt record ' ' with
        | Some 8 ->
            let body = String.sub record 9 (String.length record - 9) in
            if Robust.crc32_hex body = String.sub record 0 8 then Some body
            else None
        | _ -> None
      in
      match body with
      | None when torn && i = n - 1 -> () (* a crash's torn final record *)
      | None -> damaged "journal record fails its checksum" ()
      | Some body ->
          let rec go = function
            | [] -> ()
            | "T" :: key :: tick_s :: rest -> (
                match
                  (Hashtbl.find_opt c.table key, int_of_string_opt tick_s)
                with
                | Some slot, Some tick ->
                    slot.tick <- tick;
                    go rest
                | _ -> damaged ("bad touch of " ^ key) ())
            | "E" :: a :: b :: c' :: d :: e :: f :: rest ->
                replay_entry ~namespaces c [ a; b; c'; d; e; f ]
                  ~damaged:(damaged "unparseable journal entry");
                go rest
            | _ -> damaged "malformed journal item" ()
          in
          go (String.split_on_char ' ' body)
    done

(* Keep the [capacity] most recent entries.  This reproduces the live
   cache's evictions exactly: an evicted entry was the oldest when it went,
   and everything that stayed or came later is newer still. *)
let trim t =
  let excess = Hashtbl.length t.table - t.capacity in
  if excess > 0 then
    List.iteri
      (fun i (k, _) -> if i < excess then Hashtbl.remove t.table k)
      (sorted_slots t);
  Hashtbl.iter (fun _ slot -> t.clock <- max t.clock slot.tick) t.table

let load ?(capacity = 512) ?namespaces ~model_digest ~index_digest ~machine path :
    (loaded, Robust.load_error) result =
  match Robust.read_artifact ~expected_kind:Robust.Kind.cache path with
  | Error e -> Error e
  | Ok payload -> (
      let malformed reason = Error (Robust.Malformed { file = path; reason }) in
      let lines = Robust.lines payload in
      if Array.length lines = 0 then malformed "empty cache snapshot"
      else
        let fields = String.split_on_char ' ' lines.(0) in
        match fields with
        | "CACHE" :: kvs -> (
            let get prefix =
              List.find_map
                (fun tok ->
                  if String.starts_with ~prefix:(prefix ^ "=") tok then
                    Some
                      (String.sub tok
                         (String.length prefix + 1)
                         (String.length tok - String.length prefix - 1))
                  else None)
                kvs
            in
            match (get "model", get "index", get "machine", get "entries") with
            | Some m, Some i, Some mc, Some n_s -> (
                match int_of_string_opt n_s with
                | None -> malformed ("bad entry count " ^ n_s)
                | Some n when n < 0 || n <> Array.length lines - 1 ->
                    malformed
                      (Printf.sprintf "header declares %s entries, snapshot has %d"
                         n_s
                         (Array.length lines - 1))
                | Some _ -> (
                    let fresh () =
                      create ~capacity ~model_digest ~index_digest ~machine ()
                    in
                    if m <> model_digest || i <> index_digest || mc <> machine
                    then
                      Ok
                        {
                          cache = fresh ();
                          status =
                            `Invalidated
                              (Printf.sprintf
                                 "snapshot stamped model=%s index=%s machine=%s, \
                                  daemon runs model=%s index=%s machine=%s"
                                 m i mc model_digest index_digest machine);
                        }
                    else
                      (* Replay the snapshot's entries, then the journal;
                         any structural damage aborts the whole load with a
                         typed error — a half-trusted cache is worse than a
                         cold one. *)
                      let c = fresh () in
                      let jpath = journal_path path in
                      match
                        replay_snapshot ~namespaces c path lines;
                        if Sys.file_exists jpath then
                          replay_journal ~namespaces
                            ~snapshot_crc:(Robust.crc32_hex payload) c jpath
                      with
                      | () ->
                          trim c;
                          Ok { cache = c; status = `Warm (size c) }
                      | exception Damaged (file, reason) ->
                          Error (Robust.Malformed { file; reason })
                      | exception Robust.Load_error e -> Error e
                      | exception Orphan key ->
                          (* Partially replayed entries are discarded with
                             the snapshot: hand back an empty cache. *)
                          Ok
                            {
                              cache = fresh ();
                              status =
                                `Invalidated
                                  (Printf.sprintf
                                     "entry %S carries no kernel namespace \
                                      (pre-kernel snapshot)" key);
                            }))
            | _ -> malformed "cache header missing model/index/machine/entries")
        | _ -> malformed ("missing CACHE header, got: " ^ lines.(0)))
