(* Durable artifact IO for the WACO pipeline.

   Every artifact the pipeline stakes hours of work on (model dumps, dataset
   corpora, HNSW index snapshots, training checkpoints) goes through two
   defenses here:

   - *atomic writes*: content is materialized in full, written to a temp file
     in the destination directory, flushed (fsync when the OS grants it) and
     [Sys.rename]d over the target, so a crash at any point leaves either the
     previous complete file or no file — never a half-written one;
   - *a checksummed envelope*: a one-line versioned header carrying the
     artifact kind, payload byte count and CRC32, so silent corruption that
     bypasses atomicity (disk rot, concurrent writers, hand editing) is a
     typed [Load_error], never a garbage load.

   [Faults] hooks sit on the write path so the test harness can crash or
   corrupt every artifact deterministically. *)

module Faults = Faults

(* --- clocks --- *)

(* Every deadline and elapsed-time computation in this codebase must run on
   monotonic time: the wall clock steps (NTP, a manual `date`), and a step
   blows every in-flight deadline or silently disables timeout reapers.
   CLOCK_MONOTONIC comes from the bechamel C stub (clock_gettime, in
   nanoseconds); on a platform where the stub reports nothing we fall back
   to a monotonicized wall clock — gettimeofday clamped to never run
   backward, which survives a step with at worst a frozen interval. *)
let mono_now =
  let last = Atomic.make neg_infinity in
  let rec clamp t =
    let prev = Atomic.get last in
    if t <= prev then prev
    else if Atomic.compare_and_set last prev t then t
    else clamp t
  in
  fun () ->
    let ns = Monotonic_clock.now () in
    if Int64.compare ns 0L > 0 then Int64.to_float ns /. 1e9
    else clamp (Unix.gettimeofday ())

(* The wall clock, for human-facing timestamps only (e.g. the serving
   daemon's "started" stat).  Routed through a fault hook so the chaos
   harness can step it and prove nothing load-bearing reads it. *)
let wall_now () = Unix.gettimeofday () +. Faults.wall_skew ()

(* --- typed load failures --- *)

type load_error =
  | Missing of { file : string; reason : string }
  | Not_an_artifact of { file : string }
  | Truncated of { file : string; expected_bytes : int; got_bytes : int }
  | Bad_checksum of { file : string; expected : string; actual : string }
  | Version_mismatch of { file : string; found : int; expected : int }
  | Wrong_kind of { file : string; found : string; expected : string }
  | Malformed of { file : string; reason : string }

exception Load_error of load_error

let load_error_file = function
  | Missing { file; _ }
  | Not_an_artifact { file }
  | Truncated { file; _ }
  | Bad_checksum { file; _ }
  | Version_mismatch { file; _ }
  | Wrong_kind { file; _ }
  | Malformed { file; _ } -> file

let load_error_to_string = function
  | Missing { file; reason } -> Printf.sprintf "%s: %s" file reason
  | Not_an_artifact { file } ->
      Printf.sprintf "%s: not a WACO artifact (no envelope header)" file
  | Truncated { file; expected_bytes; got_bytes } ->
      Printf.sprintf "%s: truncated payload (%d of %d bytes)" file got_bytes
        expected_bytes
  | Bad_checksum { file; expected; actual } ->
      Printf.sprintf "%s: checksum mismatch (header %s, payload %s)" file expected
        actual
  | Version_mismatch { file; found; expected } ->
      Printf.sprintf "%s: envelope version %d (this build reads %d)" file found
        expected
  | Wrong_kind { file; found; expected } ->
      Printf.sprintf "%s: artifact kind %S (expected %S)" file found expected
  | Malformed { file; reason } -> Printf.sprintf "%s: %s" file reason

let () =
  Printexc.register_printer (function
    | Load_error e -> Some ("Robust.Load_error: " ^ load_error_to_string e)
    | _ -> None)

(* --- CRC32 (IEEE 802.3 polynomial, the zlib/cksum convention) --- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let crc32_hex s = Printf.sprintf "%08x" (crc32 s)

(* --- filesystem primitives --- *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> () (* lost a creation race *)
  end

let write_atomic_string path content =
  Faults.guard_write (path ^ ":open");
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Hashtbl.hash (path, Unix.gettimeofday ()) land 0xFFFFFF)
  in
  let oc = open_out_bin tmp in
  (try
     Faults.guard_write (path ^ ":write");
     output_string oc (Faults.mangle content);
     flush oc;
     (* fsync is the "ish" in fsync-ish: some filesystems refuse it on
        regular files; flushed-then-renamed is still the best we can do. *)
     (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (try Faults.guard_write (path ^ ":rename")
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let write_atomic path fill =
  let buf = Buffer.create 4096 in
  fill buf;
  write_atomic_string path (Buffer.contents buf)

let read_file path =
  match open_in_bin path with
  | exception Sys_error reason -> Error (Missing { file = path; reason })
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | contents -> Ok contents
      | exception Sys_error reason -> Error (Missing { file = path; reason })
      | exception End_of_file ->
          Error (Malformed { file = path; reason = "file shrank while reading" }))

(* --- the artifact envelope --- *)

let magic = "%%WACO-ARTIFACT"
let artifact_version = 1 (* the envelope version this build writes and reads *)

module Kind = struct
  let model = "waco-model"
  let index = "waco-hnsw-index"
  let checkpoint = "waco-checkpoint"
  let cache = "waco-serve-cache"
end

let write_artifact ~kind ?(version = artifact_version) path payload =
  if String.contains kind ' ' then invalid_arg "Robust.write_artifact: kind with space";
  let header =
    Printf.sprintf "%s v%d kind=%s bytes=%d crc32=%s\n" magic version kind
      (String.length payload) (crc32_hex payload)
  in
  write_atomic_string path (header ^ payload)

let field ~prefix tok =
  if String.length tok > String.length prefix
     && String.sub tok 0 (String.length prefix) = prefix
  then Some (String.sub tok (String.length prefix)
               (String.length tok - String.length prefix))
  else None

let read_artifact ?expected_kind path =
  match read_file path with
  | Error e -> Error e
  | Ok contents -> (
      if not (String.starts_with ~prefix:magic contents) then
        Error (Not_an_artifact { file = path })
      else
        match String.index_opt contents '\n' with
        | None ->
            Error (Malformed { file = path; reason = "unterminated envelope header" })
        | Some nl -> (
            let header = String.sub contents 0 nl in
            let payload =
              String.sub contents (nl + 1) (String.length contents - nl - 1)
            in
            match String.split_on_char ' ' header with
            | [ _magic; version_tok; kind_tok; bytes_tok; crc_tok ] -> (
                let version =
                  match field ~prefix:"v" version_tok with
                  | Some v -> int_of_string_opt v
                  | None -> None
                in
                let kind = field ~prefix:"kind=" kind_tok in
                let bytes =
                  match field ~prefix:"bytes=" bytes_tok with
                  | Some b -> int_of_string_opt b
                  | None -> None
                in
                let crc = field ~prefix:"crc32=" crc_tok in
                match (version, kind, bytes, crc) with
                | Some version, Some kind, Some bytes, Some crc ->
                    if version <> artifact_version then
                      Error
                        (Version_mismatch
                           { file = path; found = version; expected = artifact_version })
                    else if
                      match expected_kind with
                      | Some k -> k <> kind
                      | None -> false
                    then
                      Error
                        (Wrong_kind
                           {
                             file = path;
                             found = kind;
                             expected = Option.get expected_kind;
                           })
                    else if String.length payload < bytes then
                      Error
                        (Truncated
                           {
                             file = path;
                             expected_bytes = bytes;
                             got_bytes = String.length payload;
                           })
                    else if String.length payload > bytes then
                      Error
                        (Malformed
                           {
                             file = path;
                             reason =
                               Printf.sprintf
                                 "trailing garbage: %d bytes past the declared %d"
                                 (String.length payload - bytes)
                                 bytes;
                           })
                    else
                      let actual = crc32_hex payload in
                      if not (String.equal actual crc) then
                        Error
                          (Bad_checksum { file = path; expected = crc; actual })
                      else Ok payload
                | _ ->
                    Error
                      (Malformed
                         { file = path; reason = "unparseable envelope header fields" }))
            | _ ->
                Error
                  (Malformed
                     { file = path; reason = "malformed envelope header" })))

let read_artifact_exn ?expected_kind path =
  match read_artifact ?expected_kind path with
  | Ok payload -> payload
  | Error e -> raise (Load_error e)

(* Payload lines, without a trailing empty fragment from a final newline. *)
let lines payload =
  match String.split_on_char '\n' payload with
  | [] -> [||]
  | parts ->
      let arr = Array.of_list parts in
      let n = Array.length arr in
      if n > 0 && arr.(n - 1) = "" then Array.sub arr 0 (n - 1) else arr

(* --- append-only journals --- *)

(* Each record goes through one write point and is flushed on its own, so
   a crash costs at most the record being written; the reader tells such a
   torn tail (no final newline) apart from damage in place. *)
module Journal = struct
  let append ?header ?(truncate = false) path fill =
    let fresh = truncate || not (Sys.file_exists path) in
    let flags =
      [ Open_wronly; Open_append; Open_creat ]
      @ if truncate then [ Open_trunc ] else []
    in
    let oc = open_out_gen flags 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        (match header with
        | Some h when fresh -> output_string oc h
        | _ -> ());
        fill (fun record ->
            Faults.guard_write (path ^ ":append");
            output_string oc (Faults.mangle record);
            flush oc);
        flush oc;
        try Unix.fsync (Unix.descr_of_out_channel oc)
        with Unix.Unix_error _ -> ())

  let split contents =
    let n = String.length contents in
    (lines contents, n > 0 && contents.[n - 1] <> '\n')
end

(* --- bounded retry with capped exponential backoff and jitter --- *)

(* Deterministic jitter: a seed+attempt hash mapped to [0, 1).  Seedable and
   clock-free, so armed [Faults] sweeps replay exactly, yet two retry loops
   with different seeds desynchronize instead of hammering in lockstep. *)
let jitter_unit ~seed ~attempt =
  (* One round of splitmix-style integer mixing over (seed, attempt). *)
  let z = (seed * 0x9E3779B9) lxor (attempt * 0x85EBCA6B) in
  let z = (z lxor (z lsr 15)) * 0x2545F491 in
  let z = z lxor (z lsr 13) in
  float_of_int (z land 0xFFFFFF) /. float_of_int 0x1000000

let backoff_delay ?(base_s = 0.01) ?(max_s = 2.0) ?(seed = 0) ~attempt () =
  if attempt < 1 then invalid_arg "Robust.backoff_delay: attempt must be >= 1";
  let exp = base_s *. (2.0 ** float_of_int (attempt - 1)) in
  let capped = Float.min max_s exp in
  (* Jitter shrinks the delay (never extends it), so a capped schedule still
     respects its cap and a budgeted loop never over-sleeps. *)
  capped *. (1.0 -. (0.5 *. jitter_unit ~seed ~attempt))

(* Exponential from [backoff_s] under the default 2 s cap, with a
   label-derived jitter seed: deterministic for a given label (the fault
   sweeps replay exactly), desynchronized across different call sites. *)
let with_retry ?(attempts = 3) ?(backoff_s = 0.01) ?budget_s ?on_retry ~label f =
  let attempts = max 1 attempts in
  let seed = Hashtbl.hash label in
  (* Elapsed time, so monotonic: a wall-clock step must not void (or
     extend) the retry budget. *)
  let start = mono_now () in
  let over_budget () =
    match budget_s with
    | Some b -> mono_now () -. start >= b
    | None -> false
  in
  let rec go attempt =
    match f () with
    | v -> Ok v
    | exception (Faults.Injected _ as crash) -> raise crash
    | exception e ->
        let msg = Printexc.to_string e in
        if attempt >= attempts then
          Error (Printf.sprintf "%s: gave up after %d attempt(s): %s" label attempt msg)
        else if over_budget () then
          Error
            (Printf.sprintf "%s: retry budget exhausted after %d attempt(s): %s"
               label attempt msg)
        else begin
          (match on_retry with Some f -> f attempt msg | None -> ());
          let delay = backoff_delay ~base_s:backoff_s ~seed ~attempt () in
          if delay > 0.0 then Unix.sleepf delay;
          go (attempt + 1)
        end
  in
  go 1
