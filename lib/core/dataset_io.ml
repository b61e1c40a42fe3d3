(* Dataset persistence: (matrix id, SuperSchedule, log runtime) tuples in a
   line-oriented text format, plus the matrices themselves as MatrixMarket
   files in a sibling directory.

   The paper's data collection ran for two weeks on 10 nodes; persisting
   tuples decouples the expensive collection from training, and lets corpora
   be merged across runs (`waco_cli collect` / `waco_cli train --data`).

   Format, one record per line:
     MATRIX <name> <relative .mtx path>
     TUPLE <matrix name> <log10 runtime> <schedule key-value encoding>
   The schedule is serialized field by field (not via [Superschedule.key],
   which is not designed to be parsed back).

   Durability: [save] writes the matrices first and tuples.txt last, via
   [Robust]'s atomic temp-file + rename, so a crash at any write point leaves
   either the previous complete corpus or no tuples.txt (a typed error at
   load).  [append] journals records append-only with a flush per record, so
   a crash costs at most the record being written; [load] recovers such a
   truncated tail — and a missing or unreadable referenced .mtx — by keeping
   every complete record and reporting the cut instead of failing the whole
   corpus. *)

open Sptensor
open Schedule

let serialize_schedule = Sched_io.serialize

exception Corrupt of string

(* Structural parsing is shared with the lint passes ([Sched_io]); the
   persistence layer keeps its historical strictness: a structurally valid
   but illegal schedule is still a corrupt record. *)
let parse_schedule (algo : Algorithm.t) (text : string) : Superschedule.t =
  match Sched_io.parse ~algo text with
  | Error e -> raise (Corrupt e)
  | Ok s ->
      Superschedule.validate s;
      s

let header_line (data : Dataset.t) =
  Printf.sprintf "# WACO dataset: algo=%s machine=%s\n"
    (Algorithm.name data.Dataset.algo)
    data.Dataset.machine.Machine_model.Machine.name

(* Write one sample's records: the .mtx (atomically, 2-D only) plus its
   MATRIX/TUPLE lines through [emit]. *)
let write_sample ~dir ~emit (sample : Dataset.sample) =
  let wl = sample.Dataset.wl in
  if Array.length wl.Machine_model.Workload.dims = 2 then begin
    let rows = wl.Machine_model.Workload.coords.(0)
    and cols = wl.Machine_model.Workload.coords.(1) in
    let m =
      Coo.of_triplet_array ~nrows:wl.Machine_model.Workload.dims.(0)
        ~ncols:wl.Machine_model.Workload.dims.(1)
        (Array.mapi (fun e v -> (rows.(e), cols.(e), v)) wl.Machine_model.Workload.vals)
    in
    let file = sample.Dataset.name ^ ".mtx" in
    Mmio.write_coo (Filename.concat dir file) m;
    emit (Printf.sprintf "MATRIX %s %s\n" sample.Dataset.name file)
  end;
  Array.iteri
    (fun i s ->
      emit
        (Printf.sprintf "TUPLE %s %.17g %s\n" sample.Dataset.name
           sample.Dataset.log_runtimes.(i) (serialize_schedule s)))
    sample.Dataset.schedules

(* Write a dataset's tuples (and matrices) under [dir].  The matrices land
   first; tuples.txt is renamed into place last, so it never names a matrix
   file that does not exist yet. *)
let save (data : Dataset.t) ~dir =
  Robust.mkdir_p dir;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header_line data);
  Array.iter
    (write_sample ~dir ~emit:(Buffer.add_string buf))
    (Array.append data.Dataset.train data.Dataset.valid);
  Robust.write_atomic_string (Filename.concat dir "tuples.txt") (Buffer.contents buf)

(* Append-only journaling for incremental collection (`waco collect
   --append`): each record is flushed as a whole line through
   [Robust.Journal], so a crash leaves at worst one truncated final line,
   which [load] recovers. *)
let append (data : Dataset.t) ~dir =
  Robust.mkdir_p dir;
  Robust.Journal.append ~header:(header_line data)
    (Filename.concat dir "tuples.txt")
    (fun emit ->
      Array.iter
        (write_sample ~dir ~emit)
        (Array.append data.Dataset.train data.Dataset.valid))

(* Load tuples saved by [save]/[append] back into a dataset (2-D matrices
   only).  [report] receives one line per recovered problem: a truncated
   final record (kept corpus, cut reported) or a missing/unreadable matrix
   file (that matrix and its tuples are skipped).  Corruption that is not a
   tail truncation — a malformed record in the middle of the journal — still
   raises [Corrupt]: it means the file was damaged in place, not cut short,
   and silently skipping interior records would misrepresent the corpus. *)
let load ~dir ~algo ~machine ~valid_fraction ?(report = fun _ -> ()) rng =
  let path = Filename.concat dir "tuples.txt" in
  let contents =
    match Robust.read_file path with
    | Ok c -> c
    | Error e -> raise (Robust.Load_error e)
  in
  (* A well-formed journal ends with '\n'; without it, the final line is a
     truncation suspect. *)
  let all_lines, torn = Robust.Journal.split contents in
  let n_records = Array.length all_lines in
  let matrices : (string, Coo.t) Hashtbl.t = Hashtbl.create 64 in
  let tuples : (string, (Superschedule.t * float) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let corrupt ~idx line reason =
    if torn && idx = n_records - 1 then
      report
        (Printf.sprintf "%s:%d: dropped truncated final record (%s): %S" path
           (idx + 1) reason line)
    else raise (Corrupt (Printf.sprintf "%s:%d: %s: %S" path (idx + 1) reason line))
  in
  for idx = 0 to n_records - 1 do
    let line = all_lines.(idx) in
    if String.length line > 0 && line.[0] <> '#' then begin
      match String.index_opt line ' ' with
      | None -> corrupt ~idx line "unrecognized record"
      | Some sp -> (
          let tag = String.sub line 0 sp in
          let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
          match tag with
          | "MATRIX" -> (
              match String.split_on_char ' ' rest with
              | [ name; file ] -> (
                  let mpath = Filename.concat dir file in
                  match Mmio.read_coo mpath with
                  | m -> Hashtbl.replace matrices name m
                  | exception Sys_error msg ->
                      report
                        (Printf.sprintf
                           "%s:%d: skipping matrix %s (file unreadable: %s)" path
                           (idx + 1) name msg)
                  | exception Mmio.Parse_error msg ->
                      report
                        (Printf.sprintf
                           "%s:%d: skipping matrix %s (corrupt .mtx: %s)" path
                           (idx + 1) name msg))
              | _ -> corrupt ~idx line "malformed MATRIX record")
          | "TUPLE" -> (
              match String.split_on_char ' ' rest with
              | name :: time :: sched -> (
                  match
                    ( float_of_string_opt time,
                      parse_schedule algo (String.concat " " sched) )
                  with
                  | Some time, s ->
                      let lst =
                        match Hashtbl.find_opt tuples name with
                        | Some l -> l
                        | None ->
                            let l = ref [] in
                            Hashtbl.add tuples name l;
                            l
                      in
                      lst := (s, time) :: !lst
                  | None, _ -> corrupt ~idx line "unparseable runtime"
                  | exception Corrupt reason ->
                      corrupt ~idx line ("unparseable schedule: " ^ reason)
                  | exception Invalid_argument reason ->
                      corrupt ~idx line ("illegal schedule: " ^ reason))
              | _ -> corrupt ~idx line "malformed TUPLE record")
          | _ -> corrupt ~idx line "unrecognized record tag")
    end
  done;
  let samples =
    Hashtbl.fold
      (fun name m acc ->
        match Hashtbl.find_opt tuples name with
        | None | Some { contents = [] } -> acc
        | Some { contents = pairs } ->
            let wl = Machine_model.Workload.of_coo ~id:name m in
            let input = Extractor.input_of_coo ~id:name m in
            let schedules = Array.of_list (List.map fst pairs) in
            let log_runtimes = Array.of_list (List.map snd pairs) in
            let n = Array.length schedules in
            let valid_pairs =
              Array.init
                (min 32 (max 1 (n / 2)))
                (fun _ ->
                  let a = Rng.int rng n and b = Rng.int rng n in
                  (a, if b = a then (b + 1) mod n else b))
            in
            { Dataset.name; wl; input; schedules; log_runtimes; valid_pairs } :: acc)
      matrices []
  in
  let train, valid = Dataset.split_train_valid rng samples ~valid_fraction in
  { Dataset.algo; kernel = Kernel.of_algo algo; machine; train; valid }
