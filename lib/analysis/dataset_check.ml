(* Collected-dataset artifact pass (codes WACO-D00x).

   The paper's training corpus took two weeks of cluster time to collect;
   vetting tuples.txt before a multi-hour training run is much cheaper than
   discovering mid-epoch that a line is corrupt.  The pass re-reads the
   line format of [Dataset_io.save] leniently — one bad record is one
   diagnostic, not an aborted load — and re-emits schedule legality (and,
   when the matrix is loadable, performance) diagnostics anchored to the
   offending line. *)

open Schedule

let check (dir : string) : Diag.t list =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let tuples_path = Filename.concat dir "tuples.txt" in
  (match open_in tuples_path with
  | exception Sys_error msg ->
      add (Diag.error ~code:"WACO-D001" ~loc:tuples_path "%s" msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (* matrix name -> dims (None when the file failed to load) *)
          let matrices : (string, int array option) Hashtbl.t = Hashtbl.create 16 in
          let seen_tuples : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
          let algo = ref None in
          let header_seen = ref false in
          let lineno = ref 0 in
          (try
             while true do
               let line = input_line ic in
               incr lineno;
               let loc = Printf.sprintf "%s:%d" tuples_path !lineno in
               if String.length line = 0 then ()
               else if line.[0] = '#' then begin
                 if not !header_seen then begin
                   header_seen := true;
                   let tokens = String.split_on_char ' ' line in
                   let algo_tok =
                     List.find_opt
                       (fun t ->
                         String.length t > 5 && String.sub t 0 5 = "algo=")
                       tokens
                   in
                   match algo_tok with
                   | None ->
                       add
                         (Diag.warning ~code:"WACO-D002" ~loc
                            "dataset header does not declare an algorithm")
                   | Some tok -> (
                       let name = String.sub tok 5 (String.length tok - 5) in
                       match Algorithm.of_name name with
                       | Some a -> algo := Some a
                       | None ->
                           add
                             (Diag.warning ~code:"WACO-D002" ~loc
                                "unknown algorithm %S in dataset header" name))
                 end
               end
               else begin
                 match String.index_opt line ' ' with
                 | None ->
                     add
                       (Diag.error ~code:"WACO-D009" ~loc "unrecognized record %S" line)
                 | Some sp -> (
                     let tag = String.sub line 0 sp in
                     let rest =
                       String.sub line (sp + 1) (String.length line - sp - 1)
                     in
                     match tag with
                     | "MATRIX" -> (
                         match String.split_on_char ' ' rest with
                         | [ name; file ] -> (
                             let path = Filename.concat dir file in
                             if not (Sys.file_exists path) then begin
                               add
                                 (Diag.error ~code:"WACO-D003" ~loc
                                    "matrix file %s does not exist" file);
                               Hashtbl.replace matrices name None
                             end
                             else
                               match Sptensor.Mmio.read_coo path with
                               | m ->
                                   Hashtbl.replace matrices name
                                     (Some
                                        [|
                                          m.Sptensor.Coo.nrows; m.Sptensor.Coo.ncols;
                                        |])
                               | exception Sptensor.Mmio.Parse_error msg ->
                                   add
                                     (Diag.error ~code:"WACO-D004" ~loc
                                        "matrix %s unreadable: %s" file msg);
                                   Hashtbl.replace matrices name None
                               | exception Sys_error msg ->
                                   add
                                     (Diag.error ~code:"WACO-D004" ~loc
                                        "matrix %s unreadable: %s" file msg);
                                   Hashtbl.replace matrices name None)
                         | _ ->
                             add
                               (Diag.error ~code:"WACO-D009" ~loc
                                  "malformed MATRIX record %S" line))
                     | "TUPLE" -> (
                         match String.split_on_char ' ' rest with
                         | name :: time :: sched_parts -> (
                             (match float_of_string_opt time with
                             | Some t when Float.is_finite t -> ()
                             | _ ->
                                 add
                                   (Diag.error ~code:"WACO-D005" ~loc
                                      "bad runtime %S (want a finite log10 seconds)"
                                      time));
                             if (not (Hashtbl.mem matrices name))
                                && (match !algo with
                                   | Some a -> Algorithm.sparse_rank a = 2
                                   | None -> true)
                             then
                               add
                                 (Diag.hint ~code:"WACO-D008" ~loc
                                    "tuple references matrix %s with no MATRIX record above it"
                                    name);
                             let sched_text = String.concat " " sched_parts in
                             match !algo with
                             | None -> ()
                             | Some a -> (
                                 match Sched_io.parse ~algo:a sched_text with
                                 | Error e ->
                                     add
                                       (Diag.error ~code:"WACO-D006" ~loc
                                          "unparseable schedule: %s" e)
                                 | Ok s ->
                                     let key = Superschedule.key s in
                                     (match
                                        Hashtbl.find_opt seen_tuples (name, key)
                                      with
                                     | Some prev ->
                                         add
                                           (Diag.warning ~code:"WACO-D007" ~loc
                                              "duplicate tuple for matrix %s (same schedule at line %d)"
                                              name prev)
                                     | None ->
                                         Hashtbl.add seen_tuples (name, key) !lineno);
                                     let prefix = Printf.sprintf "%s:%d" tuples_path !lineno in
                                     List.iter
                                       (fun d -> add (Diag.relocate ~prefix d))
                                       (Superschedule.check s);
                                     (match Hashtbl.find_opt matrices name with
                                     | Some (Some dims) ->
                                         List.iter
                                           (fun d -> add (Diag.relocate ~prefix d))
                                           (Perf_check.check ~dims s)
                                     | _ -> ())))
                         | _ ->
                             add
                               (Diag.error ~code:"WACO-D009" ~loc
                                  "malformed TUPLE record %S" line))
                     | _ ->
                         add
                           (Diag.error ~code:"WACO-D009" ~loc
                              "unrecognized record tag %S" tag))
               end
             done
           with
          | End_of_file -> ()
          (* [open_in] on a directory only fails at the first read on some
             systems; fold that into the unreadable-dataset diagnostic. *)
          | Sys_error msg ->
              add (Diag.error ~code:"WACO-D001" ~loc:tuples_path "%s" msg))));
  List.rev !ds
