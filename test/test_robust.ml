(* Durability and fault-injection tests: the [Robust] layer's contract is
   that after a crash at ANY write point, loading an artifact yields either
   the previous complete artifact or a clean typed error — never garbage.
   The crash sweeps below prove it per artifact kind (model dump, dataset
   directory, training checkpoint, HNSW index snapshot) by arming a
   deterministic fail-at-nth-write fault at every point in turn. *)

open Sptensor
open Schedule
open Machine_model

let algo = Algorithm.Spmm 256
let machine = Machine.intel_like

(* --- tmp-dir helpers -------------------------------------------------- *)

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Robust.mkdir_p d;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- primitives ------------------------------------------------------- *)

let test_crc32 () =
  (* The IEEE/zlib check value. *)
  Alcotest.(check int) "crc32 check vector" 0xCBF43926 (Robust.crc32 "123456789");
  Alcotest.(check string) "hex" "cbf43926" (Robust.crc32_hex "123456789");
  Alcotest.(check int) "empty" 0 (Robust.crc32 "")

let test_mkdir_p () =
  let root = tmpdir "waco-mkdirp" in
  let deep = Filename.concat (Filename.concat root "a/b") "c" in
  Robust.mkdir_p deep;
  Alcotest.(check bool) "created" true (Sys.is_directory deep);
  (* idempotent *)
  Robust.mkdir_p deep;
  rm_rf root

let test_atomic_write () =
  let dir = tmpdir "waco-atomic" in
  let path = Filename.concat dir "f.txt" in
  Robust.write_atomic_string path "hello";
  Alcotest.(check string) "content" "hello" (read_raw path);
  Robust.write_atomic_string path "world";
  Alcotest.(check string) "replaced" "world" (read_raw path);
  (* no temp litter *)
  Alcotest.(check int) "only the target remains" 1 (Array.length (Sys.readdir dir));
  rm_rf dir

let test_with_retry () =
  (* two transient failures are absorbed within three attempts *)
  let n = ref 0 in
  let r =
    Robust.with_retry ~backoff_s:1e-4 ~label:"t" (fun () ->
        incr n;
        if !n < 3 then raise (Robust.Faults.Transient "hiccup") else !n)
  in
  Alcotest.(check (result int string)) "absorbed" (Ok 3) r;
  (* persistent failure exhausts the attempts *)
  let r2 =
    Robust.with_retry ~attempts:2 ~backoff_s:1e-4 ~label:"t" (fun () ->
        failwith "down")
  in
  Alcotest.(check bool) "exhausted" true (Result.is_error r2);
  (* an injected crash is never retried *)
  let calls = ref 0 in
  (match
     Robust.with_retry ~backoff_s:1e-4 ~label:"t" (fun () ->
         incr calls;
         raise (Robust.Faults.Injected "crash"))
   with
  | _ -> Alcotest.fail "Injected must escape with_retry"
  | exception Robust.Faults.Injected _ -> ());
  Alcotest.(check int) "crash not retried" 1 !calls

(* --- the envelope ----------------------------------------------------- *)

let err_name = function
  | Robust.Missing _ -> "missing"
  | Robust.Not_an_artifact _ -> "not_an_artifact"
  | Robust.Truncated _ -> "truncated"
  | Robust.Bad_checksum _ -> "bad_checksum"
  | Robust.Version_mismatch _ -> "version_mismatch"
  | Robust.Wrong_kind _ -> "wrong_kind"
  | Robust.Malformed _ -> "malformed"

let test_envelope_roundtrip () =
  let dir = tmpdir "waco-env" in
  let path = Filename.concat dir "a" in
  let payload = "line one\nline two\n\x00binary-ish\n" in
  Robust.write_artifact ~kind:Robust.Kind.model path payload;
  (match Robust.read_artifact ~expected_kind:Robust.Kind.model path with
  | Ok p -> Alcotest.(check string) "payload" payload p
  | Error e -> Alcotest.failf "roundtrip failed: %s" (Robust.load_error_to_string e));
  rm_rf dir

(* Table-driven tamper matrix: each row mangles a fresh valid artifact and
   names the exact typed error the reader must produce. *)
let test_tamper_table () =
  let dir = tmpdir "waco-tamper" in
  let payload = "some payload content, long enough to damage\n" in
  let fresh name = Filename.concat dir name in
  let cases =
    [
      ( "corrupt payload byte",
        (fun path ->
          Robust.write_artifact ~kind:Robust.Kind.model path payload;
          let raw = read_raw path in
          let b = Bytes.of_string raw in
          Bytes.set b (Bytes.length b - 2)
            (Char.chr (Char.code (Bytes.get b (Bytes.length b - 2)) lxor 0xFF));
          write_raw path (Bytes.to_string b)),
        "bad_checksum" );
      ( "truncated payload",
        (fun path ->
          Robust.write_artifact ~kind:Robust.Kind.model path payload;
          let raw = read_raw path in
          write_raw path (String.sub raw 0 (String.length raw - 7))),
        "truncated" );
      ( "wrong kind",
        (fun path -> Robust.write_artifact ~kind:Robust.Kind.index path payload),
        "wrong_kind" );
      ( "future version",
        (fun path ->
          Robust.write_artifact ~kind:Robust.Kind.model ~version:99 path payload),
        "version_mismatch" );
      ( "garbage file",
        (fun path -> write_raw path "this was never an artifact\n"),
        "not_an_artifact" );
      ("missing file", (fun _path -> ()), "missing");
    ]
  in
  List.iter
    (fun (label, prepare, expected) ->
      let path = fresh (String.map (fun c -> if c = ' ' then '_' else c) label) in
      prepare path;
      match Robust.read_artifact ~expected_kind:Robust.Kind.model path with
      | Ok _ -> Alcotest.failf "%s: tampered artifact verified" label
      | Error e -> Alcotest.(check string) label expected (err_name e))
    cases;
  rm_rf dir

let test_injected_corruption_detected () =
  (* The one-shot mangle hooks damage the blob on its way to disk; the
     reader must catch it through the checksum/byte-count. *)
  let dir = tmpdir "waco-mangle" in
  let path = Filename.concat dir "a" in
  let payload = String.concat "" (List.init 20 (fun i -> Printf.sprintf "row %d\n" i)) in
  Robust.write_artifact ~kind:Robust.Kind.model path payload;
  let blob_len = String.length (read_raw path) in
  Robust.Faults.reset ();
  Robust.Faults.arm_corrupt_byte (blob_len - 3);
  Robust.write_artifact ~kind:Robust.Kind.model path payload;
  Robust.Faults.reset ();
  (match Robust.read_artifact ~expected_kind:Robust.Kind.model path with
  | Ok _ -> Alcotest.fail "corrupted write verified"
  | Error e -> Alcotest.(check string) "corrupt" "bad_checksum" (err_name e));
  Robust.Faults.arm_truncate_at (blob_len - 9);
  Robust.write_artifact ~kind:Robust.Kind.model path payload;
  Robust.Faults.reset ();
  (match Robust.read_artifact ~expected_kind:Robust.Kind.model path with
  | Ok _ -> Alcotest.fail "truncated write verified"
  | Error e -> Alcotest.(check string) "truncated" "truncated" (err_name e));
  rm_rf dir

(* --- the crash sweep -------------------------------------------------- *)

(* Arm fail-at-nth-write for n = 1, 2, ... until [save] completes without
   the fault firing; after every injected crash, [check] must hold.  Returns
   the number of write points swept. *)
let crash_sweep ~max_points ~save ~check =
  Robust.Faults.reset ();
  let n = ref 1 in
  let finished = ref false in
  while not !finished do
    Robust.Faults.arm_fail_nth_write !n;
    (match save () with
    | () -> finished := true
    | exception Robust.Faults.Injected _ -> ());
    Robust.Faults.reset ();
    if not !finished then begin
      check !n;
      incr n;
      if !n > max_points then
        Alcotest.failf "crash sweep did not terminate within %d points" max_points
    end
  done;
  !n - 1

let small_matrix seed = Gen.uniform (Rng.create seed) ~nrows:48 ~ncols:48 ~nnz:220

let test_crash_sweep_model () =
  let model = Waco.Costmodel.create (Rng.create 11) algo in
  let m = small_matrix 1 in
  let input = Waco.Extractor.input_of_coo ~id:"sweep" m in
  let s = Space.sample (Rng.create 2) algo ~dims:[| 48; 48 |] in
  let dir = tmpdir "waco-model-sweep" in
  let path = Filename.concat dir "model.bin" in
  let fresh seed = Waco.Costmodel.create (Rng.create seed) algo in
  (* Phase 1: no previous artifact — a crash at any point must leave a typed
     error, never a half-written loadable file. *)
  let points =
    crash_sweep ~max_points:16
      ~save:(fun () -> Waco.Costmodel.save model path)
      ~check:(fun n ->
        let probe = fresh 99 in
        match Waco.Costmodel.load probe path with
        | () -> Alcotest.failf "crash %d left a loadable partial model" n
        | exception Robust.Load_error _ -> ())
  in
  Alcotest.(check int) "three write points per atomic save" 3 points;
  (* Phase 2: model A is on disk; crashes while saving model B must preserve
     A exactly. *)
  let expect_a = (Waco.Costmodel.predict model input [| s |]).(0) in
  let model_b = fresh 22 in
  let expect_b = (Waco.Costmodel.predict model_b input [| s |]).(0) in
  ignore
    (crash_sweep ~max_points:16
       ~save:(fun () -> Waco.Costmodel.save model_b path)
       ~check:(fun n ->
         let probe = fresh 99 in
         Waco.Costmodel.load probe path;
         Alcotest.(check (float 0.0))
           (Printf.sprintf "crash %d preserved the previous model" n)
           expect_a
           ((Waco.Costmodel.predict probe input [| s |]).(0))));
  (* The sweep's final iteration completed cleanly: B is now on disk. *)
  let probe = fresh 99 in
  Waco.Costmodel.load probe path;
  Alcotest.(check (float 0.0)) "clean save replaced the model" expect_b
    ((Waco.Costmodel.predict probe input [| s |]).(0));
  rm_rf dir

let mk_dataset seed names =
  let r = Rng.create seed in
  let mats =
    List.map (fun nm -> (nm, Gen.uniform r ~nrows:40 ~ncols:40 ~nnz:200)) names
  in
  Waco.Dataset.of_matrices r machine algo mats ~schedules_per_matrix:4
    ~valid_fraction:0.25

let test_crash_sweep_dataset () =
  let data_a = mk_dataset 1 [ "a0"; "a1" ] in
  let data_b = mk_dataset 2 [ "b0"; "b1" ] in
  let dir = tmpdir "waco-ds-sweep" in
  Waco.Dataset_io.save data_a ~dir;
  let count_a = Waco.Dataset.total_tuples data_a in
  ignore
    (crash_sweep ~max_points:32
       ~save:(fun () -> Waco.Dataset_io.save data_b ~dir)
       ~check:(fun n ->
         match
           Waco.Dataset_io.load ~dir ~algo ~machine ~valid_fraction:0.25
             (Rng.create 7)
         with
         | d ->
             Alcotest.(check int)
               (Printf.sprintf "crash %d preserved the previous corpus" n)
               count_a
               (Waco.Dataset.total_tuples d)
         | exception Robust.Load_error _ -> ()
         | exception Waco.Dataset_io.Corrupt _ ->
             Alcotest.failf "crash %d corrupted the corpus in place" n));
  let d =
    Waco.Dataset_io.load ~dir ~algo ~machine ~valid_fraction:0.25 (Rng.create 7)
  in
  Alcotest.(check int) "clean save replaced the corpus"
    (Waco.Dataset.total_tuples data_b)
    (Waco.Dataset.total_tuples d);
  rm_rf dir

let mk_train_model () = Waco.Costmodel.create (Rng.create 31) algo

let test_crash_sweep_checkpoint () =
  let data = mk_dataset 3 [ "c0"; "c1" ] in
  let dir = tmpdir "waco-ckpt-sweep" in
  let points =
    crash_sweep ~max_points:32
      ~save:(fun () ->
        let m = mk_train_model () in
        ignore
          (Waco.Trainer.train ~lr:1e-3
             ~checkpoint:{ Waco.Trainer.dir; every = 1 }
             (Rng.create 7) m data ~epochs:2))
      ~check:(fun n ->
        (* Whatever files a crash left behind must each either validate or
           raise the typed error — the resume scan depends on it. *)
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".ckpt" then begin
              let m = mk_train_model () in
              let adam = Nn.Adam.create ~lr:1e-3 (Waco.Costmodel.params m) in
              match
                Waco.Trainer.load_checkpoint (Filename.concat dir f) m adam
                  (Rng.create 1)
              with
              | _ -> ()
              | exception Robust.Load_error _ -> ()
              | exception e ->
                  Alcotest.failf "crash %d: checkpoint %s raised %s" n f
                    (Printexc.to_string e)
            end)
          (Sys.readdir dir))
  in
  Alcotest.(check int) "two epoch checkpoints, three points each" 6 points;
  rm_rf dir

(* --- checkpoint/resume ------------------------------------------------ *)

(* The acceptance test: kill training mid-run with an injected crash, resume
   from the newest valid checkpoint, and land on the same epoch count with
   the exact curve the uninterrupted run produces (the checkpoint restores
   the RNG state, so the resumed run IS the interrupted run). *)
let test_checkpoint_resume_determinism () =
  let data = mk_dataset 4 [ "d0"; "d1"; "d2" ] in
  let epochs = 3 in
  (* reference: uninterrupted *)
  let m_ref = mk_train_model () in
  let c_ref = Waco.Trainer.train ~lr:1e-3 (Rng.create 7) m_ref data ~epochs in
  (* interrupted: crash inside the epoch-2 checkpoint write (points 1-3 are
     epoch 1's checkpoint, 4-6 epoch 2's) *)
  let dir = tmpdir "waco-resume" in
  let m_int = mk_train_model () in
  Robust.Faults.reset ();
  Robust.Faults.arm_fail_nth_write 5;
  (match
     Waco.Trainer.train ~lr:1e-3
       ~checkpoint:{ Waco.Trainer.dir; every = 1 }
       (Rng.create 7) m_int data ~epochs
   with
  | _ -> Alcotest.fail "expected the injected crash to abort training"
  | exception Robust.Faults.Injected _ -> ());
  Robust.Faults.reset ();
  (* resume with a fresh model and a DIFFERENT rng seed: everything must
     come from the checkpoint *)
  let logs = ref [] in
  let m_res = mk_train_model () in
  let c_res =
    Waco.Trainer.train ~lr:1e-3
      ~log:(fun s -> logs := s :: !logs)
      ~checkpoint:{ Waco.Trainer.dir; every = 1 }
      ~resume:true (Rng.create 999) m_res data ~epochs
  in
  Alcotest.(check bool) "resume announced" true
    (List.exists
       (fun s ->
         String.length s >= 7 && String.sub s 0 7 = "resumed")
       !logs);
  Alcotest.(check (array int)) "same epoch count" c_ref.Waco.Trainer.epochs
    c_res.Waco.Trainer.epochs;
  Alcotest.(check (array (float 0.0))) "train loss curve identical"
    c_ref.Waco.Trainer.train_loss c_res.Waco.Trainer.train_loss;
  Alcotest.(check (array (float 0.0))) "valid loss curve identical"
    c_ref.Waco.Trainer.valid_loss c_res.Waco.Trainer.valid_loss;
  Alcotest.(check (array (float 0.0))) "valid acc curve identical"
    c_ref.Waco.Trainer.valid_acc c_res.Waco.Trainer.valid_acc;
  (* final parameters match the uninterrupted run bit for bit *)
  List.iter2
    (fun p q ->
      Alcotest.(check (array (float 0.0)))
        ("param " ^ p.Nn.Param.name)
        p.Nn.Param.data q.Nn.Param.data)
    (Waco.Costmodel.params m_ref)
    (Waco.Costmodel.params m_res);
  rm_rf dir

let test_resume_skips_corrupt_checkpoint () =
  let data = mk_dataset 5 [ "e0"; "e1" ] in
  let epochs = 2 in
  let dir = tmpdir "waco-skip" in
  let m1 = mk_train_model () in
  let c1 =
    Waco.Trainer.train ~lr:1e-3
      ~checkpoint:{ Waco.Trainer.dir; every = 1 }
      (Rng.create 7) m1 data ~epochs
  in
  (* a corrupt checkpoint that sorts newest *)
  write_raw (Filename.concat dir "ckpt-9999.ckpt") "total garbage\n";
  let logs = ref [] in
  let m2 = mk_train_model () in
  let c2 =
    Waco.Trainer.train ~lr:1e-3
      ~log:(fun s -> logs := s :: !logs)
      ~checkpoint:{ Waco.Trainer.dir; every = 1 }
      ~resume:true (Rng.create 999) m2 data ~epochs
  in
  Alcotest.(check bool) "warned about the corrupt checkpoint" true
    (List.exists
       (fun s ->
         List.exists
           (fun sub ->
             let ls = String.length s and lsub = String.length sub in
             let rec scan i = i + lsub <= ls && (String.sub s i lsub = sub || scan (i + 1)) in
             scan 0)
           [ "skipping invalid checkpoint" ])
       !logs);
  Alcotest.(check (array (float 0.0))) "resumed from the valid one"
    c1.Waco.Trainer.train_loss c2.Waco.Trainer.train_loss;
  rm_rf dir

(* Checkpoint recency must follow the parsed epoch number, not the file-name
   string: zero-padded "%04d" names widen at epoch 10000, and a descending
   string sort then ranks "ckpt-9999" above "ckpt-10000".  Re-label a real
   two-epoch run's checkpoints across that boundary and check the resume
   picks the numerically newest. *)
let test_resume_numeric_sort () =
  let data = mk_dataset 8 [ "g0"; "g1" ] in
  let dir = tmpdir "waco-numsort" in
  let m1 = mk_train_model () in
  ignore
    (Waco.Trainer.train ~lr:1e-3
       ~checkpoint:{ Waco.Trainer.dir; every = 1 }
       (Rng.create 7) m1 data ~epochs:2);
  let rename_ckpt e name =
    let src = Waco.Trainer.checkpoint_file dir e in
    write_raw (Filename.concat dir name) (read_raw src);
    Sys.remove src
  in
  rename_ckpt 1 "ckpt-9999.ckpt";
  rename_ckpt 2 "ckpt-10000.ckpt";
  let logs = ref [] in
  let m2 = mk_train_model () in
  ignore
    (Waco.Trainer.train ~lr:1e-3
       ~log:(fun s -> logs := s :: !logs)
       ~checkpoint:{ Waco.Trainer.dir; every = 1 }
       ~resume:true (Rng.create 999) m2 data ~epochs:2);
  Alcotest.(check bool) "resumed from the numerically newest checkpoint" true
    (List.exists
       (fun s ->
         String.starts_with ~prefix:"resumed" s
         &&
         let sub = "ckpt-10000.ckpt" in
         let ls = String.length s and lsub = String.length sub in
         let rec scan i = i + lsub <= ls && (String.sub s i lsub = sub || scan (i + 1)) in
         scan 0)
       !logs);
  rm_rf dir

let test_resume_empty_dir_starts_fresh () =
  let data = mk_dataset 6 [ "f0" ] in
  let dir = tmpdir "waco-fresh" in
  let logs = ref [] in
  let m = mk_train_model () in
  let c =
    Waco.Trainer.train ~lr:1e-3
      ~log:(fun s -> logs := s :: !logs)
      ~checkpoint:{ Waco.Trainer.dir; every = 1 }
      ~resume:true (Rng.create 7) m data ~epochs:1
  in
  Alcotest.(check int) "trained" 1 (Array.length c.Waco.Trainer.epochs);
  Alcotest.(check bool) "said so" true
    (List.exists
       (fun s -> String.length s >= 2 && String.sub s 0 2 = "no")
       !logs);
  rm_rf dir

(* --- corrupt-corpus recovery ------------------------------------------ *)

let test_dataset_truncated_tail_recovered () =
  let data = mk_dataset 7 [ "g0"; "g1" ] in
  let dir = tmpdir "waco-tail" in
  Waco.Dataset_io.save data ~dir;
  let count = Waco.Dataset.total_tuples data in
  let path = Filename.concat dir "tuples.txt" in
  let raw = read_raw path in
  (* cut the file mid-final-record: drop the trailing newline plus a chunk
     of the last TUPLE line *)
  write_raw path (String.sub raw 0 (String.length raw - 9));
  let reports = ref [] in
  let d =
    Waco.Dataset_io.load ~dir ~algo ~machine ~valid_fraction:0.25
      ~report:(fun s -> reports := s :: !reports)
      (Rng.create 7)
  in
  Alcotest.(check int) "kept every complete record" (count - 1)
    (Waco.Dataset.total_tuples d);
  Alcotest.(check int) "reported the cut" 1 (List.length !reports);
  rm_rf dir

let test_dataset_missing_matrix_skipped () =
  let data = mk_dataset 8 [ "h0"; "h1" ] in
  let dir = tmpdir "waco-miss" in
  Waco.Dataset_io.save data ~dir;
  Sys.remove (Filename.concat dir "h0.mtx");
  let reports = ref [] in
  let d =
    Waco.Dataset_io.load ~dir ~algo ~machine ~valid_fraction:0.25
      ~report:(fun s -> reports := s :: !reports)
      (Rng.create 7)
  in
  (* h0's 4 tuples ride on the missing matrix *)
  Alcotest.(check int) "surviving matrix kept"
    (Waco.Dataset.total_tuples data - 4)
    (Waco.Dataset.total_tuples d);
  Alcotest.(check bool) "reported the skip" true (!reports <> []);
  rm_rf dir

let test_dataset_missing_dir_is_typed () =
  match
    Waco.Dataset_io.load ~dir:"/nonexistent/waco-nowhere" ~algo ~machine
      ~valid_fraction:0.25 (Rng.create 7)
  with
  | _ -> Alcotest.fail "loaded a dataset from nowhere"
  | exception Robust.Load_error (Robust.Missing _) -> ()

let test_dataset_append_doubles () =
  let data = mk_dataset 9 [ "i0"; "i1" ] in
  let dir = tmpdir "waco-append" in
  Waco.Dataset_io.save data ~dir;
  Waco.Dataset_io.append data ~dir;
  let reports = ref [] in
  let d =
    Waco.Dataset_io.load ~dir ~algo ~machine ~valid_fraction:0.25
      ~report:(fun s -> reports := s :: !reports)
      (Rng.create 7)
  in
  Alcotest.(check int) "appended journal doubles the tuples"
    (2 * Waco.Dataset.total_tuples data)
    (Waco.Dataset.total_tuples d);
  Alcotest.(check (list string)) "clean journal" [] !reports;
  (* append onto a fresh directory creates the journal (the --out a/b/c fix) *)
  let dir2 = Filename.concat (tmpdir "waco-append2") "nested/deeper" in
  Waco.Dataset_io.append data ~dir:dir2;
  let d2 =
    Waco.Dataset_io.load ~dir:dir2 ~algo ~machine ~valid_fraction:0.25
      (Rng.create 7)
  in
  Alcotest.(check int) "fresh journal complete"
    (Waco.Dataset.total_tuples data)
    (Waco.Dataset.total_tuples d2);
  rm_rf dir

(* --- model artifacts: typed errors and lint codes --------------------- *)

let test_model_corrupt_load_and_lint () =
  let model = Waco.Costmodel.create (Rng.create 41) algo in
  let dir = tmpdir "waco-modelcorrupt" in
  let path = Filename.concat dir "model.bin" in
  Waco.Costmodel.save model path;
  (* lint: a clean dump has no errors *)
  Alcotest.(check bool) "clean dump lints clean" true
    (List.for_all (fun d -> not (Diag.is_error d)) (Analysis.Model_check.check path));
  (* flip one payload byte *)
  let raw = read_raw path in
  let b = Bytes.of_string raw in
  let off = Bytes.length b - 2 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  write_raw path (Bytes.to_string b);
  (match Waco.Costmodel.load model path with
  | () -> Alcotest.fail "loaded a checksum-mismatched model"
  | exception Robust.Load_error (Robust.Bad_checksum _) -> ());
  (match Analysis.Model_check.check path with
  | [ d ] -> Alcotest.(check string) "lint code" "WACO-A006" (Diag.code d)
  | ds -> Alcotest.failf "expected one A006, got %d diagnostics" (List.length ds));
  (* wrong kind maps to A007 *)
  Robust.write_artifact ~kind:Robust.Kind.index path "whatever\n";
  (match Analysis.Model_check.check path with
  | [ d ] -> Alcotest.(check string) "kind code" "WACO-A007" (Diag.code d)
  | ds -> Alcotest.failf "expected one A007, got %d diagnostics" (List.length ds));
  rm_rf dir

let test_model_legacy_dump_still_loads () =
  let model = Waco.Costmodel.create (Rng.create 43) algo in
  let m = small_matrix 5 in
  let input = Waco.Extractor.input_of_coo ~id:"legacy" m in
  let s = Space.sample (Rng.create 6) algo ~dims:[| 48; 48 |] in
  let before = (Waco.Costmodel.predict model input [| s |]).(0) in
  let dir = tmpdir "waco-legacy" in
  let enveloped = Filename.concat dir "model.bin" in
  let legacy = Filename.concat dir "legacy.bin" in
  Waco.Costmodel.save model enveloped;
  (* strip the envelope: the payload alone is the pre-envelope format *)
  write_raw legacy (Robust.read_artifact_exn ~expected_kind:Robust.Kind.model enveloped);
  let probe = Waco.Costmodel.create (Rng.create 99) algo in
  Waco.Costmodel.load probe legacy;
  Alcotest.(check (float 0.0)) "legacy dump restored" before
    ((Waco.Costmodel.predict probe input [| s |]).(0));
  (* and the lint pass still reads it *)
  Alcotest.(check bool) "legacy dump lints clean" true
    (List.for_all (fun d -> not (Diag.is_error d)) (Analysis.Model_check.check legacy));
  rm_rf dir

(* --- tuner: degradation, retries, index snapshots --------------------- *)

let tuner_fixture () =
  let rng = Rng.create 51 in
  let model = Waco.Costmodel.create rng algo in
  let m = small_matrix 52 in
  let wl = Workload.of_coo ~id:"tunefix" m in
  let input = Waco.Extractor.input_of_coo ~id:"tunefix" m in
  let corpus = Array.init 24 (fun _ -> Space.sample rng algo ~dims:[| 48; 48 |]) in
  let index = Waco.Tuner.build_index rng model corpus in
  (rng, model, wl, input, index)

let test_tune_empty_index_degrades () =
  let rng, model, wl, input, _ = tuner_fixture () in
  let empty = Waco.Tuner.build_index rng model [||] in
  let r = Waco.Tuner.tune model machine wl input empty in
  Alcotest.(check bool) "degraded" true r.Waco.Tuner.degraded;
  Alcotest.(check string) "fixed-CSR fallback"
    (Superschedule.key (Superschedule.fixed_default algo))
    (Superschedule.key r.Waco.Tuner.best);
  Alcotest.(check bool) "carries a reason" true
    (r.Waco.Tuner.degraded_reason <> None)

let test_tune_transient_retry () =
  let _, model, wl, input, index = tuner_fixture () in
  (* two transient hiccups: absorbed by the per-run retries *)
  Robust.Faults.reset ();
  Robust.Faults.arm_transient_measures 2;
  let r =
    Waco.Tuner.tune ~k:4 model machine wl input index
  in
  Robust.Faults.reset ();
  Alcotest.(check bool) "not degraded" false r.Waco.Tuner.degraded;
  Alcotest.(check int) "no candidate dropped" 0 r.Waco.Tuner.measure_failures;
  Alcotest.(check int) "all candidates measured" 4 r.Waco.Tuner.measured_runs;
  (* a persistently failing measurement rig: every candidate drops, the
     tuner degrades to fixed CSR instead of raising *)
  Robust.Faults.arm_transient_measures max_int;
  let r2 =
    Waco.Tuner.tune ~k:4 model machine wl input index
  in
  Robust.Faults.reset ();
  Alcotest.(check bool) "degraded" true r2.Waco.Tuner.degraded;
  Alcotest.(check int) "all drops counted" 4 r2.Waco.Tuner.measure_failures;
  Alcotest.(check string) "fixed-CSR fallback"
    (Superschedule.key (Superschedule.fixed_default algo))
    (Superschedule.key r2.Waco.Tuner.best)

let test_index_snapshot_roundtrip () =
  let _, model, wl, input, index = tuner_fixture () in
  let dir = tmpdir "waco-index" in
  let path = Filename.concat dir "hnsw.idx" in
  Waco.Tuner.save_index index path;
  let index' = Waco.Tuner.load_index (Rng.create 77) ~algo path in
  Alcotest.(check int) "corpus size" index.Waco.Tuner.corpus_size
    index'.Waco.Tuner.corpus_size;
  Alcotest.(check int) "lint rejections" index.Waco.Tuner.lint_rejected
    index'.Waco.Tuner.lint_rejected;
  let r = Waco.Tuner.tune model machine wl input index in
  let r' = Waco.Tuner.tune model machine wl input index' in
  Alcotest.(check string) "same winner" (Superschedule.key r.Waco.Tuner.best)
    (Superschedule.key r'.Waco.Tuner.best);
  Alcotest.(check (float 0.0)) "same measured runtime" r.Waco.Tuner.best_measured
    r'.Waco.Tuner.best_measured;
  (* crash sweep over re-snapshotting: the previous snapshot must survive *)
  ignore
    (crash_sweep ~max_points:16
       ~save:(fun () -> Waco.Tuner.save_index index path)
       ~check:(fun n ->
         match Waco.Tuner.load_index (Rng.create 77) ~algo path with
         | i ->
             Alcotest.(check int)
               (Printf.sprintf "crash %d preserved the snapshot" n)
               index.Waco.Tuner.corpus_size i.Waco.Tuner.corpus_size
         | exception Robust.Load_error _ ->
             Alcotest.failf "crash %d destroyed the previous snapshot" n));
  (* a tampered snapshot is a typed error *)
  let raw = read_raw path in
  let b = Bytes.of_string raw in
  Bytes.set b (Bytes.length b / 2) '\xff';
  write_raw path (Bytes.to_string b);
  (match Waco.Tuner.load_index (Rng.create 77) ~algo path with
  | _ -> Alcotest.fail "loaded a tampered index snapshot"
  | exception Robust.Load_error _ -> ());
  rm_rf dir

(* --- HNSW snapshot structural invariants ------------------------------ *)

(* [Hnsw.restore] must reject snapshots whose header disagrees with the node
   table: a wrong [max_level] or an entry point below the top level makes
   every later search silently start mid-graph. *)
let test_hnsw_snapshot_invariants () =
  let rng = Rng.create 11 in
  let h = Anns.Hnsw.create ~dim:4 rng in
  for i = 0 to 63 do
    Anns.Hnsw.insert h (Array.init 4 (fun _ -> Rng.float rng)) i
  done;
  let dump = Anns.Hnsw.dump h ~payload:string_of_int in
  let h' = Anns.Hnsw.restore (Rng.create 12) ~payload:int_of_string dump in
  Alcotest.(check int) "untampered snapshot restores" (Anns.Hnsw.size h)
    (Anns.Hnsw.size h');
  let lines = String.split_on_char '\n' dump in
  let header = List.hd lines in
  let fields = String.split_on_char ' ' header in
  (* "HNSW dim m efc count entry max_level" *)
  let nth n = int_of_string (List.nth fields n) in
  let entry = nth 5 and max_level = nth 6 in
  Alcotest.(check bool) "fixture graph has levels" true (max_level > 0);
  let with_header f =
    String.concat "\n"
      (String.concat " " (f fields) :: List.tl lines)
  in
  let expect_reject label text =
    match Anns.Hnsw.restore (Rng.create 12) ~payload:int_of_string text with
    | _ -> Alcotest.failf "%s: tampered snapshot restored" label
    | exception Anns.Hnsw.Restore_error _ -> ()
  in
  (* header max_level no longer matches the node table's maximum *)
  expect_reject "inflated max_level"
    (with_header
       (List.mapi (fun i f -> if i = 6 then string_of_int (max_level + 1) else f)));
  (* entry redirected to a node below the top level *)
  let level0 =
    let found = ref (-1) and id = ref 0 in
    List.iter
      (fun l ->
        if String.starts_with ~prefix:"N " l then begin
          (match String.split_on_char ' ' l with
          | _ :: lvl :: _ when !found < 0 && lvl = "0" && !id <> entry ->
              found := !id
          | _ -> ());
          incr id
        end)
      lines;
    !found
  in
  Alcotest.(check bool) "fixture has a level-0 node" true (level0 >= 0);
  expect_reject "entry below max_level"
    (with_header
       (List.mapi (fun i f -> if i = 5 then string_of_int level0 else f)))

let () =
  Alcotest.run "robust"
    [
      ( "primitives",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32;
          Alcotest.test_case "mkdir_p" `Quick test_mkdir_p;
          Alcotest.test_case "atomic write" `Quick test_atomic_write;
          Alcotest.test_case "with_retry" `Quick test_with_retry;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "roundtrip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "tamper table" `Quick test_tamper_table;
          Alcotest.test_case "injected corruption" `Quick
            test_injected_corruption_detected;
        ] );
      ( "crash sweeps",
        [
          Alcotest.test_case "model dump" `Slow test_crash_sweep_model;
          Alcotest.test_case "dataset dir" `Slow test_crash_sweep_dataset;
          Alcotest.test_case "checkpoints" `Slow test_crash_sweep_checkpoint;
        ] );
      ( "checkpoint/resume",
        [
          Alcotest.test_case "kill and resume deterministically" `Slow
            test_checkpoint_resume_determinism;
          Alcotest.test_case "corrupt checkpoint skipped" `Slow
            test_resume_skips_corrupt_checkpoint;
          Alcotest.test_case "empty dir starts fresh" `Quick
            test_resume_empty_dir_starts_fresh;
          Alcotest.test_case "numeric checkpoint ordering" `Slow
            test_resume_numeric_sort;
        ] );
      ( "corrupt corpus",
        [
          Alcotest.test_case "truncated tail recovered" `Quick
            test_dataset_truncated_tail_recovered;
          Alcotest.test_case "missing matrix skipped" `Quick
            test_dataset_missing_matrix_skipped;
          Alcotest.test_case "missing dir is typed" `Quick
            test_dataset_missing_dir_is_typed;
          Alcotest.test_case "append journals" `Quick test_dataset_append_doubles;
        ] );
      ( "model artifacts",
        [
          Alcotest.test_case "corrupt dump: typed error + A006" `Quick
            test_model_corrupt_load_and_lint;
          Alcotest.test_case "legacy raw dump accepted" `Quick
            test_model_legacy_dump_still_loads;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "empty index degrades" `Slow
            test_tune_empty_index_degrades;
          Alcotest.test_case "transient retries + degradation" `Slow
            test_tune_transient_retry;
          Alcotest.test_case "index snapshot" `Slow test_index_snapshot_roundtrip;
          Alcotest.test_case "hnsw snapshot invariants" `Quick
            test_hnsw_snapshot_invariants;
        ] );
    ]
