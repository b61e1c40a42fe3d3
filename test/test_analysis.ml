(* Tests for the diagnostics engine and the static analysis passes: one
   known-good and known-bad case per diagnostic code, a randomized packed
   round-trip over the generator families, and the search pre-filter
   contracts. *)

open Sptensor
open Format_abs
open Schedule

let u = Levelfmt.U and c = Levelfmt.C

let codes ds = List.sort compare (List.map Diag.code ds)

let check_codes what expected ds =
  Alcotest.(check (list string)) what (List.sort compare expected) (codes ds)

let spmm = Algorithm.Spmm 256

let good () = Superschedule.fixed_default spmm

let dims = [| 64; 64 |]

(* --- engine --- *)

let test_diag_engine () =
  let e = Diag.error ~code:"WACO-X001" ~loc:"a" "boom %d" 7 in
  let w = Diag.warning ~code:"WACO-X002" ~loc:"b" "meh" in
  let h = Diag.hint ~code:"WACO-X003" ~loc:"c" "fyi" in
  Alcotest.(check string) "message formatted" "boom 7" (Diag.message e);
  Alcotest.(check bool) "is_error" true (Diag.is_error e);
  Alcotest.(check int) "exit clean" 0 (Diag.exit_code []);
  Alcotest.(check int) "exit hints" 0 (Diag.exit_code [ h ]);
  Alcotest.(check int) "exit warnings" 1 (Diag.exit_code [ h; w ]);
  Alcotest.(check int) "exit errors" 2 (Diag.exit_code [ h; w; e ]);
  (match Diag.first_error [ h; w; e ] with
  | Some d -> Alcotest.(check string) "first_error" "WACO-X001" (Diag.code d)
  | None -> Alcotest.fail "expected an error");
  (* sort puts errors first *)
  (match Diag.sort [ h; w; e ] with
  | first :: _ -> Alcotest.(check bool) "errors sort first" true (Diag.is_error first)
  | [] -> Alcotest.fail "sort dropped diagnostics");
  let r = Diag.relocate ~prefix:"file:3" w in
  Alcotest.(check string) "relocate prefixes loc" "file:3:b" (Diag.loc r)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_diag_render () =
  let ds =
    [
      Diag.error ~code:"WACO-X001" ~loc:"spot" "it \"broke\"";
      Diag.warning ~code:"WACO-X002" ~loc:"spot" "meh";
    ]
  in
  let text = Diag.render_text ds in
  Alcotest.(check bool) "text has code" true (contains text "WACO-X001");
  Alcotest.(check bool) "text has summary" true (contains text "1 error(s), 1 warning(s)");
  let json = Diag.render_json ds in
  Alcotest.(check bool) "json has exit code" true (contains json "\"exit_code\":2");
  Alcotest.(check bool) "json has code" true (contains json "\"code\":\"WACO-X002\"");
  Alcotest.(check bool) "json escapes quotes" true (contains json "it \\\"broke\\\"");
  Alcotest.(check string) "empty render" "no diagnostics\n" (Diag.render_text [])

(* --- Spec legality (WACO-S00x) --- *)

let test_spec_codes () =
  let base = Spec.csr_like ~dims:[| 8; 8 |] in
  check_codes "clean spec" [] (Spec.check base);
  check_codes "splits length" [ "WACO-S001" ]
    (Spec.check { base with Spec.splits = [| 1 |] });
  check_codes "split < 1" [ "WACO-S002" ]
    (Spec.check { base with Spec.splits = [| 1; 0 |] });
  check_codes "dim < 1" [ "WACO-S003" ] (Spec.check { base with Spec.dims = [| 8; 0 |] });
  check_codes "bad order" [ "WACO-S004" ]
    (Spec.check { base with Spec.order = [| 0; 0; 2; 3 |] });
  check_codes "formats length" [ "WACO-S005" ]
    (Spec.check { base with Spec.formats = [| u; c |] })

let test_spec_validate_delegates () =
  Alcotest.check_raises "legacy exception text"
    (Invalid_argument "Spec: order is not a permutation of the derived variables")
    (fun () ->
      ignore
        (Spec.make ~dims:[| 4; 4 |] ~splits:[| 1; 1 |] ~order:[| 0; 1; 2; 2 |]
           ~formats:[| u; c; u; u |]))

let test_permutation_error_detail () =
  (match Spec.permutation_error ~n:4 [| 0; 1; 2 |] with
  | Some why -> Alcotest.(check bool) "length detail" true (contains why "length 3")
  | None -> Alcotest.fail "short array accepted");
  (match Spec.permutation_error ~n:4 [| 0; 1; 2; 9 |] with
  | Some _ -> ()
  | None -> Alcotest.fail "out-of-range accepted");
  Alcotest.(check (option string)) "identity ok" None
    (Spec.permutation_error ~n:4 [| 3; 2; 1; 0 |])

(* --- Superschedule legality (WACO-S01x) --- *)

let test_superschedule_codes () =
  let g = good () in
  check_codes "clean schedule" [] (Superschedule.check g);
  check_codes "splits rank" [ "WACO-S010" ]
    (Superschedule.check { g with Superschedule.splits = [| 1 |] });
  check_codes "split < 1" [ "WACO-S011" ]
    (Superschedule.check { g with Superschedule.splits = [| 1; 0 |] });
  check_codes "compute_order" [ "WACO-S012" ]
    (Superschedule.check { g with Superschedule.compute_order = [| 0; 0; 2; 3 |] });
  check_codes "a_order" [ "WACO-S013" ]
    (Superschedule.check { g with Superschedule.a_order = [| 1; 2; 3; 4 |] });
  check_codes "a_formats" [ "WACO-S014" ]
    (Superschedule.check { g with Superschedule.a_formats = [| u; c |] });
  check_codes "par out of range" [ "WACO-S015" ]
    (Superschedule.check { g with Superschedule.par_var = 9 });
  check_codes "par not parallelizable" [ "WACO-S016" ]
    (Superschedule.check { g with Superschedule.par_var = 2 });
  check_codes "chunk" [ "WACO-S017" ]
    (Superschedule.check { g with Superschedule.chunk = 0 });
  (* several problems accumulate in one pass *)
  check_codes "accumulation" [ "WACO-S011"; "WACO-S012"; "WACO-S017" ]
    (Superschedule.check
       {
         g with
         Superschedule.splits = [| 0; 1 |];
         compute_order = [| 3; 3; 3; 3 |];
         chunk = -1;
       })

let test_superschedule_validate_legacy () =
  Alcotest.check_raises "legacy par message"
    (Invalid_argument "Superschedule: par_var not parallelizable for this algorithm")
    (fun () -> Superschedule.validate { (good ()) with Superschedule.par_var = 2 })

(* --- performance smells (WACO-P00x) --- *)

let perf s = Analysis.Perf_check.check ~dims s

let test_perf_discordant () =
  (* swap the two significant loops: the compressed k1 level is iterated
     discordantly *)
  let s = { (good ()) with Superschedule.compute_order = [| 2; 0; 1; 3 |] } in
  let ds = perf s in
  Alcotest.(check bool) "P001 fires" true (List.mem "WACO-P001" (codes ds));
  Alcotest.(check bool) "P006 fires (par under compressed)" true
    (List.mem "WACO-P006" (codes ds));
  check_codes "concordant default clean" [] (perf (good ()))

let test_perf_split_exceeds_dim () =
  let s = { (good ()) with Superschedule.splits = [| 128; 1 |] } in
  let cs = codes (perf s) in
  Alcotest.(check bool) "P002 fires" true (List.mem "WACO-P002" cs);
  Alcotest.(check bool) "P003 clamp hint fires" true (List.mem "WACO-P003" cs)

let test_perf_dead_level () =
  (* i0 has extent 1 (no split) but is ordered outermost *)
  let s =
    { (good ()) with Superschedule.a_order = [| 1; 0; 2; 3 |];
                     compute_order = [| 1; 0; 2; 3 |] }
  in
  Alcotest.(check bool) "P004 fires" true (List.mem "WACO-P004" (codes (perf s)))

let test_perf_compressed_singleton () =
  let s = { (good ()) with Superschedule.a_formats = [| u; c; c; u |] } in
  Alcotest.(check bool) "P005 fires" true (List.mem "WACO-P005" (codes (perf s)))

let test_perf_chunk_oversized () =
  let s = { (good ()) with Superschedule.chunk = 1024 } in
  Alcotest.(check bool) "P007 fires" true (List.mem "WACO-P007" (codes (perf s)))

let test_perf_survives_illegal_fields () =
  (* the acceptance scenario: broken compute_order AND chunk AND a
     discordance must all surface in a single run *)
  let s =
    {
      (good ()) with
      Superschedule.compute_order = [| 0; 0; 2; 3 |];
      chunk = 0;
    }
  in
  let ds = Analysis.Lint.check_schedule ~dims s in
  let cs = codes ds in
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " reported") true (List.mem code cs))
    [ "WACO-S012"; "WACO-S017"; "WACO-P001" ];
  Alcotest.(check int) "exit code 2" 2 (Diag.exit_code ds)

(* --- packed verifier (WACO-F0xx) --- *)

let small_matrix () =
  Coo.of_triplets ~nrows:4 ~ncols:6
    [ (0, 0, 1.0); (0, 2, 2.0); (1, 1, 3.0); (2, 5, 4.0); (3, 0, 5.0); (3, 3, 6.0) ]

let pack_ok spec m =
  match Packed.of_coo spec m with Ok p -> p | Error e -> Alcotest.fail e

let test_packed_clean () =
  let m = small_matrix () in
  List.iter
    (fun spec ->
      check_codes (Spec.name spec ^ " clean") []
        (Analysis.Packed_check.check ~reference:m (pack_ok spec m)))
    [
      Spec.csr_like ~dims:[| 4; 6 |];
      Spec.csc ~dims:[| 4; 6 |];
      Spec.bcsr ~dims:[| 4; 6 |] ~bi:2 ~bk:2;
    ]

let test_packed_corruptions () =
  let m = small_matrix () in
  let fresh () = pack_ok (Spec.csr_like ~dims:[| 4; 6 |]) m in
  let expect code mutate =
    let p = mutate (fresh ()) in
    let cs = codes (Analysis.Packed_check.check ~reference:m p) in
    Alcotest.(check bool) (code ^ " detected") true (List.mem code cs)
  in
  expect "WACO-F001" (fun p ->
      { p with Packed.levels = [| Packed.Dense 4; Packed.Dense 6 |] });
  expect "WACO-F002" (fun p ->
      { p with Packed.levels = (let l = Array.copy p.Packed.levels in
                                l.(0) <- Packed.Dense 3; l) });
  let mutate_c f p =
    let l = Array.copy p.Packed.levels in
    (match l.(1) with
    | Packed.Compressed { pos; crd } ->
        l.(1) <- f (Array.copy pos) (Array.copy crd)
    | Packed.Dense _ -> Alcotest.fail "csr level 1 should be compressed");
    { p with Packed.levels = l }
  in
  expect "WACO-F003" (mutate_c (fun pos crd ->
      Packed.Compressed { pos = Array.sub pos 0 (Array.length pos - 1); crd }));
  expect "WACO-F004" (mutate_c (fun pos crd -> pos.(0) <- 1;
      Packed.Compressed { pos; crd }));
  expect "WACO-F005" (mutate_c (fun pos crd -> pos.(2) <- pos.(1) - 1;
      Packed.Compressed { pos; crd }));
  expect "WACO-F006" (mutate_c (fun pos crd ->
      Packed.Compressed { pos; crd = Array.append crd [| 0 |] }));
  expect "WACO-F007" (mutate_c (fun pos crd -> crd.(0) <- 6;
      Packed.Compressed { pos; crd }));
  expect "WACO-F008" (mutate_c (fun pos crd -> crd.(1) <- crd.(0);
      Packed.Compressed { pos; crd }));
  expect "WACO-F009" (fun p ->
      { p with Packed.vals = Array.append p.Packed.vals [| 0.0 |] });
  expect "WACO-F010" (fun p ->
      let v = Array.copy p.Packed.vals in
      v.(0) <- Float.nan;
      { p with Packed.vals = v });
  (* a silently flipped value survives the structural checks but fails the
     reference round-trip *)
  expect "WACO-F011" (fun p ->
      let v = Array.copy p.Packed.vals in
      v.(0) <- v.(0) +. 1.0;
      { p with Packed.vals = v })

let test_pack_and_check_codes () =
  let spec = Spec.csr_like ~dims:[| 4; 6 |] in
  (match
     Analysis.Packed_check.pack_and_check spec
       [| ([| 0; 0 |], 1.0); ([| 0; 0 |], 2.0) |]
   with
  | Ok _ -> Alcotest.fail "duplicates accepted"
  | Error ds -> check_codes "duplicates -> F013" [ "WACO-F013" ] ds);
  (match
     Analysis.Packed_check.pack_and_check ~budget:2 spec [| ([| 0; 0 |], 1.0) |]
   with
  | Ok _ -> Alcotest.fail "budget ignored"
  | Error ds ->
      check_codes "budget -> F014" [ "WACO-F014" ] ds;
      Alcotest.(check int) "budget overflow is only a warning" 1 (Diag.exit_code ds))

let test_packed_random_roundtrip () =
  let rng = Rng.create 2024 in
  List.iter
    (fun fam ->
      let m = Gen.generate rng fam ~nrows:48 ~ncols:40 ~nnz:300 in
      let mdims = [| m.Coo.nrows; m.Coo.ncols |] in
      List.iter
        (fun spec ->
          match Packed.of_coo spec m with
          | Error e -> Alcotest.fail e
          | Ok p ->
              let ds =
                List.filter Diag.is_error (Analysis.Packed_check.check ~reference:m p)
              in
              check_codes "random family round-trips" [] ds)
        [
          Spec.csr_like ~dims:mdims;
          Spec.csc ~dims:mdims;
          Spec.bcsr ~dims:mdims ~bi:4 ~bk:8;
          Spec.sparse_block ~dims:mdims ~bk:16;
        ])
    [ Gen.Uniform; Gen.Power_law 1.4; Gen.Banded 6; Gen.Block_dense 4; Gen.Rmat;
      Gen.Stencil2d; Gen.Clustered 8 ]

(* --- artifact passes (WACO-A00x / WACO-D00x) --- *)

let write_file path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_model_check () =
  let path = Filename.temp_file "waco_model" ".txt" in
  write_file path [ "w 2"; "0.5"; "-1.25"; "b 1"; "0.0" ];
  check_codes "clean model (all-zero bias warns)" [ "WACO-A004" ]
    (Analysis.Model_check.check path);
  write_file path
    [ "w 2"; "0.5"; "inf"; "w 1"; "1.0"; "zeros 2"; "0"; "0"; "trunc 5"; "1.0" ];
  check_codes "bad model"
    [ "WACO-A002"; "WACO-A003"; "WACO-A004"; "WACO-A005" ]
    (Analysis.Model_check.check path);
  write_file path [ "not a header at all" ];
  check_codes "malformed header" [ "WACO-A001" ] (Analysis.Model_check.check path);
  Sys.remove path;
  (match Analysis.Model_check.check path with
  | [ d ] -> Alcotest.(check string) "missing file" "WACO-A001" (Diag.code d)
  | _ -> Alcotest.fail "missing file should be one diagnostic")

let good_tuple = "algo=SpMM;splits=1,1;order=0,2,1,3;par=0;threads=full;chunk=4;aorder=0,2,1,3;afmt=UCUU"

let test_dataset_check () =
  let dir = Filename.temp_file "waco_ds" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let m = small_matrix () in
  Mmio.write_coo (Filename.concat dir "m0.mtx") m;
  write_file (Filename.concat dir "tuples.txt")
    [
      "# WACO dataset: algo=SpMM machine=intel";
      "MATRIX m0 m0.mtx";
      "TUPLE m0 -3.5 " ^ good_tuple;
      "TUPLE m0 -3.5 " ^ good_tuple;
      "TUPLE m0 nan " ^ good_tuple;
      "TUPLE m0 -2.0 algo=SpMM;splits=1,1";
      "TUPLE m1 -2.0 " ^ good_tuple;
      "TUPLE m0 -2.0 algo=SpMM;splits=1,1;order=0,2,1,3;par=0;threads=full;chunk=0;aorder=0,2,1,3;afmt=UCUU";
      "MATRIX m2 missing.mtx";
      "junk";
    ];
  let ds = Analysis.Dataset_check.check dir in
  let cs = codes ds in
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " reported") true (List.mem code cs))
    [
      "WACO-D003"; "WACO-D005"; "WACO-D006"; "WACO-D007"; "WACO-D008";
      "WACO-D009"; "WACO-S017";
    ];
  (* the relocated legality finding is anchored to its line *)
  (match List.find_opt (fun d -> Diag.code d = "WACO-S017") ds with
  | Some d -> Alcotest.(check bool) "anchored to tuples.txt line" true
                (contains (Diag.loc d) "tuples.txt:8")
  | None -> Alcotest.fail "S017 missing");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_dataset_check_missing_dir () =
  match Analysis.Dataset_check.check "/nonexistent/nowhere" with
  | [ d ] -> Alcotest.(check string) "missing dataset" "WACO-D001" (Diag.code d)
  | _ -> Alcotest.fail "missing dataset should be one diagnostic"

(* --- search pre-filter --- *)

let test_prefilter_blackbox () =
  let evals = ref 0 in
  let be =
    Blackbox.Blackbox_common.make_eval ~filters:[ Asym.Prefilter.lint ] (fun _ ->
        incr evals;
        1.0)
  in
  let bad = { (good ()) with Superschedule.chunk = 0 } in
  let cost = Blackbox.Blackbox_common.run_eval be bad in
  Alcotest.(check bool) "rejected scores infinity" true (cost = infinity);
  Alcotest.(check int) "cost model never called" 0 !evals;
  Alcotest.(check int) "rejection counted" 1 be.Blackbox.Blackbox_common.rejected;
  let ok_cost = Blackbox.Blackbox_common.run_eval be (good ()) in
  Alcotest.(check (float 0.0)) "legal point evaluated" 1.0 ok_cost;
  Alcotest.(check int) "one real eval" 1 !evals

let test_prefilter_strategies () =
  (* with the pre-filter on by default, a strategy never feeds an illegal
     schedule to the evaluation *)
  let rng = Rng.create 11 in
  let eval s =
    Superschedule.validate s;
    float_of_int s.Superschedule.chunk
  in
  let r = Blackbox.Strategies.random_search rng spmm ~dims ~eval ~budget:50 in
  Alcotest.(check int) "sampler emits only legal points" 0
    r.Blackbox.Blackbox_common.rejected

let test_prefilter_tuner () =
  let rng = Rng.create 5 in
  let model = Waco.Costmodel.create rng spmm in
  let corpus =
    [|
      good ();
      { (good ()) with Superschedule.chunk = 0 };
      { (good ()) with Superschedule.splits = [| 2; 2 |] };
      { (good ()) with Superschedule.par_var = 2 };
    |]
  in
  let index = Waco.Tuner.build_index rng model corpus in
  Alcotest.(check int) "illegal corpus points dropped" 2
    index.Waco.Tuner.lint_rejected;
  Alcotest.(check int) "index holds the survivors" 2 index.Waco.Tuner.corpus_size;
  let off = Waco.Tuner.build_index ~lint:false rng model corpus in
  Alcotest.(check int) "opt-out keeps everything" 4 off.Waco.Tuner.corpus_size

let () =
  Alcotest.run "analysis"
    [
      ( "diag",
        [
          Alcotest.test_case "engine" `Quick test_diag_engine;
          Alcotest.test_case "render" `Quick test_diag_render;
        ] );
      ( "legality",
        [
          Alcotest.test_case "spec codes" `Quick test_spec_codes;
          Alcotest.test_case "spec validate delegates" `Quick
            test_spec_validate_delegates;
          Alcotest.test_case "permutation detail" `Quick test_permutation_error_detail;
          Alcotest.test_case "superschedule codes" `Quick test_superschedule_codes;
          Alcotest.test_case "legacy exception text" `Quick
            test_superschedule_validate_legacy;
        ] );
      ( "perf",
        [
          Alcotest.test_case "discordant" `Quick test_perf_discordant;
          Alcotest.test_case "split exceeds dim" `Quick test_perf_split_exceeds_dim;
          Alcotest.test_case "dead level" `Quick test_perf_dead_level;
          Alcotest.test_case "compressed singleton" `Quick
            test_perf_compressed_singleton;
          Alcotest.test_case "oversized chunk" `Quick test_perf_chunk_oversized;
          Alcotest.test_case "one run reports everything" `Quick
            test_perf_survives_illegal_fields;
        ] );
      ( "packed",
        [
          Alcotest.test_case "clean formats" `Quick test_packed_clean;
          Alcotest.test_case "corruptions" `Quick test_packed_corruptions;
          Alcotest.test_case "pack_and_check" `Quick test_pack_and_check_codes;
          Alcotest.test_case "random round-trip" `Quick test_packed_random_roundtrip;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "model" `Quick test_model_check;
          Alcotest.test_case "dataset" `Quick test_dataset_check;
          Alcotest.test_case "missing dataset" `Quick test_dataset_check_missing_dir;
        ] );
      ( "prefilter",
        [
          Alcotest.test_case "budgeted eval" `Quick test_prefilter_blackbox;
          Alcotest.test_case "strategies" `Quick test_prefilter_strategies;
          Alcotest.test_case "tuner index" `Quick test_prefilter_tuner;
        ] );
    ]
