(* Tests for the format abstraction: specs, packing, storage accounting. *)

open Sptensor
open Format_abs

let rng () = Rng.create 777

let u = Levelfmt.U and c = Levelfmt.C

(* --- Spec --- *)

let test_spec_validate_rejects_bad_order () =
  Alcotest.check_raises "non-permutation order"
    (Invalid_argument "Spec: order is not a permutation of the derived variables")
    (fun () ->
      ignore
        (Spec.make ~dims:[| 4; 4 |] ~splits:[| 1; 1 |] ~order:[| 0; 0; 2; 3 |]
           ~formats:[| u; c; u; u |]))

let test_spec_var_sizes () =
  let s = Spec.bcsr ~dims:[| 10; 8 |] ~bi:4 ~bk:2 in
  Alcotest.(check int) "i1 size = ceil(10/4)" 3 (Spec.var_size s (Spec.top_var 0));
  Alcotest.(check int) "i0 size" 4 (Spec.var_size s (Spec.bottom_var 0));
  Alcotest.(check int) "k1 size" 4 (Spec.var_size s (Spec.top_var 1));
  Alcotest.(check int) "k0 size" 2 (Spec.var_size s (Spec.bottom_var 1))

let test_spec_names () =
  Alcotest.(check string) "csr name" "UC" (Spec.name (Spec.csr_like ~dims:[| 8; 8 |]));
  Alcotest.(check string) "bcsr name" "UCUU"
    (Spec.name (Spec.bcsr ~dims:[| 8; 8 |] ~bi:2 ~bk:2));
  Alcotest.(check string) "csf name" "CCC" (Spec.name (Spec.csf ~dims:[| 4; 4; 4 |]))

let test_spec_discordance () =
  let s = Spec.csr_like ~dims:[| 8; 8 |] in
  Alcotest.(check int) "concordant" 0
    (Spec.discordant_levels s ~compute_order:s.Spec.order);
  (* swapping i1 and k1 makes both significant levels discordant *)
  let swapped = [| Spec.top_var 1; Spec.top_var 0; Spec.bottom_var 0; Spec.bottom_var 1 |] in
  Alcotest.(check int) "swapped tops" 2 (Spec.discordant_levels s ~compute_order:swapped)

let test_spec_discordance_ignores_degenerate () =
  (* size-1 bottoms moved around should not count *)
  let s = Spec.csr_like ~dims:[| 8; 8 |] in
  let weird = [| Spec.bottom_var 0; Spec.top_var 0; Spec.top_var 1; Spec.bottom_var 1 |] in
  Alcotest.(check int) "degenerate reorder concordant" 0
    (Spec.discordant_levels s ~compute_order:weird)

(* --- Packed --- *)

let small_matrix () =
  Coo.of_triplets ~nrows:4 ~ncols:6
    [ (0, 0, 1.0); (0, 2, 2.0); (1, 1, 3.0); (2, 5, 4.0); (3, 0, 5.0); (3, 3, 6.0) ]

let pack_ok spec m =
  match Packed.of_coo spec m with Ok p -> p | Error e -> Alcotest.fail e

let test_pack_csr_structure () =
  let m = small_matrix () in
  let p = pack_ok (Spec.csr_like ~dims:[| 4; 6 |]) m in
  (* CSR: level 0 dense of 4 rows, level 1 compressed with nnz coords *)
  (match p.Packed.levels.(0) with
  | Packed.Dense size -> Alcotest.(check int) "rows level" 4 size
  | Packed.Compressed _ -> Alcotest.fail "expected dense rows");
  (match p.Packed.levels.(1) with
  | Packed.Compressed { pos; crd } ->
      Alcotest.(check (array int)) "pos" [| 0; 2; 3; 4; 6 |] pos;
      Alcotest.(check (array int)) "crd" [| 0; 2; 1; 5; 0; 3 |] crd
  | Packed.Dense _ -> Alcotest.fail "expected compressed cols");
  Alcotest.(check int) "vals = nnz for CSR" 6 (Array.length p.Packed.vals)

let test_pack_roundtrip_csr () =
  let m = small_matrix () in
  let p = pack_ok (Spec.csr_like ~dims:[| 4; 6 |]) m in
  Alcotest.(check bool) "roundtrip" true (Coo.approx_equal (Packed.to_coo p) m)

let test_pack_bcsr_padding () =
  let m = small_matrix () in
  let p = pack_ok (Spec.bcsr ~dims:[| 4; 6 |] ~bi:2 ~bk:2) m in
  (* nonzero blocks: (0,0),(0,1),(1,2),(1,0),(1,1) -> 5 blocks x 4 slots *)
  Alcotest.(check int) "padded vals" 20 (Array.length p.Packed.vals);
  Alcotest.(check bool) "roundtrip with padding" true
    (Coo.approx_equal (Packed.to_coo p) m)

let test_pack_budget () =
  let m = small_matrix () in
  let all_dense =
    Spec.make ~dims:[| 4; 6 |] ~splits:[| 1; 1 |]
      ~order:(Spec.csr_like ~dims:[| 4; 6 |]).Spec.order
      ~formats:[| u; u; u; u |]
  in
  (match Packed.of_coo ~budget:10 all_dense m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected budget error");
  match Packed.of_coo ~budget:100 all_dense m with
  | Ok p -> Alcotest.(check int) "fully dense vals" 24 (Array.length p.Packed.vals)
  | Error e -> Alcotest.fail e

let test_pack_duplicate_rejected () =
  let entries = [| ([| 0; 0 |], 1.0); ([| 0; 0 |], 2.0) |] in
  match Packed.pack (Spec.csr_like ~dims:[| 2; 2 |]) entries with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected duplicate error"

let test_pack_column_major_order () =
  let m = small_matrix () in
  let p = pack_ok (Spec.csc ~dims:[| 4; 6 |]) m in
  Alcotest.(check bool) "csc roundtrip" true (Coo.approx_equal (Packed.to_coo p) m)

let test_pack_tensor3_csf () =
  let r = rng () in
  let t = Gen.tensor3_uniform r ~dim_i:6 ~dim_k:5 ~dim_l:4 ~nnz:20 in
  let spec = Spec.csf ~dims:[| 6; 5; 4 |] in
  match Packed.of_tensor3 spec t with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "CSF vals = nnz" (Tensor3.nnz t) (Array.length p.Packed.vals);
      let quads = Packed.to_quads p in
      Alcotest.(check int) "quads preserved" (Tensor3.nnz t) (List.length quads)

(* --- Storage model vs physical packing --- *)

let storage_matches spec m =
  let a = Storage_model.analyze_coo spec m in
  match Packed.of_coo ~budget:(1 lsl 22) spec m with
  | Error _ -> true (* analytic model also prices what we refuse to pack *)
  | Ok p ->
      let st = Packed.storage_of p in
      st.Packed.nvals = int_of_float a.Storage_model.nvals
      && st.Packed.crd_ints = a.Storage_model.crd_ints
      && st.Packed.pos_ints = a.Storage_model.pos_ints

let test_storage_analytic_csr () =
  let m = small_matrix () in
  let a = Storage_model.analyze_coo (Spec.csr_like ~dims:[| 4; 6 |]) m in
  Alcotest.(check (float 1e-9)) "nvals" 6.0 a.Storage_model.nvals;
  Alcotest.(check int) "crd" 6 a.Storage_model.crd_ints;
  Alcotest.(check int) "pos = nrows+1" 5 a.Storage_model.pos_ints;
  Alcotest.(check (float 1e-9)) "fill" 1.0 a.Storage_model.fill_ratio

(* A key space past the direct-mapped scratch takes the hashtable path,
   which must count exactly what physical packing materializes. *)
let test_storage_hashtable_fallback () =
  let r = rng () in
  let n = 5000 in
  let m = Gen.uniform r ~nrows:n ~ncols:n ~nnz:3000 in
  let distinct_rows =
    Array.fold_left (fun acc k -> if k > 0 then acc + 1 else acc) 0 (Coo.nnz_per_row m)
  in
  (* The CSR column level interns (row id, column) pairs. *)
  Alcotest.(check bool) "key space exceeds the scratch" true
    ((distinct_rows + 1) * (n + 1) > Storage_model.scratch_cap);
  let spec = Spec.csr_like ~dims:[| n; n |] in
  let a = Storage_model.analyze_coo spec m in
  match Packed.of_coo spec m with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let st = Packed.storage_of p in
      Alcotest.(check int) "crd" st.Packed.crd_ints a.Storage_model.crd_ints;
      Alcotest.(check int) "pos" st.Packed.pos_ints a.Storage_model.pos_ints;
      Alcotest.(check int) "vals" st.Packed.nvals (int_of_float a.Storage_model.nvals)

(* The analysis reads a pattern, not an entry order: sub-workloads built in
   any order (ASpT's partition) must price like the sorted COO. *)
let qcheck_storage_order_free =
  QCheck.Test.make ~name:"analytic storage ignores entry order (prop)" ~count:40
    QCheck.small_nat
    (fun seed ->
      let r = Rng.create (seed + 5) in
      let m = Gen.rmat r ~nrows:64 ~ncols:48 ~nnz:300 in
      let s = Schedule.Space.sample r (Schedule.Algorithm.Spmm 4) ~dims:[| 64; 48 |] in
      let spec = Schedule.Superschedule.to_spec s ~dims:[| 64; 48 |] in
      let perm = Array.init (Coo.nnz m) Fun.id in
      for i = Array.length perm - 1 downto 1 do
        let j = Rng.int r (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let shuffled = Array.map (fun a -> Array.map (Array.get a) perm) [| m.Coo.rows; m.Coo.cols |] in
      Storage_model.analyze_coo spec m = Storage_model.analyze spec shuffled)

let qcheck_storage_consistency =
  QCheck.Test.make ~name:"analytic storage = physical storage (prop)" ~count:60
    QCheck.small_nat
    (fun seed ->
      let r = Rng.create (seed + 11) in
      let m = Gen.uniform r ~nrows:50 ~ncols:40 ~nnz:200 in
      let s = Schedule.Space.sample r (Schedule.Algorithm.Spmm 4) ~dims:[| 50; 40 |] in
      let spec = Schedule.Superschedule.to_spec s ~dims:[| 50; 40 |] in
      storage_matches spec m)

let qcheck_pack_roundtrip =
  QCheck.Test.make ~name:"pack/unpack roundtrip over random formats (prop)" ~count:60
    QCheck.small_nat
    (fun seed ->
      let r = Rng.create (seed + 23) in
      let m = Gen.clustered r ~cluster:6 ~nrows:60 ~ncols:60 ~nnz:150 in
      let s = Schedule.Space.sample r (Schedule.Algorithm.Spmm 4) ~dims:[| 60; 60 |] in
      let spec = Schedule.Superschedule.to_spec s ~dims:[| 60; 60 |] in
      match Packed.of_coo ~budget:(1 lsl 22) spec m with
      | Error _ -> true
      | Ok p -> Coo.approx_equal (Packed.to_coo p) m)

let qcheck_fill_ratio_bounds =
  QCheck.Test.make ~name:"fill ratio in (0,1] (prop)" ~count:60 QCheck.small_nat
    (fun seed ->
      let r = Rng.create (seed + 37) in
      let m = Gen.banded r ~half_bw:3 ~nrows:64 ~ncols:64 ~nnz:200 in
      let s = Schedule.Space.sample r (Schedule.Algorithm.Spmm 4) ~dims:[| 64; 64 |] in
      let spec = Schedule.Superschedule.to_spec s ~dims:[| 64; 64 |] in
      let a = Storage_model.analyze_coo spec m in
      a.Storage_model.fill_ratio > 0.0 && a.Storage_model.fill_ratio <= 1.0 +. 1e-9)

let () =
  Alcotest.run "format_abs"
    [
      ( "spec",
        [
          Alcotest.test_case "validate order" `Quick test_spec_validate_rejects_bad_order;
          Alcotest.test_case "var sizes" `Quick test_spec_var_sizes;
          Alcotest.test_case "names" `Quick test_spec_names;
          Alcotest.test_case "discordance" `Quick test_spec_discordance;
          Alcotest.test_case "discordance degenerate" `Quick
            test_spec_discordance_ignores_degenerate;
        ] );
      ( "packed",
        [
          Alcotest.test_case "csr structure" `Quick test_pack_csr_structure;
          Alcotest.test_case "csr roundtrip" `Quick test_pack_roundtrip_csr;
          Alcotest.test_case "bcsr padding" `Quick test_pack_bcsr_padding;
          Alcotest.test_case "budget" `Quick test_pack_budget;
          Alcotest.test_case "duplicates rejected" `Quick test_pack_duplicate_rejected;
          Alcotest.test_case "csc roundtrip" `Quick test_pack_column_major_order;
          Alcotest.test_case "tensor3 csf" `Quick test_pack_tensor3_csf;
        ] );
      ( "storage",
        Alcotest.test_case "analytic csr" `Quick test_storage_analytic_csr
        :: Alcotest.test_case "hashtable fallback" `Quick test_storage_hashtable_fallback
        :: List.map QCheck_alcotest.to_alcotest
             [
               qcheck_storage_consistency; qcheck_pack_roundtrip; qcheck_fill_ratio_bounds;
               qcheck_storage_order_free;
             ]
      );
    ]
