(* Behavioural tests for the cost simulator: the orderings the paper's
   analysis depends on must hold in the model. *)

open Sptensor
open Schedule
open Machine_model

let rng () = Rng.create 909

let machine = Machine.intel_like

let algo = Algorithm.Spmm 256

let t_of wl s = Costsim.runtime machine wl s

let fixed = Superschedule.fixed_default algo

let bcsr b =
  Superschedule.concordant_with_format algo ~splits:[| b; b |]
    ~a_order:
      [| Format_abs.Spec.top_var 0; Format_abs.Spec.top_var 1;
         Format_abs.Spec.bottom_var 0; Format_abs.Spec.bottom_var 1 |]
    ~a_formats:
      [| Format_abs.Levelfmt.U; Format_abs.Levelfmt.C; Format_abs.Levelfmt.U;
         Format_abs.Levelfmt.U |]

let test_positive_and_finite () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:500 ~ncols:500 ~nnz:5000 in
  let wl = Workload.of_coo ~id:"pf" m in
  for _ = 1 to 50 do
    let s = Space.sample r algo ~dims:[| 500; 500 |] in
    let t = t_of wl s in
    Alcotest.(check bool) "positive finite" true (t > 0.0 && Float.is_finite t)
  done

let test_deterministic () =
  let r = rng () in
  let m = Gen.rmat r ~nrows:400 ~ncols:400 ~nnz:4000 in
  let wl = Workload.of_coo ~id:"det" m in
  let s = Space.sample r algo ~dims:[| 400; 400 |] in
  Alcotest.(check (float 0.0)) "deterministic" (t_of wl s) (t_of wl s)

(* Skewed matrices want fine-grained chunks; uniform ones tolerate coarse. *)
let test_skew_prefers_fine_chunks () =
  let r = rng () in
  let skew = Gen.power_law r ~alpha:1.6 ~nrows:2000 ~ncols:2000 ~nnz:60000 in
  let wl = Workload.of_coo ~id:"skew" skew in
  let coarse = t_of wl { fixed with Superschedule.chunk = 256 } in
  let fine = t_of wl { fixed with Superschedule.chunk = 4 } in
  Alcotest.(check bool) "fine chunks beat coarse on skew" true (fine < coarse)

(* A discordant loop order must be penalized (binary search, §3.1). *)
let test_discordant_penalized () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:800 ~ncols:800 ~nnz:12000 in
  let wl = Workload.of_coo ~id:"disc" m in
  let disc = { fixed with Superschedule.compute_order = [| 2; 0; 3; 1 |] } in
  Alcotest.(check bool) "discordant slower" true (t_of wl disc > 2.0 *. t_of wl fixed)

(* More materialized padding can only cost more work: fully dense storage of a
   sparse pattern must be slower than CSR. *)
let test_padding_costs () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:1000 ~ncols:1000 ~nnz:3000 in
  let wl = Workload.of_coo ~id:"pad" m in
  let dense_fmt =
    {
      fixed with
      Superschedule.a_formats =
        [| Format_abs.Levelfmt.U; Format_abs.Levelfmt.U; Format_abs.Levelfmt.U;
           Format_abs.Levelfmt.U |];
    }
  in
  Alcotest.(check bool) "dense storage of sparse pattern slower" true
    (t_of wl dense_fmt > t_of wl fixed)

(* The Fig. 14 heuristic: UCU SpMV vectorizes at b >= 16 on intel-like. *)
let test_simd_threshold () =
  let r = rng () in
  let m = Gen.block_dense r ~block:32 ~nrows:2048 ~ncols:2048 ~nnz:60000 in
  let wl = Workload.of_coo ~id:"simd" m in
  let ucu b =
    Superschedule.concordant_with_format Algorithm.Spmv ~splits:[| b; 1 |]
      ~a_order:
        [| Format_abs.Spec.top_var 0; Format_abs.Spec.top_var 1;
           Format_abs.Spec.bottom_var 0; Format_abs.Spec.bottom_var 1 |]
      ~a_formats:
        [| Format_abs.Levelfmt.U; Format_abs.Levelfmt.C; Format_abs.Levelfmt.U;
           Format_abs.Levelfmt.U |]
  in
  let vec b = (Costsim.estimate machine wl (ucu b)).Costsim.vec_factor in
  Alcotest.(check (float 0.0)) "b=8 partial" 2.0 (vec 8);
  Alcotest.(check (float 0.0)) "b=16 vectorized" 8.0 (vec 16);
  Alcotest.(check (float 0.0)) "amd vectorizes at 4"
    4.0
    (Costsim.estimate Machine.amd_like wl (ucu 4)).Costsim.vec_factor

(* The coupled behaviour of Table 1: on a blocked matrix, BCSR wins only
   with a matched (smaller) chunk size. *)
let test_coupled_format_chunk () =
  let r = rng () in
  let m = Gen.block_dense r ~block:8 ~nrows:2000 ~ncols:2000 ~nnz:300000 in
  let wl = Workload.of_coo ~id:"coupled" m in
  let csr_best =
    List.fold_left min infinity
      (List.map (fun c -> t_of wl { fixed with Superschedule.chunk = c }) [ 1; 4; 16; 64 ])
  in
  let bcsr_best =
    List.fold_left min infinity
      (List.map (fun c -> t_of wl { (bcsr 8) with Superschedule.chunk = c }) [ 1; 4; 16; 64 ])
  in
  Alcotest.(check bool) "tuned bcsr beats tuned csr on blocked matrix" true
    (bcsr_best < csr_best)

(* Parallelizing a size-1 derived variable gives no parallelism. *)
let test_degenerate_parallel_var () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:1000 ~ncols:1000 ~nnz:20000 in
  let wl = Workload.of_coo ~id:"degen" m in
  let serial = { fixed with Superschedule.par_var = Format_abs.Spec.bottom_var 0 } in
  (* split_i = 1 so i0 has size 1 *)
  Alcotest.(check bool) "serial slower than parallel" true
    (t_of wl serial > 2.0 *. t_of wl fixed)

(* Workload slice histograms. *)
let test_workload_slices () =
  let m =
    Coo.of_triplets ~nrows:4 ~ncols:4
      [ (0, 0, 1.); (0, 1, 1.); (1, 0, 1.); (3, 3, 1.) ]
  in
  let wl = Workload.of_coo ~id:"slices" m in
  Alcotest.(check (array int)) "row blocks of 2"
    [| 3; 1 |]
    (Workload.work_per_var_value wl ~dim:0 ~split:2 ~is_top:true);
  Alcotest.(check (array int)) "row mod 2"
    [| 2; 2 |]
    (Workload.work_per_var_value wl ~dim:0 ~split:2 ~is_top:false)

(* Conversion time grows with materialized size. *)
let test_convert_time_positive () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:500 ~ncols:500 ~nnz:5000 in
  let wl = Workload.of_coo ~id:"conv" m in
  Alcotest.(check bool) "positive" true (Costsim.convert_time machine wl fixed > 0.0)

(* Machine configs differ enough for Table 7 to be non-trivial. *)
let test_machines_rank_differently () =
  let r = rng () in
  let m = Gen.block_dense r ~block:16 ~nrows:1500 ~ncols:1500 ~nnz:150000 in
  let wl = Workload.of_coo ~id:"mach" m in
  let candidates =
    List.concat_map
      (fun b -> List.map (fun c -> { (bcsr b) with Superschedule.chunk = c }) [ 1; 16; 256 ])
      [ 2; 8; 16 ]
  in
  let best mc =
    List.fold_left
      (fun (bs, bt) s ->
        let t = Costsim.runtime mc wl s in
        if t < bt then (Some s, t) else (bs, bt))
      (None, infinity) candidates
    |> fst |> Option.get |> Superschedule.key
  in
  (* Not asserting inequality (could legitimately coincide), but both must
     produce valid winners; record the comparison result. *)
  let wi = best Machine.intel_like and wa = best Machine.amd_like in
  Alcotest.(check bool) "winners computed" true (String.length wi > 0 && String.length wa > 0)

(* Golden pin of the whole simulator: every float field of [estimate] by
   its bits, plus its two integer fields, over every generator family,
   seeded sampled schedules and all four kernels (MTTKRP over rank-3
   workloads).  A change to Costsim, Workload or the storage model that
   moves one bit of one estimate moves the digest. *)
let costsim_golden_text () =
  let buf = Buffer.create 65536 in
  let record wl s =
    let b = Costsim.estimate machine wl s in
    List.iter
      (fun f -> Printf.bprintf buf "%Lx " (Int64.bits_of_float f))
      Costsim.
        [
          b.seconds; b.serial_seconds; b.compute_seconds; b.memory_seconds;
          b.search_seconds; b.makespan_seconds; b.dram_bytes; b.flops;
          b.vec_factor; b.nvals;
        ];
    Printf.bprintf buf "%d %d\n" b.Costsim.discordant b.Costsim.threads_used
  in
  let r = Rng.create 4711 in
  let sample algo (wl : Workload.t) =
    for _ = 1 to 8 do
      record wl (Space.sample r algo ~dims:wl.Workload.dims)
    done
  in
  Array.iter
    (fun fam ->
      let m = Gen.generate r fam ~nrows:160 ~ncols:144 ~nnz:1200 in
      let wl = Workload.of_coo ~id:(Gen.family_name fam) m in
      List.iter
        (fun algo -> sample algo wl)
        [ Algorithm.Spmv; Algorithm.Spmm 32; Algorithm.Sddmm 16 ])
    Gen.all_families;
  (* Key spaces past the storage model's direct-mapped scratch. *)
  let wide = Workload.of_coo ~id:"wide" (Gen.uniform r ~nrows:3000 ~ncols:3000 ~nnz:8000) in
  sample (Algorithm.Spmm 32) wide;
  let uniform = Gen.tensor3_uniform r ~dim_i:48 ~dim_k:40 ~dim_l:36 ~nnz:900 in
  let blocked = Gen.tensor3_blocked r ~block:4 ~dim_i:48 ~dim_k:40 ~dim_l:36 ~nnz:900 in
  let skewed = Gen.tensor3_skewed r ~alpha:1.4 ~dim_i:48 ~dim_k:40 ~dim_l:36 ~nnz:900 in
  List.iter
    (fun t -> sample (Algorithm.Mttkrp 16) (Workload.of_tensor3 t))
    [ uniform; blocked; skewed ];
  Buffer.contents buf

(* Recorded before the flat-coordinate workload layout; any simulator
   change must leave it bit-identical. *)
let test_costsim_golden () =
  Alcotest.(check string)
    "estimate digest" "d713c2d4074afdb505de0214986c8b6d"
    (Digest.to_hex (Digest.string (costsim_golden_text ())))

let qcheck_threads_help_on_uniform =
  QCheck.Test.make ~name:"parallel beats serial-ish chunk extremes (prop)" ~count:20
    QCheck.small_nat
    (fun seed ->
      let r = Rng.create (seed + 77) in
      let m = Gen.uniform r ~nrows:1500 ~ncols:1500 ~nnz:30000 in
      let wl = Workload.of_coo ~id:(Printf.sprintf "u%d" seed) m in
      (* enormous chunk = all rows on one thread; must not beat chunk 16 *)
      let huge = t_of wl { fixed with Superschedule.chunk = 256 } in
      let ok = t_of wl { fixed with Superschedule.chunk = 16 } in
      ok <= huge *. 1.0001)

let () =
  Alcotest.run "machine"
    [
      ( "costsim",
        [
          Alcotest.test_case "positive finite" `Quick test_positive_and_finite;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "skew prefers fine chunks" `Quick test_skew_prefers_fine_chunks;
          Alcotest.test_case "discordant penalized" `Quick test_discordant_penalized;
          Alcotest.test_case "padding costs" `Quick test_padding_costs;
          Alcotest.test_case "simd threshold" `Quick test_simd_threshold;
          Alcotest.test_case "coupled format+chunk" `Quick test_coupled_format_chunk;
          Alcotest.test_case "degenerate parallel var" `Quick test_degenerate_parallel_var;
          Alcotest.test_case "workload slices" `Quick test_workload_slices;
          Alcotest.test_case "convert time" `Quick test_convert_time_positive;
          Alcotest.test_case "machines differ" `Quick test_machines_rank_differently;
          Alcotest.test_case "estimate golden" `Quick test_costsim_golden;
          QCheck_alcotest.to_alcotest qcheck_threads_help_on_uniform;
        ] );
    ]
