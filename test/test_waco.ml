(* Tests for the WACO core: cost model wiring, gradients through the full
   model, dataset generation, persistence, tuner mechanics. *)

open Sptensor
open Schedule
open Machine_model

let rng () = Rng.create 2023

let algo = Algorithm.Spmm 8

let dims = [| 80; 80 |]

let small_input r =
  let m = Gen.clustered r ~cluster:4 ~nrows:80 ~ncols:80 ~nnz:300 in
  (m, Waco.Extractor.input_of_coo ~id:"cm" m)

let test_extractors_shapes () =
  let r = rng () in
  let _, input = small_input r in
  List.iter
    (fun kind ->
      let e = Waco.Extractor.create r kind in
      let f = Waco.Extractor.forward e input in
      Alcotest.(check int)
        (Waco.Extractor.kind_name kind ^ " feature dim")
        Waco.Config.feature_dim (Array.length f))
    [ Waco.Extractor.Human; Waco.Extractor.Dense_conv; Waco.Extractor.Minkowski;
      Waco.Extractor.Waconet ]

let test_extractor_deterministic () =
  let r = rng () in
  let _, input = small_input r in
  let e = Waco.Extractor.create r Waco.Extractor.Waconet in
  let f1 = Waco.Extractor.forward e input in
  let f2 = Waco.Extractor.forward e input in
  Alcotest.(check (array (float 1e-12))) "same forward" f1 f2

let test_embedder_batch_consistency () =
  let r = rng () in
  let emb = Waco.Embedder.create r ~rank:2 in
  let scheds =
    Array.of_list (Space.sample_distinct r algo ~dims ~count:5)
  in
  let batch = Waco.Embedder.forward emb scheds in
  let single = Waco.Embedder.forward emb [| scheds.(3) |] in
  let d = Waco.Config.embed_dim in
  let slice = Array.sub batch (3 * d) d in
  Alcotest.(check (array (float 1e-9))) "batch row = single row" single slice

let test_costmodel_gradients_flow () =
  let r = rng () in
  let _, input = small_input r in
  let model = Waco.Costmodel.create r algo in
  let scheds = Array.of_list (Space.sample_distinct r algo ~dims ~count:6) in
  let pred, backward = Waco.Costmodel.forward_train model input scheds in
  backward (Array.map (fun p -> p) pred);
  let total_grad = Nn.Param.grad_l2 (Waco.Costmodel.params model) in
  Alcotest.(check bool) "gradients nonzero" true (total_grad > 1e-9)

(* Full-model gradient check on a smooth loss (sum of squared predictions). *)
let test_costmodel_gradcheck () =
  let r = rng () in
  let _, input = small_input r in
  let model = Waco.Costmodel.create r algo in
  let scheds = Array.of_list (Space.sample_distinct r algo ~dims ~count:4) in
  let loss_of () =
    let pred, _ = Waco.Costmodel.forward_train model input scheds in
    Array.fold_left (fun a p -> a +. (0.5 *. p *. p)) 0.0 pred
  in
  let pred, backward = Waco.Costmodel.forward_train model input scheds in
  backward (Array.copy pred);
  let eps = 1e-6 in
  let bad = ref 0 and checked = ref 0 in
  List.iter
    (fun (p : Nn.Param.t) ->
      let n = Nn.Param.size p in
      for t = 0 to min 1 (n - 1) do
        let idx = t * 7919 mod n in
        let orig = p.Nn.Param.data.(idx) in
        p.Nn.Param.data.(idx) <- orig +. eps;
        let lp = loss_of () in
        p.Nn.Param.data.(idx) <- orig -. eps;
        let lm = loss_of () in
        p.Nn.Param.data.(idx) <- orig;
        let fd = (lp -. lm) /. (2.0 *. eps) in
        let an = p.Nn.Param.grad.(idx) in
        let rel =
          Float.abs (fd -. an) /. Float.max 1e-4 (Float.max (Float.abs fd) (Float.abs an))
        in
        incr checked;
        (* ReLU subgradients at exact kinks can disagree; tolerate a few. *)
        if rel > 1e-2 then incr bad
      done)
    (Waco.Costmodel.params model);
  Alcotest.(check bool)
    (Printf.sprintf "gradcheck: %d/%d bad" !bad !checked)
    true
    (float_of_int !bad <= 0.06 *. float_of_int !checked)

let test_predict_tail_matches_full () =
  let r = rng () in
  let _, input = small_input r in
  let model = Waco.Costmodel.create r algo in
  let s = Space.sample r algo ~dims in
  let full = (Waco.Costmodel.predict model input [| s |]).(0) in
  let feature = Waco.Costmodel.feature model input in
  let embs = Waco.Costmodel.embed model [| s |] in
  let tail = (Waco.Costmodel.tail_scorer model ~feature ~embs ~batch:1).(0) in
  Alcotest.(check (float 1e-9)) "tail = full" full tail

(* The tuner's graph walk on a seeded model and index, for every kernel's
   one-hot: top-k ids, the bits of their predicted scores and the number of
   predictor evaluations, as recorded when each hop scored one node through
   a full predictor row.  Batching the hops and seeding the first layer
   with the per-query feature prefix must change none of it. *)
let test_search_by_pinned () =
  let r = Rng.create 1717 in
  let model = Waco.Costmodel.create r algo in
  let corpus = Array.of_list (Space.sample_distinct r algo ~dims ~count:160) in
  let hnsw = (Waco.Tuner.build_index r model corpus).Waco.Tuner.hnsw in
  let m = Gen.power_law r ~alpha:1.3 ~nrows:80 ~ncols:80 ~nnz:400 in
  let feature = Waco.Costmodel.feature model (Waco.Extractor.input_of_coo ~id:"pin" m) in
  let ed = Waco.Config.embed_dim in
  let buf = Buffer.create 1024 in
  let evals =
    List.map
      (fun kernel ->
        let score = Waco.Costmodel.tail_scorer ~kernel model ~feature in
        let score_batch ids =
          let embs = Array.make (Array.length ids * ed) 0.0 in
          Array.iteri
            (fun j id -> Array.blit hnsw.Anns.Hnsw.nodes.(id).Anns.Hnsw.vec 0 embs (j * ed) ed)
            ids;
          score ~embs ~batch:(Array.length ids)
        in
        let found, evals = Anns.Hnsw.search_by hnsw ~score_batch ~k:10 ~ef:40 () in
        Printf.bprintf buf "%s %d" (Waco.Kernel.name kernel) evals;
        List.iter
          (fun (d, id) -> Printf.bprintf buf " %d:%Lx" id (Int64.bits_of_float d))
          found;
        Buffer.add_char buf '\n';
        evals)
      Waco.Kernel.all
  in
  Alcotest.(check int) "index size" 160 (Anns.Hnsw.size hnsw);
  Alcotest.(check (list int)) "evals" [ 119; 125; 144; 127 ] evals;
  Alcotest.(check string) "top-k ids and score bits" "79d05aa8e61c54e7d2826398c1142717"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_save_load_roundtrip () =
  let r = rng () in
  let _, input = small_input r in
  let model = Waco.Costmodel.create r algo in
  let s = Space.sample r algo ~dims in
  let before = (Waco.Costmodel.predict model input [| s |]).(0) in
  let path = Filename.temp_file "waco" ".model" in
  Waco.Costmodel.save model path;
  (* fresh model with different init *)
  let model2 = Waco.Costmodel.create (Rng.create 999) algo in
  let differs = (Waco.Costmodel.predict model2 input [| s |]).(0) <> before in
  Waco.Costmodel.load model2 path;
  Sys.remove path;
  let after = (Waco.Costmodel.predict model2 input [| s |]).(0) in
  Alcotest.(check bool) "fresh model differed" true differs;
  Alcotest.(check (float 1e-9)) "loaded model agrees" before after

let tiny_dataset r machine =
  let mats =
    List.init 6 (fun i ->
        (Printf.sprintf "m%d" i, Gen.uniform r ~nrows:80 ~ncols:80 ~nnz:400))
  in
  Waco.Dataset.of_matrices r machine algo mats ~schedules_per_matrix:10
    ~valid_fraction:0.3

let test_dataset_shapes () =
  let r = rng () in
  let data = tiny_dataset r Machine.intel_like in
  Alcotest.(check int) "train+valid = 6"
    6
    (Array.length data.Waco.Dataset.train + Array.length data.Waco.Dataset.valid);
  Alcotest.(check bool) "valid nonempty" true (Array.length data.Waco.Dataset.valid >= 1);
  Array.iter
    (fun (s : Waco.Dataset.sample) ->
      Alcotest.(check int) "schedules per matrix" 10 (Array.length s.Waco.Dataset.schedules);
      Array.iter
        (fun lr -> Alcotest.(check bool) "log runtime finite" true (Float.is_finite lr))
        s.Waco.Dataset.log_runtimes)
    data.Waco.Dataset.train;
  let corpus = Waco.Dataset.all_schedules data in
  Alcotest.(check bool) "corpus from train only" true
    (Array.length corpus <= 10 * Array.length data.Waco.Dataset.train)

let test_training_reduces_loss () =
  let r = rng () in
  let data = tiny_dataset r Machine.intel_like in
  let model = Waco.Costmodel.create r algo in
  let curve = Waco.Trainer.train ~lr:2e-3 r model data ~epochs:8 in
  let first = curve.Waco.Trainer.train_loss.(0) in
  let last = curve.Waco.Trainer.train_loss.(7) in
  Alcotest.(check bool)
    (Printf.sprintf "loss decreased (%.3f -> %.3f)" first last)
    true (last < first)

let test_tuner_end_to_end () =
  let r = rng () in
  let machine = Machine.intel_like in
  let data = tiny_dataset r Machine.intel_like in
  let model = Waco.Costmodel.create r algo in
  ignore (Waco.Trainer.train ~lr:2e-3 r model data ~epochs:4);
  let index = Waco.Tuner.build_index r model (Waco.Dataset.all_schedules data) in
  let m = Gen.uniform r ~nrows:90 ~ncols:90 ~nnz:500 in
  let wl = Workload.of_coo ~id:"tune-me" m in
  let input = Waco.Extractor.input_of_coo ~id:"tune-me" m in
  let res = Waco.Tuner.tune ~k:5 model machine wl input index in
  Alcotest.(check int) "measured top-k" 5 res.Waco.Tuner.measured_runs;
  Alcotest.(check bool) "chosen = min of measured" true
    (List.for_all (fun (_, t) -> res.Waco.Tuner.best_measured <= t) res.Waco.Tuner.topk);
  Alcotest.(check bool) "cost evals bounded by corpus" true
    (res.Waco.Tuner.cost_evals <= index.Waco.Tuner.corpus_size);
  Alcotest.(check (float 1e-12)) "measured agrees with simulator"
    (Costsim.runtime machine wl res.Waco.Tuner.best)
    res.Waco.Tuner.best_measured

let test_feature_cache () =
  let r = rng () in
  let _, input = small_input r in
  let model = Waco.Costmodel.create r algo in
  let f1 = Waco.Costmodel.feature model input in
  let f2 = Waco.Costmodel.feature model input in
  Alcotest.(check bool) "cached (same array)" true (f1 == f2);
  Waco.Costmodel.clear_feature_cache model;
  let f3 = Waco.Costmodel.feature model input in
  Alcotest.(check (array (float 1e-12))) "same values after clear" f1 f3

(* The feature memo is bounded: past its capacity it resets before adding,
   so it never holds more than [feature_capacity] features. *)
let test_feature_memo_bound () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:16 ~ncols:16 ~nnz:24 in
  let model = Waco.Costmodel.create r algo in
  let cap = Waco.Costmodel.feature_capacity in
  let input i = Waco.Extractor.input_of_coo ~id:(Printf.sprintf "p%d" i) m in
  let size () = Hashtbl.length model.Waco.Costmodel.feature_cache in
  let peak = ref 0 in
  for i = 1 to cap + 10 do
    ignore (Waco.Costmodel.feature model (input i));
    peak := max !peak (size ())
  done;
  Alcotest.(check bool) "single adds stay within capacity" true (!peak <= cap)

(* --- bitwise parity: the split inference path vs the full-row MLP --- *)

(* Every kernel the serving daemon conditions on, with sampling dims of the
   matching sparse rank. *)
let parity_kernels =
  [
    ("spmv", Schedule.Algorithm.Spmv, [| 96; 96 |]);
    ("spmm", Schedule.Algorithm.Spmm 8, [| 96; 96 |]);
    ("sddmm", Schedule.Algorithm.Sddmm 8, [| 96; 96 |]);
    ("mttkrp", Schedule.Algorithm.Mttkrp 8, [| 48; 48; 48 |]);
  ]

let parity_rng () = Rng.create 20230325

let check_bits what (want : float array) (got : float array) =
  if Array.length want <> Array.length got then
    Alcotest.failf "%s: length %d vs %d" what (Array.length want)
      (Array.length got);
  Array.iteri
    (fun i w ->
      if Int64.bits_of_float w <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s: element %d: full row %h vs split %h" what i w got.(i))
    want

(* [Costmodel.predict] (memoized feature, embedder, prefix-seeded tail)
   against the feature, embeddings and full rows built by hand. *)
let check_predict_parity ~what model input scheds =
  let kernel = Waco.Costmodel.kernel_of model in
  let ext = model.Waco.Costmodel.extractor in
  let emb = model.Waco.Costmodel.embedder in
  let ed = Waco.Embedder.out_dim emb in
  List.iter
    (fun batch ->
      let sub = Array.sub scheds 0 batch in
      let feature = Array.copy (Waco.Extractor.forward ext input) in
      let embs = Array.sub (Waco.Embedder.forward emb sub) 0 (batch * ed) in
      let rows = Waco.Costmodel.rows_of ~kernel ~feature ~embs ~batch in
      let want =
        Array.sub
          (Nn.Mlp.forward model.Waco.Costmodel.predictor ~batch rows)
          0 batch
      in
      let got = Waco.Costmodel.predict model input sub in
      check_bits (Printf.sprintf "%s batch=%d" what batch) want got)
    [ 1; 7; 32 ]

let test_predict_parity () =
  List.iter
    (fun (name, algo, dims) ->
      let r = parity_rng () in
      let model = Waco.Costmodel.create (Rng.create 77) algo in
      let m = Gen.uniform r ~nrows:96 ~ncols:96 ~nnz:600 in
      let input = Waco.Extractor.input_of_coo ~id:("p_" ^ name) m in
      let scheds = Array.init 32 (fun _ -> Schedule.Space.sample r algo ~dims) in
      check_predict_parity ~what:("predict " ^ name) model input scheds)
    parity_kernels

(* Trained weights: in-place optimizer updates must reach every inference
   path.  Recipe mirrors test_perf's golden run. *)
let test_trained_predict_parity () =
  let machine = Machine_model.Machine.intel_like in
  let algo = Schedule.Algorithm.Spmm 8 in
  let trng = Rng.create 4242 in
  let mats =
    Gen.suite trng ~count:4 ~max_dim:96 ~max_nnz:2000
    |> List.map (fun (g : Gen.named) -> (g.Gen.name, g.Gen.matrix))
  in
  let data =
    Waco.Dataset.of_matrices trng machine algo mats ~schedules_per_matrix:6
      ~valid_fraction:0.25
  in
  let model = Waco.Costmodel.create (Rng.create 77) algo in
  let _curve = Waco.Trainer.train trng model data ~epochs:2 in
  Waco.Costmodel.clear_feature_cache model;
  let r = parity_rng () in
  let m = Gen.uniform r ~nrows:96 ~ncols:96 ~nnz:600 in
  let input = Waco.Extractor.input_of_coo ~id:"trained" m in
  let scheds =
    Array.init 32 (fun _ -> Schedule.Space.sample r algo ~dims:[| 96; 96 |])
  in
  check_predict_parity ~what:"trained predict" model input scheds

(* The graph walk's scorer runs the predictor's first layer over the
   feature columns once per query and resumes that reduction per batch of
   embeddings (DESIGN.md §14).  Every prediction must equal Nn.Mlp.forward
   over the full row, bit for bit, for each kernel's one-hot.  All four
   scorers of a feature are built before any of them runs, so each call
   follows another scorer's and must run from its own prefix. *)
let test_tail_prefix_parity () =
  let r = parity_rng () in
  let fd = Waco.Config.feature_dim and ed = Waco.Config.embed_dim in
  List.iter
    (fun (name, algo, _) ->
      let model = Waco.Costmodel.create (Rng.create 91) algo in
      for trial = 0 to 1 do
        let feature = Array.init fd (fun _ -> Rng.float_in r (-4.0) 4.0) in
        let scorers =
          List.map
            (fun kernel -> (kernel, Waco.Costmodel.tail_scorer ~kernel model ~feature))
            Waco.Kernel.all
        in
        List.iter
          (fun batch ->
            let embs = Array.init (batch * ed) (fun _ -> Rng.float_in r (-3.0) 3.0) in
            List.iter
              (fun (kernel, score) ->
                let rows = Waco.Costmodel.rows_of ~kernel ~feature ~embs ~batch in
                let want =
                  Array.sub (Nn.Mlp.forward model.Waco.Costmodel.predictor ~batch rows) 0 batch
                in
                check_bits
                  (Printf.sprintf "%s trial %d %s batch=%d" name trial
                     (Waco.Kernel.name kernel) batch)
                  want
                  (Array.sub (score ~embs ~batch) 0 batch))
              scorers)
          [ 1; 3; 4; 5; 7; 32 ]
      done)
    parity_kernels

let () =
  Alcotest.run "waco"
    [
      ( "costmodel",
        [
          Alcotest.test_case "extractor shapes" `Quick test_extractors_shapes;
          Alcotest.test_case "extractor deterministic" `Quick test_extractor_deterministic;
          Alcotest.test_case "embedder batch" `Quick test_embedder_batch_consistency;
          Alcotest.test_case "gradients flow" `Quick test_costmodel_gradients_flow;
          Alcotest.test_case "gradcheck" `Slow test_costmodel_gradcheck;
          Alcotest.test_case "predict tail" `Quick test_predict_tail_matches_full;
          Alcotest.test_case "pinned graph walk" `Quick test_search_by_pinned;
          Alcotest.test_case "save/load" `Quick test_save_load_roundtrip;
          Alcotest.test_case "feature cache" `Quick test_feature_cache;
          Alcotest.test_case "feature memo bound" `Quick test_feature_memo_bound;
        ] );
      ( "training",
        [
          Alcotest.test_case "dataset shapes" `Quick test_dataset_shapes;
          Alcotest.test_case "loss decreases" `Slow test_training_reduces_loss;
          Alcotest.test_case "tuner end-to-end" `Slow test_tuner_end_to_end;
        ] );
      ( "bitwise parity",
        [
          Alcotest.test_case "costmodel predict" `Quick test_predict_parity;
          Alcotest.test_case "prefix-seeded tail" `Quick test_tail_prefix_parity;
          Alcotest.test_case "trained costmodel predict" `Slow
            test_trained_predict_parity;
        ] );
    ]
