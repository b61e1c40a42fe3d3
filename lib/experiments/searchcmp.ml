(* Fig. 16: search-strategy exploration on the bcsstk29 analogue.

   (a) best predicted cost vs trials, and wall time, for ANNS vs the
   HyperOpt-like TPE and the OpenTuner-like bandit ensemble — all searching
   the *same trained SpMM cost model*.  The black-box optimizers must run the
   full cost model (embedder + predictor) per trial and pay metadata time;
   ANNS only runs the predictor tail over embeddings memorized in the KNN
   graph.
   (b) search-time breakdown: feature extraction vs ANNS as nnz grows. *)

open Sptensor
open Schedule
open Machine_model

let log10 x = log x /. log 10.0

let run_a () =
  let machine = Machine.intel_like in
  let algo = Algorithm.Spmm 256 in
  let { Lab.model; index; _ } = Lab.trained machine algo in
  let rng = Lab.rng_for "searchcmp" in
  let m = Gen.bcsstk_like rng in
  let wl = Workload.of_coo ~id:"bcsstk" m in
  let input = Waco.Extractor.input_of_coo ~id:"bcsstk" m in
  let dims = wl.Workload.dims in
  Printf.printf "\n=== Figure 16a: search strategies on bcsstk29-analogue (SpMM) ===\n";
  (* Black-box strategies minimize the model's predicted cost. *)
  let feature = Waco.Costmodel.feature model input in
  ignore feature;
  let eval s = (Waco.Costmodel.predict model input [| s |]).(0) in
  let budget = Waco.Config.scaled 1000 in
  let results =
    [
      Blackbox.Strategies.random_search rng algo ~dims ~eval ~budget;
      Blackbox.Strategies.tpe rng algo ~dims ~eval ~budget;
      Blackbox.Strategies.bandit rng algo ~dims ~eval ~budget;
    ]
  in
  let t0 = Robust.mono_now () in
  let waco = Waco.Tuner.tune ~ef:64 model machine wl input index in
  let waco_wall = Robust.mono_now () -. t0 in
  Printf.printf "%-15s %8s %12s %10s %10s %12s\n" "strategy" "trials" "best(pred)"
    "wall(s)" "eval(s)" "eval-frac";
  List.iter
    (fun (r : Blackbox.Blackbox_common.result) ->
      Printf.printf "%-15s %8d %12.4f %10.3f %10.3f %11.1f%%\n"
        r.Blackbox.Blackbox_common.name r.Blackbox.Blackbox_common.trials
        r.Blackbox.Blackbox_common.best_cost r.Blackbox.Blackbox_common.total_seconds
        r.Blackbox.Blackbox_common.eval_seconds
        (100.0 *. r.Blackbox.Blackbox_common.eval_seconds
         /. Float.max 1e-9 r.Blackbox.Blackbox_common.total_seconds)
    )
    results;
  let anns_eval_frac =
    100.0 *. waco.Waco.Tuner.search_seconds /. Float.max 1e-9 waco_wall
  in
  Printf.printf "%-15s %8d %12.4f %10.3f %10.3f %11.1f%%  (graph hops only)\n"
    "ANNS (WACO)" waco.Waco.Tuner.cost_evals waco.Waco.Tuner.best_predicted waco_wall
    waco.Waco.Tuner.search_seconds anns_eval_frac;
  (* convergence curves at a few checkpoints *)
  Printf.printf "best-so-far (predicted) at trial checkpoints:\n";
  let checkpoints = [ 10; 30; 100; 300; budget ] in
  List.iter
    (fun (r : Blackbox.Blackbox_common.result) ->
      Printf.printf "  %-15s" r.Blackbox.Blackbox_common.name;
      List.iter
        (fun cp ->
          let best =
            Array.fold_left
              (fun acc (t, c) -> if t <= cp then Float.min acc c else acc)
              infinity r.Blackbox.Blackbox_common.history
          in
          Printf.printf " %8.3f@%d" best cp)
        checkpoints;
      Printf.printf "\n")
    results;
  (* measured quality of each strategy's chosen schedule *)
  Printf.printf "measured runtime of chosen schedules (log10 s):\n";
  List.iter
    (fun (r : Blackbox.Blackbox_common.result) ->
      Printf.printf "  %-15s %8.3f\n" r.Blackbox.Blackbox_common.name
        (log10 (Costsim.runtime machine wl r.Blackbox.Blackbox_common.best)))
    results;
  Printf.printf "  %-15s %8.3f\n" "ANNS (WACO)" (log10 waco.Waco.Tuner.best_measured);
  Printf.printf
    "(paper: ANNS reaches the lowest cost within equal trials and far less time;\n OpenTuner comparable cost but much slower; eval fraction 93.9%% vs 3.9/8.1%%)\n"

let run_b () =
  let machine = Machine.intel_like in
  let algo = Algorithm.Spmm 256 in
  let { Lab.model; index; _ } = Lab.trained machine algo in
  let rng = Lab.rng_for "searchcmp-b" in
  Printf.printf "\n=== Figure 16b: WACO search-time breakdown vs nnz ===\n";
  Printf.printf "%10s %14s %14s %12s\n" "nnz" "feature(s)" "ANNS(s)" "feat-frac";
  List.iter
    (fun nnz ->
      let n = max 256 (nnz / 8) in
      let m = Gen.uniform rng ~nrows:n ~ncols:n ~nnz in
      let id = Printf.sprintf "bd-%d" nnz in
      let wl = Workload.of_coo ~id m in
      let input = Waco.Extractor.input_of_coo ~id m in
      Waco.Costmodel.clear_feature_cache model;
      let r = Waco.Tuner.tune model machine wl input index in
      Printf.printf "%10d %14.4f %14.4f %11.1f%%\n" nnz r.Waco.Tuner.feature_seconds
        r.Waco.Tuner.search_seconds
        (100.0 *. r.Waco.Tuner.feature_seconds
         /. Float.max 1e-9 (r.Waco.Tuner.feature_seconds +. r.Waco.Tuner.search_seconds)))
    (List.map Waco.Config.scaled [ 2000; 8000; 30000; 100000; 300000 ]);
  Printf.printf
    "(paper: ANNS dominates below ~1.5M nnz; feature extraction dominates beyond,\n because sparse convolution cost scales with nnz)\n"

let run () =
  run_a ();
  run_b ()
