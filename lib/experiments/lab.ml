(* Shared experimental setup: corpora, trained models and tuner indexes,
   cached so the bench executable trains each (algorithm, machine, extractor)
   cost model at most once per run.  All sizes honour WACO_SCALE/WACO_EPOCHS. *)

open Sptensor
open Schedule
open Machine_model

let algo_of_name s =
  match Algorithm.of_name s with
  | Some a -> a
  | None -> invalid_arg ("Lab.algo_of_name: " ^ s)

(* The four evaluation algorithms with the paper's dense sizes: |j|=256 for
   SpMM/SDDMM and |j|=16 for MTTKRP.  The dense operand is analytic in the
   simulator, so the paper's sizes cost nothing extra. *)
let algorithms =
  [ Algorithm.Spmv; Algorithm.Spmm 256; Algorithm.Sddmm 256; Algorithm.Mttkrp 16 ]

let train_matrix_count () = Waco.Config.scaled 40
let test_matrix_count () = Waco.Config.scaled 30
let schedules_per_matrix () = Waco.Config.scaled 30

let max_dim = 1024
let max_nnz = 100000

(* Deterministic sub-streams so each corpus is independent of the others. *)
let rng_for tag =
  let base = Rng.create (Waco.Config.seed ()) in
  let r = ref (Rng.split base) in
  String.iter (fun c -> for _ = 0 to Char.code c mod 7 do r := Rng.split !r done) tag;
  !r

let train_corpus_2d =
  lazy
    (let rng = rng_for "train2d" in
     List.map
       (fun (n : Gen.named) -> (n.Gen.name, n.Gen.matrix))
       (Gen.suite rng ~count:(train_matrix_count ()) ~max_dim ~max_nnz))

let test_corpus_2d =
  lazy
    (let rng = rng_for "test2d" in
     List.map
       (fun (n : Gen.named) -> ("test_" ^ n.Gen.name, n.Gen.matrix))
       (Gen.suite rng ~count:(test_matrix_count ()) ~max_dim ~max_nnz))

let train_corpus_3d =
  lazy
    (let rng = rng_for "train3d" in
     List.map
       (fun (n : Gen.named3) -> (n.Gen.name3, n.Gen.tensor))
       (Gen.tensor3_suite rng ~count:(train_matrix_count ()) ~max_dim:196
          ~max_nnz:8000))

let test_corpus_3d =
  lazy
    (let rng = rng_for "test3d" in
     List.map
       (fun (n : Gen.named3) -> ("test_" ^ n.Gen.name3, n.Gen.tensor))
       (Gen.tensor3_suite rng ~count:(test_matrix_count ()) ~max_dim:196
          ~max_nnz:8000))

type trained = {
  model : Waco.Costmodel.t;
  data : Waco.Dataset.t;
  index : Waco.Tuner.index;
  curve : Waco.Trainer.curve;
  train_seconds : float;
}

let cache : (string, trained) Hashtbl.t = Hashtbl.create 8

let verbose = match Sys.getenv_opt "WACO_QUIET" with Some _ -> false | None -> true

let say fmt = Printf.ksprintf (fun s -> if verbose then Printf.eprintf "[lab] %s\n%!" s) fmt

(* Datasets depend on (algo, machine) but not the extractor kind; cache them
   so the Fig. 15 ablation doesn't regenerate runtimes per extractor. *)
let dataset_cache : (string, Waco.Dataset.t) Hashtbl.t = Hashtbl.create 8

let rec dataset_for rng machine (algo : Algorithm.t) =
  let key = Printf.sprintf "%s/%s" (Algorithm.name algo) machine.Machine.name in
  match Hashtbl.find_opt dataset_cache key with
  | Some d -> d
  | None ->
      let d = dataset_for_uncached rng machine algo in
      Hashtbl.add dataset_cache key d;
      d

and dataset_for_uncached rng machine (algo : Algorithm.t) =
  match algo with
  | Algorithm.Mttkrp _ ->
      Waco.Dataset.of_tensors rng machine algo (Lazy.force train_corpus_3d)
        ~schedules_per_matrix:(schedules_per_matrix ()) ~valid_fraction:0.2
  | Algorithm.Spmv | Algorithm.Spmm _ | Algorithm.Sddmm _ ->
      Waco.Dataset.of_matrices rng machine algo (Lazy.force train_corpus_2d)
        ~schedules_per_matrix:(schedules_per_matrix ()) ~valid_fraction:0.2

(* Train (or fetch) the WACO model for an algorithm on a machine. *)
let trained ?(kind = Waco.Extractor.Waconet) machine (algo : Algorithm.t) =
  let key =
    Printf.sprintf "%s/%s/%s" (Algorithm.name algo) machine.Machine.name
      (Waco.Extractor.kind_name kind)
  in
  match Hashtbl.find_opt cache key with
  | Some t -> t
  | None ->
      let rng = rng_for key in
      let t0 = Unix.gettimeofday () in
      say "training %s ..." key;
      let data = dataset_for rng machine algo in
      let model = Waco.Costmodel.create rng ~kind algo in
      let curve =
        Waco.Trainer.train ~lr:2e-3 ~pairs_per_step:24 rng model data
          ~epochs:(Waco.Config.epochs ())
      in
      let index = Waco.Tuner.build_index rng model (Waco.Dataset.all_schedules data) in
      let t = {
        model; data; index; curve;
        train_seconds = Unix.gettimeofday () -. t0;
      } in
      say "trained %s in %.1fs (val_acc %.3f, corpus %d)" key t.train_seconds
        curve.Waco.Trainer.valid_acc.(Array.length curve.Waco.Trainer.valid_acc - 1)
        index.Waco.Tuner.corpus_size;
      Hashtbl.add cache key t;
      t

(* Workload + extractor input for a test case. *)
let case_of_matrix name m =
  (Workload.of_coo ~id:name m, Waco.Extractor.input_of_coo ~id:name m)

let case_of_tensor name t =
  (Workload.of_tensor3 ~id:name t, Waco.Extractor.input_of_tensor3 ~id:name t)

let test_cases (algo : Algorithm.t) =
  match algo with
  | Algorithm.Mttkrp _ ->
      List.map (fun (n, t) -> (n, case_of_tensor n t)) (Lazy.force test_corpus_3d)
  | Algorithm.Spmv | Algorithm.Spmm _ | Algorithm.Sddmm _ ->
      List.map (fun (n, m) -> (n, case_of_matrix n m)) (Lazy.force test_corpus_2d)

let geomean xs =
  match xs with
  | [] -> 1.0
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log (Float.max 1e-12 x)) 0.0 xs
           /. float_of_int (List.length xs))

(* Tune every test case once per (algo, machine); cached because several
   experiments reuse the same tuning results. *)
type tuned_case = {
  case_name : string;
  wl : Workload.t;
  waco : Waco.Tuner.result;
}

let tuned_cache : (string, tuned_case list) Hashtbl.t = Hashtbl.create 8

let tuned_cases machine (algo : Algorithm.t) =
  let key = Printf.sprintf "%s/%s" (Algorithm.name algo) machine.Machine.name in
  match Hashtbl.find_opt tuned_cache key with
  | Some t -> t
  | None ->
      let { model; index; _ } = trained machine algo in
      let out =
        List.map
          (fun (name, (wl, input)) ->
            { case_name = name; wl;
              waco = Waco.Tuner.tune model machine wl input index })
          (test_cases algo)
      in
      Hashtbl.add tuned_cache key out;
      out
