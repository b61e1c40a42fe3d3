(* The shared set-up every workload pays before its first timed query:
   collect the corpus ([Dataset.of_matrices]), train the SpMM cost model
   ([Trainer.train]) and build the search index ([Tuner.build_index]).
   Deterministic: every repetition yields the same weights and graph. *)

open Sptensor

type t = {
  model : Waco.Costmodel.t;
  index : Waco.Tuner.index;
  collect_s : float;
  train_s : float;
  index_s : float;
}

let build corpus =
  let seed = Inputs.corpus_seed in
  let data, collect_s =
    Kit.time (fun () ->
        Waco.Dataset.of_matrices (Rng.create (seed + 1)) Inputs.machine
          Inputs.algo corpus ~schedules_per_matrix:16 ~valid_fraction:0.2)
  in
  let model, train_s =
    Kit.time (fun () ->
        let model = Waco.Costmodel.create (Rng.create (seed + 2)) Inputs.algo in
        ignore
          (Waco.Trainer.train ~lr:2e-3 (Rng.create (seed + 3)) model data ~epochs:2);
        model)
  in
  let index, index_s =
    Kit.time (fun () ->
        Waco.Tuner.build_index (Rng.create (seed + 4)) model
          (Waco.Dataset.all_schedules data))
  in
  { model; index; collect_s; train_s; index_s }

(* Search knobs shared by the in-process tuner and the daemons. *)
let k = 10

let ef = 40

type 'env setup = {
  env : 'env;
  system : t;
  setup_s : float;  (** median over the repetitions *)
  collect_med : float;
  train_med : float;
  index_med : float;
}

(* Set up [reps] times — [up] brings the workload's serving side up on a
   freshly built system, [down] takes it away again — and keep the last.
   Set-up time runs from the first collect to the readiness of the last
   daemon.  Each repetition starts on a compacted heap, so none inherits
   the previous one's garbage or a major cycle half done. *)
let repeat ~reps corpus ~up ~down =
  let rec go i acc =
    Gc.compact ();
    let t0 = Kit.now () in
    let system = build corpus in
    let env = up system in
    let dt = Kit.now () -. t0 in
    let acc = (dt, system.collect_s, system.train_s, system.index_s,
               Waco.Costmodel.digest system.model) :: acc in
    if i + 1 < reps then begin
      down env;
      go (i + 1) acc
    end
    else (env, system, acc)
  in
  let env, system, runs = go 0 [] in
  let pick f = Kit.median (Array.of_list (List.map f runs)) in
  (* The repetitions must agree bit-for-bit: same data, same weights. *)
  let digests = List.sort_uniq compare (List.map (fun (_, _, _, _, d) -> d) runs) in
  Kit.Checks.require (List.length digests = 1)
    "set-up repetitions trained different model weights";
  {
    env;
    system;
    setup_s = pick (fun (t, _, _, _, _) -> t);
    collect_med = pick (fun (_, c, _, _, _) -> c);
    train_med = pick (fun (_, _, t, _, _) -> t);
    index_med = pick (fun (_, _, _, i, _) -> i);
  }

(* The traced tuning path: [Tuner.query]'s two preprocessing steps timed
   apart, then [Tuner.tune] itself, whose result carries the time of its
   three phases and their counters.  The traversal figure includes the
   symbolic pre-filter, which runs between the walk and the measurement. *)
let tuning_layers =
  [ "workload.of_coo"; "extractor.input"; "costmodel.feature"; "tuner.traversal";
    "costsim.measure" ]

let traced_query layers sys ~id ~measure m =
  let span name f = Kit.Layers.span layers name f in
  let wl = span "workload.of_coo" (fun () -> Machine_model.Workload.of_coo ~id m) in
  let input = span "extractor.input" (fun () -> Waco.Extractor.input_of_coo ~id m) in
  let r = Waco.Tuner.tune ~k ~ef ~measure sys.model Inputs.machine wl input sys.index in
  let add name v = Kit.Layers.add layers name v in
  add "costmodel.feature" r.Waco.Tuner.feature_seconds;
  add "tuner.traversal" r.Waco.Tuner.search_seconds;
  add "costsim.measure" r.Waco.Tuner.measure_seconds;
  add "tuner.cost_evals" (float_of_int r.Waco.Tuner.cost_evals);
  add "asym.pruned" (float_of_int r.Waco.Tuner.asym_pruned);
  add "costsim.runs" (float_of_int r.Waco.Tuner.measured_runs);
  r

(* The tuning-path metrics of [layers], each total multiplied by [scale]. *)
let tuning_metrics layers ~scale =
  let v name = Kit.Layers.total layers name *. scale in
  [
    ("workload.of_coo_ms", v "workload.of_coo" *. 1e3, "ms");
    ("extractor.input_ms", v "extractor.input" *. 1e3, "ms");
    ("costmodel.feature_ms", v "costmodel.feature" *. 1e3, "ms");
    ("tuner.traversal_ms", v "tuner.traversal" *. 1e3, "ms");
    ("tuner.cost_evals", v "tuner.cost_evals", "count");
    ("asym.pruned", v "asym.pruned", "count");
    ("costsim.measure_ms", v "costsim.measure" *. 1e3, "ms");
    ("costsim.runs", v "costsim.runs", "count");
  ]
