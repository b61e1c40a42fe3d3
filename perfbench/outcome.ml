(* What one workload run reports: operation counts, the end-to-end metrics
   (untraced mode) and the per-layer metrics (traced mode). *)

type metric = string * float * string

type t = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
}

(* Set-up repetitions per run; [setup_s] is their median. *)
let setup_reps = 9

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* [lats] in milliseconds, a failed operation as infinity so it misses
   every percentile. *)
let e2e ~(setup : _ System.setup) ~answers ~wall ~cpu ~lats ~speedup =
  let p90_tail = Array.length lats - int_of_float (ceil (0.9 *. float_of_int (Array.length lats))) in
  if p90_tail < 10 then
    Printf.eprintf "perfbench: only %d samples above p90 (want >= 10)\n%!" p90_tail;
  [
    ("setup_s", setup.System.setup_s, "s");
    ("throughput_qps", float_of_int answers /. wall, "1/s");
    ("latency_p50_ms", Kit.percentile lats 0.5, "ms");
    ("latency_p90_ms", Kit.percentile lats 0.9, "ms");
    ("cpu_ms_per_query", cpu *. 1e3 /. float_of_int (max 1 answers), "ms");
    ("speedup_geomean", speedup, "ratio");
    ("peak_heap_mb", peak_heap_mb (), "MB");
  ]

let make ~attempted ~failed ~(setup : _ System.setup) ~e2e ~layers =
  let layers =
    if layers = [] then []
    else
      layers
      @ [
          ("dataset.collect_s", setup.System.collect_med, "s");
          ("trainer.train_s", setup.System.train_med, "s");
          ("tuner.index_s", setup.System.index_med, "s");
        ]
  in
  { attempted; failed; e2e; layers }
