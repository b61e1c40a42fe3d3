(* The benchmark's entry point:

     main.exe --workload tune-cold|serve-hot|serve-churn --seed N
              --seconds S --trace 0|1

   One process per run.  It prints the host block and the workload's
   parameters, then, as its last line, one JSON object: whether every
   output check passed, the operations attempted and failed, and the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   Any failed check exits 1 after that line. *)

(* Every per-layer metric, in output order.  A layer the workload's path
   does not touch reports 0. *)
let per_layer =
  [
    ("workload.of_coo_ms", "ms"); ("extractor.input_ms", "ms");
    ("costmodel.feature_ms", "ms"); ("tuner.traversal_ms", "ms");
    ("tuner.cost_evals", "count");
    ("asym.pruned", "count"); ("costsim.measure_ms", "ms"); ("costsim.runs", "count");
    ("protocol.encode_us", "us"); ("protocol.decode_us", "us"); ("fingerprint.us", "us");
    ("server.batch_ms", "ms"); ("server.batch_size", "count");
    ("server.io_loop_ms", "ms"); ("server.live_mb_per_pattern", "MB");
    ("cache.hit_rate", "ratio"); ("cache.evictions", "count"); ("cache.save_ms", "ms");
    ("router.hop_us", "us"); ("router.balance", "ratio");
    ("dataset.collect_s", "s"); ("trainer.train_s", "s"); ("tuner.index_s", "s");
    ("trace.coverage", "ratio"); ("trace.overhead_ms", "ms");
  ]

let workloads =
  [
    ("tune-cold", Tune_cold.run);
    ("serve-hot", Serving.run_hot);
    ("serve-churn", Serving.run_churn);
  ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " tune-cold | serve-hot | serve-churn");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed window");
      ("--trace", Arg.Set_int trace, " 1: report per-layer metrics instead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seed >= 0 && !seconds > 0.0 && (!trace = 0 || !trace = 1) -> run
    | _ ->
        prerr_endline "perfbench: need --workload (tune-cold|serve-hot|serve-churn), --seed >= 0, --seconds > 0, --trace 0|1";
        exit 2
  in
  let trace = !trace = 1 in
  Printf.printf "host %s\n%!" (Kit.host_json ());
  let o : Outcome.t = run ~seed:!seed ~seconds:!seconds ~trace in
  let metrics =
    if trace then
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (n, _, _) -> n = name) o.Outcome.layers with
          | Some m -> m
          | None -> (name, 0.0, unit))
        per_layer
    else o.Outcome.e2e
  in
  List.iter
    (fun (name, v, _) ->
      Kit.Checks.require (Float.is_finite v) (Printf.sprintf "metric %s is not finite" name))
    metrics;
  let metrics =
    List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else -1.0), u)) metrics
  in
  Kit.Checks.report ();
  let correct = Kit.Checks.ok () && o.Outcome.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct (max 1 o.Outcome.attempted) o.Outcome.failed (Kit.metrics_json metrics);
  exit (if correct then 0 else 1)
