(* lib/parallel tests: pool semantics (ordering, exceptions, reuse) and the
   determinism contract of every adoption site — a run on d domains must
   produce byte-identical artifacts to the sequential run, including under
   injected measurement faults. *)

open Sptensor
open Schedule
open Machine_model

let algo = Algorithm.Spmm 256
let machine = Machine.intel_like

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

let with_pool domains f =
  let p = Parallel.Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) (fun () -> f p)

(* --- pool combinators -------------------------------------------------- *)

let test_parallel_for () =
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          let n = 1000 in
          let hits = Array.make n 0 in
          Parallel.Pool.parallel_for p ~n (fun i -> hits.(i) <- hits.(i) + 1);
          Alcotest.(check (array int))
            (Printf.sprintf "every index once (domains=%d)" domains)
            (Array.make n 1) hits))
    [ 1; 2; 4 ]

let test_map_ordering () =
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          let input = Array.init 777 (fun i -> i) in
          let out = Parallel.Pool.parallel_map_array p (fun x -> x * x) input in
          Alcotest.(check (array int))
            (Printf.sprintf "slot i holds f(i) (domains=%d)" domains)
            (Array.map (fun x -> x * x) input)
            out))
    [ 1; 3 ]

let test_reduce_ordered_matches_sequential () =
  (* Catastrophic-cancellation-prone values: any reassociation of the fold
     changes the result, so bit-equality proves sequential fold order. *)
  let n = 4096 in
  let v i = if i mod 2 = 0 then 1e16 +. float_of_int i else -1e16 +. float_of_int i in
  let seq = ref 0.0 in
  for i = 0 to n - 1 do
    seq := !seq +. v i
  done;
  with_pool 4 (fun p ->
      let par =
        Parallel.Pool.reduce_ordered p ~n ~map:v ~fold:( +. ) ~init:0.0 ()
      in
      Alcotest.(check (float 0.0)) "bit-identical float fold" !seq par)

let test_exception_propagates () =
  with_pool 4 (fun p ->
      match
        Parallel.Pool.parallel_for p ~n:100 (fun i ->
            if i = 63 then failwith "boom-63")
      with
      | () -> Alcotest.fail "exception swallowed"
      | exception Failure m ->
          Alcotest.(check string) "the worker's exception" "boom-63" m);
  (* the pool survives a failed job *)
  with_pool 2 (fun p ->
      match
        Parallel.Pool.parallel_for p ~n:10 (fun i ->
            if i = 3 then failwith "first")
      with
      | () -> Alcotest.fail "exception swallowed"
      | exception Failure _ ->
          let out = Parallel.Pool.parallel_map_array p (fun x -> x + 1) [| 1; 2 |] in
          Alcotest.(check (array int)) "pool reusable after failure" [| 2; 3 |] out)

let test_env_domains () =
  Unix.putenv "WACO_DOMAINS" "3";
  Alcotest.(check int) "WACO_DOMAINS honoured" 3 (Parallel.Pool.env_domains ());
  Unix.putenv "WACO_DOMAINS" "0";
  Alcotest.(check bool) "nonsense ignored" true (Parallel.Pool.env_domains () >= 1);
  Unix.putenv "WACO_DOMAINS" ""

(* --- adoption sites: byte-identical artifacts -------------------------- *)

let mats seed =
  let r = Rng.create seed in
  List.map
    (fun nm -> (nm, Gen.uniform r ~nrows:40 ~ncols:40 ~nnz:200))
    [ "p0"; "p1"; "p2" ]

let collect pool seed =
  Waco.Dataset.of_matrices ?pool (Rng.create (seed + 1)) machine algo (mats seed)
    ~schedules_per_matrix:6 ~valid_fraction:0.25

let test_collection_bytes_identical () =
  let tuples_of data =
    let dir = tmpdir "waco-par-ds" in
    Waco.Dataset_io.save data ~dir;
    let bytes = read_raw (Filename.concat dir "tuples.txt") in
    rm_rf dir;
    bytes
  in
  let reference = tuples_of (collect None 7) in
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          Alcotest.(check string)
            (Printf.sprintf "tuples.txt bytes (domains=%d)" domains)
            reference
            (tuples_of (collect (Some p) 7))))
    [ 2; 4 ]

let test_index_build_identical () =
  let model = Waco.Costmodel.create (Rng.create 31) algo in
  let corpus =
    let r = Rng.create 8 in
    Array.init 600 (fun _ -> Space.sample r algo ~dims:[| 48; 48 |])
  in
  let dump_with pool =
    let index = Waco.Tuner.build_index ?pool (Rng.create 9) model corpus in
    Anns.Hnsw.dump index.Waco.Tuner.hnsw ~payload:Sched_io.serialize
  in
  let reference = dump_with None in
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          Alcotest.(check string)
            (Printf.sprintf "HNSW dump (domains=%d)" domains)
            reference
            (dump_with (Some p))))
    [ 2; 4 ]

let test_eval_set_identical () =
  let data = collect None 12 in
  let model = Waco.Costmodel.create (Rng.create 31) algo in
  let l0, a0 = Waco.Trainer.eval_set model data.Waco.Dataset.train in
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          let l, a = Waco.Trainer.eval_set ~pool:p model data.Waco.Dataset.train in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "eval loss (domains=%d)" domains) l0 l;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "eval acc (domains=%d)" domains) a0 a))
    [ 2; 4 ]

(* --- parallel measurement under injected faults ------------------------ *)

let test_tune_parallel_faults () =
  let rng = Rng.create 51 in
  let model = Waco.Costmodel.create rng algo in
  let m = Gen.uniform (Rng.create 52) ~nrows:48 ~ncols:48 ~nnz:300 in
  let wl = Workload.of_coo ~id:"parfault" m in
  let input = Waco.Extractor.input_of_coo ~id:"parfault" m in
  let corpus = Array.init 24 (fun _ -> Space.sample rng algo ~dims:[| 48; 48 |]) in
  let index = Waco.Tuner.build_index rng model corpus in
  with_pool 4 (fun p ->
      (* transient hiccups: the mutex-serialized fault counters hand out
         exactly two injections whatever the domain interleaving, and the
         per-run retries absorb them *)
      Robust.Faults.reset ();
      Robust.Faults.arm_transient_measures 2;
      let r =
        Waco.Tuner.tune ~pool:p ~k:4 model machine wl input index
      in
      Robust.Faults.reset ();
      Alcotest.(check bool) "not degraded" false r.Waco.Tuner.degraded;
      Alcotest.(check int) "no candidate dropped" 0 r.Waco.Tuner.measure_failures;
      Alcotest.(check int) "all candidates measured" 4 r.Waco.Tuner.measured_runs;
      (* the sequential run agrees on the winner *)
      let r_seq = Waco.Tuner.tune ~k:4 model machine wl input index in
      Alcotest.(check string) "same winner as sequential"
        (Superschedule.key r_seq.Waco.Tuner.best)
        (Superschedule.key r.Waco.Tuner.best);
      Alcotest.(check (float 0.0)) "same measured runtime"
        r_seq.Waco.Tuner.best_measured r.Waco.Tuner.best_measured;
      (* a persistently failing rig degrades identically to sequential *)
      Robust.Faults.arm_transient_measures max_int;
      let r2 =
        Waco.Tuner.tune ~pool:p ~k:4 model machine wl input index
      in
      Robust.Faults.reset ();
      Alcotest.(check bool) "degraded" true r2.Waco.Tuner.degraded;
      Alcotest.(check int) "all drops counted" 4 r2.Waco.Tuner.measure_failures)

(* --- satellite regressions --------------------------------------------- *)

let degenerate_sample nschedules =
  let m = Gen.uniform (Rng.create 3) ~nrows:16 ~ncols:16 ~nnz:40 in
  let wl = Workload.of_coo ~id:"degenerate" m in
  let input = Waco.Extractor.input_of_coo ~id:"degenerate" m in
  let schedules =
    Array.init nschedules (fun _ ->
        Space.sample (Rng.create 4) algo ~dims:[| 16; 16 |])
  in
  {
    Waco.Dataset.name = "degenerate";
    wl;
    input;
    schedules;
    log_runtimes = Array.make nschedules 0.0;
    valid_pairs = [||];
  }

let test_random_pairs_guards () =
  let rng = Rng.create 5 in
  (* zero schedules: no crash ([Rng.int _ 0] used to raise), no pairs *)
  Alcotest.(check int) "no pairs from an empty sample" 0
    (Array.length (Waco.Trainer.random_pairs rng (degenerate_sample 0) ~count:8));
  (* one schedule: the old fallback emitted useless (a, a) self-pairs *)
  Alcotest.(check int) "no pairs from a single schedule" 0
    (Array.length (Waco.Trainer.random_pairs rng (degenerate_sample 1) ~count:8));
  (* two or more: pairs always have distinct members *)
  let pairs = Waco.Trainer.random_pairs rng (degenerate_sample 3) ~count:64 in
  Alcotest.(check int) "requested count" 64 (Array.length pairs);
  Array.iter
    (fun (a, b) ->
      if a = b then Alcotest.failf "self-pair (%d, %d)" a b;
      if a < 0 || a > 2 || b < 0 || b > 2 then
        Alcotest.failf "pair out of range (%d, %d)" a b)
    pairs

let test_batch_of_pairs_empty () =
  let schedules, truth =
    Waco.Trainer.batch_of_pairs (degenerate_sample 0) [||]
  in
  Alcotest.(check int) "no schedules" 0 (Array.length schedules);
  Alcotest.(check int) "no truths" 0 (Array.length truth)

let test_train_skips_degenerate_sample () =
  (* A hand-built dataset whose only training sample has one schedule: the
     epoch must complete (skipping it with a log line) instead of crashing. *)
  let data =
    {
      Waco.Dataset.algo;
      kernel = Waco.Kernel.of_algo algo;
      machine;
      train = [| degenerate_sample 1 |];
      valid = [| degenerate_sample 2 |];
    }
  in
  let model = Waco.Costmodel.create (Rng.create 31) algo in
  let logs = ref [] in
  let curve =
    Waco.Trainer.train
      ~log:(fun s -> logs := s :: !logs)
      (Rng.create 7) model data ~epochs:1
  in
  Alcotest.(check int) "epoch completed" 1 (Array.length curve.Waco.Trainer.epochs);
  Alcotest.(check bool) "skip was logged" true
    (List.exists (fun s -> String.starts_with ~prefix:"skipping sample" s) !logs)

let test_heap_floats () =
  (* The backing array used to be seeded with [Obj.magic 0] — undefined
     behaviour for float-ish element types.  Push/pop a float-keyed heap
     through several growth cycles and check exact heap order. *)
  let h = Anns.Heap.create () in
  Alcotest.(check bool) "fresh heap empty" true (Anns.Heap.is_empty h);
  Alcotest.(check bool) "pop on empty" true (Anns.Heap.pop h = None);
  let r = Rng.create 13 in
  let keys = Array.init 100 (fun _ -> Rng.float r) in
  Array.iteri (fun i k -> Anns.Heap.push h k (float_of_int i)) keys;
  Alcotest.(check int) "size" 100 (Anns.Heap.size h);
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Array.iteri
    (fun rank expect ->
      match Anns.Heap.pop h with
      | Some (k, v) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "pop %d priority" rank) expect k;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "pop %d payload" rank)
            keys.(int_of_float v) k
      | None -> Alcotest.fail "heap ran dry early")
    sorted

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for;
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "ordered reduce" `Quick
            test_reduce_ordered_matches_sequential;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "WACO_DOMAINS knob" `Quick test_env_domains;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "collection bytes" `Slow
            test_collection_bytes_identical;
          Alcotest.test_case "index build" `Slow test_index_build_identical;
          Alcotest.test_case "eval set" `Slow test_eval_set_identical;
          Alcotest.test_case "tune under faults" `Slow test_tune_parallel_faults;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "random_pairs guards" `Quick test_random_pairs_guards;
          Alcotest.test_case "batch_of_pairs empty" `Quick
            test_batch_of_pairs_empty;
          Alcotest.test_case "train skips degenerate sample" `Quick
            test_train_skips_degenerate_sample;
          Alcotest.test_case "heap float soundness" `Quick test_heap_floats;
        ] );
    ]
