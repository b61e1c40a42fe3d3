(* waco — command-line driver.

     waco gen --out m.mtx --family rmat --rows 2048 --nnz 60000
     waco inspect m.mtx
     waco tune m.mtx --algo SpMM --machine intel
     waco train --algo SpMM --out model.txt
     waco bench table1 fig14 ...   (same targets as bench/main.exe)
*)

open Cmdliner
open Sptensor
open Schedule

let machine_of = function
  | "intel" -> Machine_model.Machine.intel_like
  | "amd" -> Machine_model.Machine.amd_like
  | s -> invalid_arg ("unknown machine: " ^ s ^ " (use intel|amd)")

let machine_arg =
  Arg.(value & opt string "intel" & info [ "machine" ] ~docv:"MACHINE"
         ~doc:"Machine model: intel|amd")

let algo_arg =
  Arg.(value & opt string "SpMM" & info [ "algo" ] ~docv:"ALGO"
         ~doc:"Algorithm: SpMV|SpMM|SDDMM|MTTKRP")

(* Kernel-first spelling of --algo: the lowercase names the serve protocol
   and cache namespaces use, at the paper's canonical dense sizes.  When
   given it wins over --algo. *)
let kernel_arg =
  Arg.(value & opt (some string) None & info [ "kernel" ] ~docv:"KERNEL"
         ~doc:"Kernel to target, by its wire name (spmv|spmm|sddmm|mttkrp); \
               shorthand for --algo at the paper's canonical dense sizes")

let kernel_of_cli kname =
  match Waco.Kernel.of_name kname with
  | Some k -> k
  | None ->
      invalid_arg
        (Printf.sprintf "unknown kernel: %s (expected one of %s)" kname
           (String.concat "|" (List.map Waco.Kernel.name Waco.Kernel.all)))

let resolve_algo ~algo_name = function
  | Some kname -> Waco.Kernel.to_algo (kernel_of_cli kname)
  | None -> Experiments.Lab.algo_of_name algo_name

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed")

(* Parallel phases stay sequential unless asked for: results are
   byte-identical either way (see lib/parallel), so the flag only trades
   wall-clock for cores. *)
let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Worker domains for the parallel phases (measurement, index \
               build, validation eval): 1 runs sequentially (default), 0 \
               uses the shared pool sized from WACO_DOMAINS or the machine, \
               N>1 creates a pool of exactly $(docv) domains")

let pool_of = function
  | 0 -> Some (Parallel.Pool.default ())
  | 1 -> None
  | n when n > 1 -> Some (Parallel.Pool.create ~domains:n)
  | n -> invalid_arg (Printf.sprintf "--domains %d: must be >= 0" n)

(* --- model bootstrap (tune, serve) ---

   A cost model and the schedule corpus its search index is built from.
   Both helpers draw from [rng] in a fixed order, so a given --seed gives
   the same model and answer. *)

(* Train a fresh cost model for [algo] on a synthetic corpus; its dataset's
   schedules are the index corpus. *)
let fresh_model ?pool rng machine algo =
  let corpus = Gen.suite rng ~count:16 ~max_dim:1024 ~max_nnz:60000 in
  let mats = List.map (fun (g : Gen.named) -> (g.Gen.name, g.Gen.matrix)) corpus in
  let data =
    Waco.Dataset.of_matrices ?pool rng machine algo mats ~schedules_per_matrix:24
      ~valid_fraction:0.2
  in
  let model = Waco.Costmodel.create rng algo in
  ignore (Waco.Trainer.train ?pool ~lr:2e-3 rng model data ~epochs:(Waco.Config.epochs ()));
  (model, Waco.Dataset.all_schedules data)

(* Load a saved model.  No dataset is on hand, so the index corpus is 256
   schedules sampled from the SuperSchedule space at [dims]. *)
let loaded_model rng algo file ~dims =
  let model = Waco.Costmodel.create rng algo in
  Waco.Costmodel.load model file;
  (model, Array.init 256 (fun _ -> Space.sample rng algo ~dims))

(* --- gen --- *)

let gen_cmd =
  let run out family rows cols nnz seed =
    let rng = Rng.create seed in
    let fam =
      match family with
      | "uniform" -> Gen.Uniform
      | "powerlaw" -> Gen.Power_law 1.4
      | "banded" -> Gen.Banded 16
      | "block" -> Gen.Block_dense 8
      | "rmat" -> Gen.Rmat
      | "stencil" -> Gen.Stencil2d
      | "clustered" -> Gen.Clustered 16
      | s -> invalid_arg ("unknown family: " ^ s)
    in
    let m = Gen.generate rng fam ~nrows:rows ~ncols:cols ~nnz in
    Mmio.write_coo out m;
    Printf.printf "wrote %s: %d x %d, %d nonzeros (%s)\n" out m.Coo.nrows m.Coo.ncols
      (Coo.nnz m) family
  in
  let out = Arg.(value & opt string "matrix.mtx" & info [ "out" ] ~doc:"Output path") in
  let family =
    Arg.(value & opt string "rmat" & info [ "family" ]
           ~doc:"uniform|powerlaw|banded|block|rmat|stencil|clustered")
  in
  let rows = Arg.(value & opt int 2048 & info [ "rows" ] ~doc:"Rows") in
  let cols = Arg.(value & opt int 0 & info [ "cols" ] ~doc:"Cols (default: rows)") in
  let nnz = Arg.(value & opt int 60000 & info [ "nnz" ] ~doc:"Nonzeros") in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic sparse matrix (MatrixMarket)")
    Term.(
      const (fun out family rows cols nnz seed ->
          run out family rows (if cols = 0 then rows else cols) nnz seed)
      $ out $ family $ rows $ cols $ nnz $ seed_arg)

(* --- inspect --- *)

let inspect_cmd =
  let run path =
    let m = Mmio.read_coo path in
    let s = Stats.compute m in
    Format.printf "%a@." Stats.pp s;
    Printf.printf "row nnz: mean %.1f std %.1f max %d; empty rows %d\n"
      s.Stats.row_nnz_mean s.Stats.row_nnz_std s.Stats.row_nnz_max s.Stats.empty_rows;
    List.iter
      (fun b ->
        let bs = Stats.block_stats m ~bi:b ~bk:b in
        Printf.printf "%dx%d blocks: %d nonempty, fill %.2f\n" b b
          bs.Stats.nonempty_blocks bs.Stats.avg_fill)
      [ 2; 4; 8; 16 ]
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"MATRIX") in
  Cmd.v (Cmd.info "inspect" ~doc:"Print sparsity-pattern statistics")
    Term.(const run $ path)

(* --- tune --- *)

let tune_cmd =
  let run path algo_name kernel_name machine_name model_file index_file
      save_index_file seed domains =
    let machine = machine_of machine_name in
    let algo = resolve_algo ~algo_name kernel_name in
    let m = Mmio.read_coo path in
    let rng = Rng.create seed in
    let pool = pool_of domains in
    let wl = Machine_model.Workload.of_coo ~id:path m in
    let input = Waco.Extractor.input_of_coo ~id:path m in
    (* Where the search index came from — a reloaded snapshot skips the
       rebuild, and the user should be able to tell which path they got. *)
    let provenance = ref "built fresh" in
    (* Per-reason pre-filter tallies for the summary line: what the index
       build dropped, per Asym.Prefilter reason. *)
    let idx_lint = ref 0 and idx_asym = ref 0 in
    let note_counts (index : Waco.Tuner.index) =
      idx_lint := index.Waco.Tuner.lint_rejected;
      idx_asym := index.Waco.Tuner.asym_rejected;
      index
    in
    let r =
      match
        let model, corpus =
          match model_file with
          | Some file ->
              (* The index corpus is sized to this matrix. *)
              loaded_model rng algo file
                ~dims:
                  (Array.init (Algorithm.sparse_rank algo) (fun i ->
                       if i = 0 then m.Coo.nrows else m.Coo.ncols))
          | None ->
              Printf.eprintf
                "training a fresh %s cost model (pass --model to reuse one)...\n%!"
                algo_name;
              fresh_model ?pool rng machine algo
        in
        let index =
          match index_file with
          | Some file ->
              let index = Waco.Tuner.load_index rng ~algo file in
              provenance :=
                Printf.sprintf "snapshot %s (%d schedules)" file
                  index.Waco.Tuner.corpus_size;
              note_counts index
          | None ->
              let az = Asym.Analyzer.of_workload ~algo wl in
              let index =
                Waco.Tuner.build_index ?pool ~asym:az rng model corpus
              in
              provenance :=
                Printf.sprintf "built fresh (%d schedules, %.2fs)"
                  index.Waco.Tuner.corpus_size index.Waco.Tuner.build_seconds;
              note_counts index
        in
        (match save_index_file with
        | Some file ->
            Waco.Tuner.save_index index file;
            Printf.eprintf "saved index snapshot to %s\n%!" file
        | None -> ());
        (model, index)
      with
      | exception Robust.Load_error err ->
          (* A damaged model or index must not abort the run: fall back to
             the fixed-CSR baseline and say so. *)
          let reason = Robust.load_error_to_string err in
          Printf.eprintf "waco tune: %s; degrading to the fixed-CSR baseline\n%!"
            reason;
          Waco.Tuner.degraded machine wl algo ~reason
      | model, index -> Waco.Tuner.tune ?pool model machine wl input index
    in
    let csr = Baselines.fixed_csr machine wl algo in
    Printf.printf "chosen   : %s\n" (Superschedule.describe r.Waco.Tuner.best);
    Printf.printf "kernel   : %.3e s (model)\n" r.Waco.Tuner.best_measured;
    Printf.printf "fixed CSR: %.3e s -> speedup %.2fx\n" csr.Baselines.kernel_time
      (csr.Baselines.kernel_time /. r.Waco.Tuner.best_measured);
    Printf.printf "overhead : feature %.3fs, search %.4fs (%d cost-model evals)\n"
      r.Waco.Tuner.feature_seconds r.Waco.Tuner.search_seconds r.Waco.Tuner.cost_evals;
    Printf.printf "index    : %s\n"
      (if r.Waco.Tuner.degraded then "unused (degraded run)" else !provenance);
    Printf.printf "prefilter: index dropped %d (lint) + %d (asym); query pruned \
                   %d candidates (asym)\n"
      !idx_lint !idx_asym r.Waco.Tuner.asym_pruned;
    Printf.printf "degraded : %s\n"
      (match r.Waco.Tuner.degraded_reason with
      | Some why -> "yes (" ^ why ^ ")"
      | None -> "no")
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"MATRIX") in
  let model_file =
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"FILE"
           ~doc:"Reuse a cost model saved by `waco train` instead of training")
  in
  let index_file =
    Arg.(value & opt (some string) None & info [ "index" ] ~docv:"FILE"
           ~doc:"Reuse an index snapshot saved with --save-index")
  in
  let save_index_file =
    Arg.(value & opt (some string) None & info [ "save-index" ] ~docv:"FILE"
           ~doc:"Snapshot the built search index for later runs")
  in
  Cmd.v (Cmd.info "tune" ~doc:"Co-optimize format+schedule for a matrix")
    Term.(
      const run $ path $ algo_arg $ kernel_arg $ machine_arg $ model_file
      $ index_file $ save_index_file $ seed_arg $ domains_arg)

(* --- collect --- *)

let collect_cmd =
  let run algo_name kernel_name machine_name out count spm append seed domains =
    let machine = machine_of machine_name in
    let algo = resolve_algo ~algo_name kernel_name in
    let rng = Rng.create seed in
    let pool = pool_of domains in
    let corpus = Gen.suite rng ~count ~max_dim:1024 ~max_nnz:80000 in
    let mats = List.map (fun (g : Gen.named) -> (g.Gen.name, g.Gen.matrix)) corpus in
    let data =
      Waco.Dataset.of_matrices ?pool rng machine algo mats
        ~schedules_per_matrix:spm ~valid_fraction:0.2
    in
    if append then Waco.Dataset_io.append data ~dir:out
    else Waco.Dataset_io.save data ~dir:out;
    Printf.printf "%s %d tuples over %d matrices %s %s\n"
      (if append then "appended" else "collected")
      (Waco.Dataset.total_tuples data) count
      (if append then "onto" else "into")
      out
  in
  let out = Arg.(value & opt string "waco-data" & info [ "out" ] ~doc:"Output directory") in
  let count = Arg.(value & opt int 32 & info [ "matrices" ] ~doc:"Corpus size") in
  let spm = Arg.(value & opt int 30 & info [ "schedules" ] ~doc:"Schedules per matrix") in
  let append =
    Arg.(value & flag & info [ "append" ]
           ~doc:"Journal records onto an existing corpus (flushed per record) \
                 instead of rewriting it")
  in
  Cmd.v (Cmd.info "collect" ~doc:"Collect (matrix, schedule, runtime) tuples to disk")
    Term.(
      const run $ algo_arg $ kernel_arg $ machine_arg $ out $ count $ spm
      $ append $ seed_arg $ domains_arg)

(* --- train --- *)

let train_cmd =
  let run algo_name kernel_name machine_name out data_dir ckpt_dir ckpt_every
      resume seed domains =
    let machine = machine_of machine_name in
    let algo = resolve_algo ~algo_name kernel_name in
    if resume && ckpt_dir = None then
      invalid_arg "--resume needs --checkpoint-dir";
    let rng = Rng.create seed in
    let pool = pool_of domains in
    let data =
      match data_dir with
      | Some dir ->
          Waco.Dataset_io.load ~dir ~algo ~machine ~valid_fraction:0.2
            ~report:(fun msg -> Printf.eprintf "waco train: %s\n%!" msg)
            rng
      | None ->
          let corpus =
            Gen.suite rng ~count:(Waco.Config.scaled 32) ~max_dim:1024 ~max_nnz:80000
          in
          let mats = List.map (fun (g : Gen.named) -> (g.Gen.name, g.Gen.matrix)) corpus in
          Waco.Dataset.of_matrices ?pool rng machine algo mats
            ~schedules_per_matrix:30 ~valid_fraction:0.2
    in
    let model = Waco.Costmodel.create rng algo in
    let checkpoint =
      Option.map (fun dir -> { Waco.Trainer.dir; every = ckpt_every }) ckpt_dir
    in
    let curve =
      Waco.Trainer.train ?pool ~lr:2e-3 ~log:print_endline ?checkpoint ~resume
        rng model data ~epochs:(Waco.Config.epochs ())
    in
    Waco.Costmodel.save model out;
    Printf.printf "saved model to %s (val acc %.3f)\n" out
      curve.Waco.Trainer.valid_acc.(Array.length curve.Waco.Trainer.valid_acc - 1)
  in
  let out = Arg.(value & opt string "waco.model" & info [ "out" ] ~doc:"Model path") in
  let data_dir =
    Arg.(value & opt (some string) None & info [ "data" ]
           ~doc:"Train from tuples collected with `waco collect` instead of generating")
  in
  let ckpt_dir =
    Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Write atomic epoch checkpoints into $(docv)")
  in
  let ckpt_every =
    Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Checkpoint every $(docv) epochs (with --checkpoint-dir)")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Resume from the newest valid checkpoint in --checkpoint-dir \
                 (damaged checkpoints are skipped with a warning)")
  in
  Cmd.v (Cmd.info "train" ~doc:"Train and save a cost model")
    Term.(
      const run $ algo_arg $ kernel_arg $ machine_arg $ out $ data_dir
      $ ckpt_dir $ ckpt_every $ resume $ seed_arg $ domains_arg)

(* --- serve / query --- *)

let socket_arg =
  Arg.(value & opt string "waco.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path the daemon listens on")

(* `--listen`/`--connect` take the full endpoint syntax (a bare Unix-socket
   path, unix:PATH, or tcp:HOST:PORT) and override `--socket` when given,
   so every pre-TCP invocation keeps working unchanged. *)
let listen_arg =
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ENDPOINT"
         ~doc:"Listen endpoint: a Unix-socket path, unix:PATH, or \
               tcp:HOST:PORT (port 0 = kernel-chosen).  Overrides --socket")

let connect_arg =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ENDPOINT"
         ~doc:"Daemon endpoint to connect to: a Unix-socket path, unix:PATH, \
               or tcp:HOST:PORT.  Overrides --socket")

let endpoint_of ~socket ~override =
  let spec = match override with Some e -> e | None -> socket in
  match Serve.Addr.parse spec with
  | Ok _ -> spec
  | Error e ->
      Printf.eprintf "waco: bad endpoint: %s\n%!" e;
      exit 2

let serve_cmd =
  let run socket listen algo_name kernel_name extra_kernels machine_name
      model_file index_file cache_file cache_capacity max_batch k ef
      max_pending supervise max_restarts pidfile seed domains =
    let socket = endpoint_of ~socket ~override:listen in
    let log msg = Printf.eprintf "waco serve: %s\n%!" msg in
    (* Everything heavy — training, index build, the worker pool's domains —
       happens inside [worker], so under --supervise it runs in the forked
       child.  The supervisor parent stays domain-free (OCaml 5 forbids
       fork after any domain spawn) and owns nothing the worker could
       corrupt. *)
    let worker () =
    let machine = machine_of machine_name in
    let algo = resolve_algo ~algo_name kernel_name in
    let rng = Rng.create seed in
    let pool = pool_of domains in
    match
      let model, corpus =
        match model_file with
        | Some file ->
            (* The index corpus is sampled at the default dimensions. *)
            loaded_model rng algo file ~dims:(Array.make (Algorithm.sparse_rank algo) 1024)
        | None ->
            log ("training a fresh " ^ Algorithm.name algo
                 ^ " cost model (pass --model to reuse one)...");
            fresh_model ?pool rng machine algo
      in
      let index, index_src =
        match index_file with
        | Some file -> (Waco.Tuner.load_index rng ~algo file, file)
        | None ->
            (Waco.Tuner.build_index ?pool rng model corpus, "<built fresh>")
      in
      log (Printf.sprintf "index: %s (%d schedules)" index_src
             index.Waco.Tuner.corpus_size);
      (* Each --extra-kernel gets its own freshly trained model and index;
         reusing snapshots across kernels would defeat the conditioned head. *)
      let extra =
        List.map
          (fun kname ->
            let kalgo = Waco.Kernel.to_algo (kernel_of_cli kname) in
            log ("training a fresh " ^ Algorithm.name kalgo
                 ^ " cost model for --extra-kernel " ^ kname ^ "...");
            let emodel, ecorpus = fresh_model ?pool rng machine kalgo in
            let eindex = Waco.Tuner.build_index ?pool rng emodel ecorpus in
            (emodel, eindex, "<built fresh>"))
          extra_kernels
      in
      Serve.Server.create ?pool ~cache_capacity ?cache_file ~max_batch ~k ~ef
        ~max_pending ~log ~extra ~model ~index ~index_file:index_src ~machine
        ~socket ()
    with
    | exception Robust.Load_error err ->
        (* Unlike `waco tune`, a daemon has nothing to degrade to: without a
           usable model/index pair there is no service to run. *)
        Printf.eprintf "waco serve: %s\n%!" (Robust.load_error_to_string err);
        exit 1
    | server -> Serve.Server.run server
    in
    if supervise then begin
      let on_spawn pid =
        match pidfile with
        | Some file -> (
            try Robust.write_atomic_string file (string_of_int pid ^ "\n")
            with _ -> log "could not write pidfile")
        | None -> ()
      in
      match
        Serve.Supervisor.run ~max_restarts ~seed ~on_spawn
          ~log:(fun m -> Printf.eprintf "waco serve[supervisor]: %s\n%!" m)
          worker
      with
      | Serve.Supervisor.Clean | Serve.Supervisor.Stopped -> ()
      | Serve.Supervisor.Gave_up n ->
          Printf.eprintf
            "waco serve: worker crashed %d times in a row; giving up\n%!" n;
          exit 1
    end
    else worker ()
  in
  let model_file =
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"FILE"
           ~doc:"Serve a cost model saved by `waco train` instead of training")
  in
  let index_file =
    Arg.(value & opt (some string) None & info [ "index" ] ~docv:"FILE"
           ~doc:"Serve an index snapshot saved with `waco tune --save-index`")
  in
  let cache_file =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE"
           ~doc:"Persist the schedule cache to $(docv) (write-through: a \
                 snapshot in $(docv), one fsynced append per batch to \
                 $(docv).journal) and reload it on restart when its \
                 model/index/machine stamp still matches")
  in
  let cache_capacity =
    Arg.(value & opt int 512 & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Entries kept in the LRU schedule cache")
  in
  let max_batch =
    Arg.(value & opt int 32 & info [ "max-batch" ] ~docv:"N"
           ~doc:"Most queries answered in one micro-batch")
  in
  let k =
    Arg.(value & opt int 10 & info [ "k" ] ~doc:"Top-k candidates measured per query")
  in
  let ef =
    Arg.(value & opt int 40 & info [ "ef" ] ~doc:"HNSW traversal beam width")
  in
  let max_pending =
    Arg.(value & opt int 256 & info [ "max-pending" ] ~docv:"N"
           ~doc:"Queued-query high-water mark; past it new queries answer \
                 busy with a retry hint instead of queueing")
  in
  let supervise =
    Arg.(value & flag & info [ "supervise" ]
           ~doc:"Fork the daemon as a supervised worker and restart it on \
                 crash with exponential backoff (the persistent --cache \
                 makes restarts warm)")
  in
  let max_restarts =
    Arg.(value & opt int 10 & info [ "max-restarts" ] ~docv:"N"
           ~doc:"With --supervise: give up after $(docv) consecutive crashes")
  in
  let pidfile =
    Arg.(value & opt (some string) None & info [ "pidfile" ] ~docv:"FILE"
           ~doc:"With --supervise: write the current worker's pid to $(docv) \
                 after every (re)start")
  in
  let extra_kernels =
    Arg.(value & opt_all string [] & info [ "extra-kernel" ] ~docv:"KERNEL"
           ~doc:"Also serve $(docv) (spmv|spmm|sddmm) from its own slot: a \
                 fresh cost model and index are trained at startup and the \
                 schedule cache is namespaced per kernel.  Repeatable; \
                 queries pick a slot with kernel=, and ones naming no kernel \
                 go to the spmv slot when present")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the autotuning daemon (model + index loaded once, requests \
             over a Unix or TCP socket)")
    Term.(
      const run $ socket_arg $ listen_arg $ algo_arg $ kernel_arg
      $ extra_kernels $ machine_arg $ model_file $ index_file $ cache_file
      $ cache_capacity $ max_batch $ k $ ef $ max_pending $ supervise
      $ max_restarts $ pidfile $ seed_arg $ domains_arg)

let query_cmd =
  let run socket connect matrix kernel_name no_measure qid deadline_ms
      timeout_s retries stats ping shutdown =
    let socket = endpoint_of ~socket ~override:connect in
    (* Validate before connecting: a typo'd kernel should not cost a round
       trip (the daemon would reject it too, satellite 3). *)
    let kernel = Option.map kernel_of_cli kernel_name in
    if matrix = None && not (stats || ping || shutdown) then begin
      prerr_endline
        "waco query: nothing to do (pass MATRIX, --stats, --ping or --shutdown)";
      exit 2
    end;
    let c =
      try Serve.Client.connect socket
      with
      | Unix.Unix_error (e, _, _) ->
          Printf.eprintf "waco query: cannot reach daemon at %s: %s\n%!" socket
            (Unix.error_message e);
          exit 1
      | Failure e ->
          Printf.eprintf "waco query: %s\n%!" e;
          exit 1
    in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        let failed = ref false in
        (match matrix with
        | None -> ()
        | Some path -> (
            match
              if retries > 1 then
                (* Fresh connections per attempt, qid-seeded backoff, busy
                   sheds honored — the resilient path. *)
                Serve.Client.query_with_retry ~attempts:retries ?timeout_s
                  ~measure:(not no_measure) ~deadline_ms ?kernel ~qid ~socket
                  (Serve.Protocol.Path path)
              else
                Serve.Client.query ~measure:(not no_measure) ~deadline_ms
                  ?kernel ~qid ?timeout_s c (Serve.Protocol.Path path)
            with
            | Ok (a : Serve.Protocol.answer) ->
                Printf.printf "schedule : %s\n" a.Serve.Protocol.schedule;
                Printf.printf "predicted: %.3e (log-scale model output)\n"
                  a.Serve.Protocol.predicted;
                if Float.is_finite a.Serve.Protocol.measured then
                  Printf.printf "measured : %.3e s\n" a.Serve.Protocol.measured;
                Printf.printf "cache    : %s\n"
                  (if a.Serve.Protocol.cache_hit then "hit" else "miss");
                (match a.Serve.Protocol.degraded_reason with
                | Some why -> Printf.printf "degraded : yes (%s)\n" why
                | None ->
                    if a.Serve.Protocol.degraded then
                      Printf.printf "degraded : yes\n");
                let s = a.Serve.Protocol.spans in
                List.iter
                  (fun (name, secs) ->
                    Printf.printf "span     : %-8s %.4fs\n" name secs)
                  [
                    ("parse", s.Serve.Protocol.parse_s);
                    ("extract", s.Serve.Protocol.extract_s);
                    ("traverse", s.Serve.Protocol.traverse_s);
                    ("measure", s.Serve.Protocol.measure_s);
                  ]
            | Error e ->
                Printf.eprintf "waco query: %s\n%!" e;
                failed := true
            | exception Failure e ->
                Printf.eprintf "waco query: %s\n%!" e;
                failed := true));
        (if stats then
           match Serve.Client.stats c with
           | Ok json -> print_endline json
           | Error e ->
               Printf.eprintf "waco query: stats: %s\n%!" e;
               failed := true);
        (if ping then
           if Serve.Client.ping c then print_endline "pong"
           else begin
             Printf.eprintf "waco query: no pong\n%!";
             failed := true
           end);
        (if shutdown then
           if Serve.Client.shutdown c then print_endline "daemon stopping"
           else begin
             Printf.eprintf "waco query: daemon refused shutdown\n%!";
             failed := true
           end);
        if !failed then exit 1)
  in
  let matrix =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"MATRIX"
           ~doc:"MatrixMarket file to tune (a path the daemon can read)")
  in
  let query_kernel =
    Arg.(value & opt (some string) None & info [ "kernel" ] ~docv:"KERNEL"
           ~doc:"Ask for a specific kernel's schedule (spmv|spmm|sddmm); the \
                 daemon must serve that kernel (--extra-kernel) or the query \
                 errors.  Omitted, the daemon answers from its spmv slot \
                 when it has one (old-client compatibility)")
  in
  let no_measure =
    Arg.(value & flag & info [ "no-measure" ]
           ~doc:"Skip the top-k simulator measurements (fast, predict-only \
                 answer)")
  in
  let qid =
    Arg.(value & opt string "cli" & info [ "qid" ] ~docv:"ID"
           ~doc:"Request label echoed in daemon traces")
  in
  let deadline_ms =
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Answer budget in milliseconds; on expiry the daemon answers \
                 from its cache or the asymptotic fallback, marked degraded \
                 (0 = no deadline)")
  in
  let timeout_s =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Give up waiting for a response after $(docv) seconds")
  in
  let retries =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
           ~doc:"Attempt the query up to $(docv) times with capped \
                 exponential backoff on transport failure or a busy shed \
                 (fresh connection per attempt)")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the daemon's metrics as JSON")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness check") in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Ask the daemon to persist its cache and exit")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one request to a running `waco serve` daemon or `waco \
             route` router")
    Term.(
      const run $ socket_arg $ connect_arg $ matrix $ query_kernel
      $ no_measure $ qid $ deadline_ms $ timeout_s $ retries $ stats $ ping
      $ shutdown)

(* --- route --- *)

let route_cmd =
  let run socket listen shards max_pending failover_hops =
    let listen = endpoint_of ~socket ~override:listen in
    if shards = [] then begin
      prerr_endline "waco route: pass at least one --shard ENDPOINT";
      exit 2
    end;
    List.iter
      (fun s ->
        match Serve.Addr.parse s with
        | Ok _ -> ()
        | Error e ->
            Printf.eprintf "waco route: bad shard endpoint: %s\n%!" e;
            exit 2)
      shards;
    let log msg = Printf.eprintf "waco route: %s\n%!" msg in
    match
      Serve.Router.create ~max_pending ~failover_hops ~log ~listen ~shards ()
    with
    | exception Invalid_argument e ->
        Printf.eprintf "waco route: %s\n%!" e;
        exit 2
    | router -> Serve.Router.run router
  in
  let shards =
    Arg.(value & opt_all string [] & info [ "shard" ] ~docv:"ENDPOINT"
           ~doc:"A shard daemon's endpoint (Unix-socket path, unix:PATH, or \
                 tcp:HOST:PORT).  Repeatable; each shard owns ~64 virtual \
                 points on the consistent-hash ring.  A shard down at start \
                 is redialed with backoff and joins the ring when it answers")
  in
  let max_pending =
    Arg.(value & opt int 1024 & info [ "max-pending" ] ~docv:"N"
           ~doc:"Queries awaiting a shard answer before the router sheds new \
                 ones with its own queue-depth retry hint (a shard's busy is \
                 always relayed with the shard's hint)")
  in
  let failover_hops =
    Arg.(value & opt int 1 & info [ "failover-hops" ] ~docv:"N"
           ~doc:"Additional shards a predict-only query may be retried on \
                 after a shard dies mid-query (measured queries answer an \
                 honest error instead)")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Run the consistent-hash router over N `waco serve` shard \
             daemons: queries spread by sparsity fingerprint, stats \
             aggregate across shards, dead shards fail over within bounds")
    Term.(
      const run $ socket_arg $ listen_arg $ shards $ max_pending
      $ failover_hops)

(* --- lint / explain --- *)

let algo_of_cli algo_name =
  match Algorithm.of_name algo_name with
  | Some a -> a
  | None -> invalid_arg ("unknown algorithm: " ^ algo_name)

(* "RxC"-style operand dimensions; empty means 1024 per sparse dim. *)
let dims_of_cli ~algo ~algo_name dims_text =
  let rank = Algorithm.sparse_rank algo in
  if dims_text = "" then Array.make rank 1024
  else begin
    let parts = String.split_on_char 'x' dims_text in
    let parsed =
      List.map
        (fun p ->
          match int_of_string_opt p with
          | Some v when v >= 1 -> v
          | _ -> invalid_arg ("bad --dims: " ^ dims_text))
        parts
    in
    if List.length parsed <> rank then
      invalid_arg
        (Printf.sprintf "--dims has %d components, %s needs %d"
           (List.length parsed) algo_name rank);
    Array.of_list parsed
  end

(* The asymptotic analyzer for a lint/explain invocation: workload-aware
   when a matrix is on hand, synthetic default statistics otherwise. *)
let analyzer_of_cli ~algo ~dims matrix =
  match matrix with
  | Some path ->
      let m = Mmio.read_coo path in
      Asym.Analyzer.of_workload ~algo (Machine_model.Workload.of_coo ~id:path m)
  | None -> Asym.Analyzer.create ~algo (Asym.Analyzer.default_stats ~algo ~dims ())

let lint_cmd =
  let run sched_text random_n matrix data_dir model index algo_name dims_text
      asymptotic json seed =
    let algo = algo_of_cli algo_name in
    let dims = dims_of_cli ~algo ~algo_name dims_text in
    let acc = ref [] in
    let emit ds = acc := !acc @ ds in
    (* The asymptotic pass rides along on schedule lints when requested;
       built lazily so `waco lint --matrix` alone doesn't pay for it. *)
    let analyzer = lazy (analyzer_of_cli ~algo ~dims matrix) in
    let check_schedule s =
      Analysis.Lint.check_schedule ~dims s
      @ if asymptotic then Asym.Analyzer.check (Lazy.force analyzer) s else []
    in
    (* One explicit schedule, parsed leniently so structural problems surface
       as diagnostics rather than aborting the whole run. *)
    (match sched_text with
    | None -> ()
    | Some text -> (
        match Sched_io.parse ~algo text with
        | Error e ->
            emit [ Diag.error ~code:"WACO-D006" ~loc:"--schedule" "unparseable schedule: %s" e ]
        | Ok s -> emit (check_schedule s)));
    (* Random samples from the SuperSchedule space (a smoke test of the
       sampler: legality findings here are generator bugs). *)
    (if random_n > 0 then begin
       let rng = Rng.create seed in
       for i = 0 to random_n - 1 do
         let s = Space.sample rng algo ~dims in
         emit
           (List.map
              (Diag.relocate ~prefix:(Printf.sprintf "sample[%d]" i))
              (check_schedule s))
       done
     end);
    (* Pack a matrix into the canonical formats and verify the physical
       storage invariants plus a COO round-trip. *)
    (match matrix with
    | None -> ()
    | Some path ->
        let m = Mmio.read_coo path in
        let mdims = [| m.Coo.nrows; m.Coo.ncols |] in
        let entries =
          Array.init (Coo.nnz m) (fun k ->
              ([| m.Coo.rows.(k); m.Coo.cols.(k) |], m.Coo.vals.(k)))
        in
        List.iter
          (fun (label, spec) ->
            let prefix = Printf.sprintf "%s[%s]" path label in
            match Analysis.Packed_check.pack_and_check spec entries with
            | Error ds -> emit (List.map (Diag.relocate ~prefix) ds)
            | Ok packed ->
                emit
                  (List.map (Diag.relocate ~prefix)
                     (Analysis.Packed_check.check ~reference:m packed)))
          [
            ("csr", Format_abs.Spec.csr_like ~dims:mdims);
            ("csc", Format_abs.Spec.csc ~dims:mdims);
            ("bcsr8", Format_abs.Spec.bcsr ~dims:mdims ~bi:8 ~bk:8);
            ("ucc256", Format_abs.Spec.sparse_block ~dims:mdims ~bk:256);
          ]);
    (match data_dir with None -> () | Some dir -> emit (Analysis.Dataset_check.check dir));
    (match model with None -> () | Some path -> emit (Analysis.Model_check.check path));
    (match index with
    | None -> ()
    | Some path -> emit (Analysis.Model_check.check_index path));
    (* With both artifacts on hand, also vet them as a pair (WACO-A008). *)
    (match (model, index) with
    | Some m, Some i -> emit (Analysis.Model_check.check_index_compat ~model:m ~index:i)
    | _ -> ());
    if sched_text = None && random_n = 0 && matrix = None && data_dir = None
       && model = None && index = None
    then begin
      prerr_endline
        "waco lint: nothing to lint (pass --schedule, --random, --matrix, \
         --data, --model or --index)";
      exit 2
    end;
    let ds = Diag.sort !acc in
    print_string (if json then Diag.render_json ds else Diag.render_text ds);
    exit (Diag.exit_code ds)
  in
  let sched =
    Arg.(value & opt (some string) None & info [ "schedule" ] ~docv:"SCHED"
           ~doc:"Lint one schedule in the dataset encoding \
                 (algo=..;splits=..;order=..;par=..;threads=..;chunk=..;aorder=..;afmt=..)")
  in
  let random_n =
    Arg.(value & opt int 0 & info [ "random" ] ~docv:"N"
           ~doc:"Lint $(docv) random samples from the schedule space")
  in
  let matrix =
    Arg.(value & opt (some string) None & info [ "matrix" ] ~docv:"FILE"
           ~doc:"Pack a MatrixMarket file into canonical formats and verify the storage")
  in
  let data_dir =
    Arg.(value & opt (some string) None & info [ "data" ] ~docv:"DIR"
           ~doc:"Lint a dataset directory collected with `waco collect`")
  in
  let model =
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"FILE"
           ~doc:"Lint a trained cost model saved with `waco train`")
  in
  let index =
    Arg.(value & opt (some string) None & info [ "index" ] ~docv:"FILE"
           ~doc:"Lint an index snapshot saved with `waco tune --save-index` \
                 (with --model, also checks the pair's embedding-dimension \
                 compatibility, WACO-A008)")
  in
  let dims =
    Arg.(value & opt string "" & info [ "dims" ] ~docv:"RxC"
           ~doc:"Sparse operand dimensions for schedule linting (default 1024 per dim)")
  in
  let asymptotic =
    Arg.(value & flag & info [ "asymptotic" ]
           ~doc:"Also run the symbolic asymptotic-cost pass on the linted \
                 schedules (WACO-S02x smells); workload-aware when --matrix \
                 is given, synthetic statistics otherwise")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static legality/performance analysis of schedules, formats and artifacts"
       ~man:
         [
           `S Manpage.s_description;
           `P "Runs the WACO-* diagnostic passes and prints every finding.";
           `P "Diagnostic code ranges:";
           `Pre
             "  WACO-S00x  format-spec structural legality\n\
             \  WACO-S01x  schedule legality (split bounds, order, threads)\n\
             \  WACO-S02x  asymptotic smells (with --asymptotic)\n\
             \  WACO-P00x  performance smells (heuristic, never errors)\n\
             \  WACO-F0xx  packed-storage invariants and round-trips\n\
             \  WACO-D00x  dataset directories and encodings\n\
             \  WACO-A00x  saved artifacts (model, index, compatibility)";
           `P "Exit status: 0 when clean (hints allowed), 1 with warnings \
               (WACO-P00x and warning-level WACO-S02x included), 2 with \
               errors.";
         ])
    Term.(
      const run $ sched $ random_n $ matrix $ data_dir $ model $ index
      $ algo_arg $ dims $ asymptotic $ json $ seed_arg)

(* --- explain --- *)

let explain_cmd =
  let run algo_name kernel_name sched_text matrix dims_text =
    let algo =
      match kernel_name with
      | Some kname -> Waco.Kernel.to_algo (kernel_of_cli kname)
      | None -> algo_of_cli algo_name
    in
    let dims = dims_of_cli ~algo ~algo_name dims_text in
    let az = analyzer_of_cli ~algo ~dims matrix in
    let s =
      match sched_text with
      | None -> Superschedule.fixed_default algo
      | Some text -> (
          match Sched_io.parse ~algo text with
          | Ok s -> s
          | Error e -> invalid_arg ("unparseable --schedule: " ^ e))
    in
    Printf.printf "kernel   : %s (%s)\n"
      (Waco.Kernel.name (Waco.Kernel.of_algo algo))
      (Algorithm.name algo);
    Printf.printf "schedule : %s\n" (Superschedule.describe s);
    Printf.printf "stats    : %s\n"
      (if matrix = None then "synthetic (pass --matrix for workload-aware)"
       else "workload of " ^ Option.get matrix);
    match Asym.Analyzer.explain az s with
    | exception Invalid_argument e ->
        Printf.printf "cost     : (structurally illegal: %s)\n" e;
        exit 2
    | cost_text ->
        Printf.printf "cost     : %s\n" cost_text;
        Printf.printf "baseline : %s (fixed CSR)\n"
          (Asym.Analyzer.explain az (Superschedule.fixed_default algo));
        let reading =
          match Asym.Analyzer.verdict az s with
          | Asym.Expr.Equal -> "same asymptotic class as the baseline"
          | Asym.Expr.Dominates -> "asymptotically worse than the baseline"
          | Asym.Expr.Dominated -> "asymptotically better than the baseline"
          | Asym.Expr.Incomparable -> "incomparable with the baseline"
        in
        Printf.printf "verdict  : %s (%s)\n"
          (Asym.Expr.verdict_name (Asym.Analyzer.verdict az s))
          reading;
        Printf.printf "prefilter: %s\n"
          (if Asym.Analyzer.prunes az s then
             "would prune this schedule before any model forward"
           else "keeps this schedule in the search");
        match Asym.Analyzer.check az s with
        | [] -> ()
        | smells -> print_string (Diag.render_text (Diag.sort smells))
  in
  let sched =
    Arg.(value & opt (some string) None & info [ "schedule" ] ~docv:"SCHED"
           ~doc:"Schedule to explain, in the dataset encoding (default: the \
                 fixed-CSR baseline schedule)")
  in
  let matrix =
    Arg.(value & opt (some string) None & info [ "matrix" ] ~docv:"FILE"
           ~doc:"Derive the workload statistics (dimension sizes, nnz, fill \
                 fractions) from this MatrixMarket file")
  in
  let dims =
    Arg.(value & opt string "" & info [ "dims" ] ~docv:"RxC"
           ~doc:"Operand dimensions for the synthetic statistics (default \
                 1024 per dim; ignored with --matrix)")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Print a schedule's symbolic asymptotic cost and its verdict \
             against the fixed-CSR baseline"
       ~man:
         [
           `S Manpage.s_description;
           `P "Renders the normalized asymptotic cost expression the static \
               pre-filter assigns to a schedule — e.g. $(b,nnz*J + Ni) for \
               the CSR SpMM baseline — compares it with the fixed-CSR \
               baseline under the dominance order, and lists any WACO-S02x \
               asymptotic smells.";
           `P "Exit status: 0 on success, 2 for a structurally illegal \
               schedule (lint it first).";
         ])
    Term.(const run $ algo_arg $ kernel_arg $ sched $ matrix $ dims)

let main =
  Cmd.group (Cmd.info "waco" ~version:"1.0" ~doc:"WACO reproduction toolkit")
    [
      gen_cmd; inspect_cmd; tune_cmd; collect_cmd; train_cmd; serve_cmd;
      query_cmd; route_cmd; lint_cmd; explain_cmd;
    ]

let () = exit (Cmd.eval main)
