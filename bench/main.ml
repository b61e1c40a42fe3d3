(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (one target per table/figure; see DESIGN.md §4) and runs a
   Bechamel micro-suite over the core kernels.

   Usage:
     dune exec bench/main.exe              # all experiment targets
     dune exec bench/main.exe -- table1 fig13 ...   # selected targets
     dune exec bench/main.exe -- micro     # Bechamel micro-benchmarks only

   Knobs: WACO_SCALE (corpus multiplier), WACO_EPOCHS, WACO_SEED. *)

open Sptensor
open Schedule

let experiment_targets : (string * string * (unit -> unit)) list =
  [
    ("table1", "Motivation: format/schedule/co-opt tuning spaces", Experiments.Motivation.run);
    ("fig13", "Per-matrix speedup distribution on SpMM", Experiments.Perf.run_fig13);
    ("table4", "Geomean speedup vs auto-tuners", Experiments.Perf.run_table4);
    ("table5", "Geomean speedup vs fixed implementations", Experiments.Perf.run_table5);
    ("table6", "Speedup-factor attribution", Experiments.Attribution.run);
    ("fig14", "SIMD heuristic vs block size", Experiments.Simd.run);
    ("fig15", "Cost-model feature extractor comparison", Experiments.Costmodel_exp.run);
    ("fig16", "Search strategies + search-time breakdown", Experiments.Searchcmp.run);
    ("table7", "Cross-hardware generalization", Experiments.Crosshw.run);
    ("fig17", "Tuning overhead vs speedup", Experiments.Overhead.run_fig17);
    ("table8", "End-to-end scenarios", Experiments.Overhead.run_table8);
    ("ablation", "Reproduction design-choice ablations", Experiments.Ablation.run);
  ]

(* table1 also prints table2; keep aliases so those names work as targets. *)
let aliases = [ ("table2", "table1"); ("fig16a", "fig16"); ("fig16b", "fig16") ]

(* --- Bechamel micro-benchmarks over the substrate kernels --- *)

let micro () =
  let open Bechamel in
  let rng = Rng.create 1234 in
  let m = Gen.uniform rng ~nrows:1024 ~ncols:1024 ~nnz:10000 in
  let csr = Csr.of_coo m in
  let x = Dense.vec_random rng 1024 in
  let b = Dense.mat_random rng 1024 16 in
  let algo = Algorithm.Spmm 16 in
  let sched = Superschedule.fixed_default algo in
  let spec = Superschedule.to_spec sched ~dims:[| 1024; 1024 |] in
  let packed =
    match Format_abs.Packed.of_coo spec m with Ok p -> p | Error e -> failwith e
  in
  let wl = Machine_model.Workload.of_coo ~id:"bench" m in
  let machine = Machine_model.Machine.intel_like in
  let model_rng = Rng.create 5 in
  let model = Waco.Costmodel.create model_rng algo in
  let input = Waco.Extractor.input_of_coo ~id:"bench" m in
  let schedules =
    Array.of_list (Space.sample_distinct model_rng algo ~dims:[| 1024; 1024 |] ~count:64)
  in
  let hnsw = Anns.Hnsw.create ~dim:8 model_rng in
  for i = 0 to 499 do
    Anns.Hnsw.insert hnsw (Array.init 8 (fun _ -> Rng.float model_rng)) i
  done;
  let query = Array.init 8 (fun _ -> Rng.float model_rng) in
  let tests =
    [
      Test.make ~name:"pack-csr" (Staged.stage (fun () ->
          ignore (Format_abs.Packed.of_coo spec m)));
      Test.make ~name:"spmv-packed" (Staged.stage (fun () ->
          ignore (Exec_engine.Kernels.spmv packed x)));
      Test.make ~name:"spmv-csr-ref" (Staged.stage (fun () -> ignore (Csr.spmv csr x)));
      Test.make ~name:"spmm-packed" (Staged.stage (fun () ->
          ignore (Exec_engine.Kernels.spmm packed b)));
      Test.make ~name:"costsim-estimate" (Staged.stage (fun () ->
          ignore (Machine_model.Costsim.runtime machine wl sched)));
      Test.make ~name:"waconet-forward" (Staged.stage (fun () ->
          ignore (Waco.Extractor.forward model.Waco.Costmodel.extractor input)));
      Test.make ~name:"embedder-batch64" (Staged.stage (fun () ->
          ignore (Waco.Costmodel.embed model schedules)));
      Test.make ~name:"hnsw-query" (Staged.stage (fun () ->
          ignore (Anns.Hnsw.search hnsw ~query ~k:10 ())));
    ]
  in
  Printf.printf "\n=== Bechamel micro-benchmarks ===\n%!";
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"waco" tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name stats ->
      match Analyze.OLS.estimates stats with
      | Some [ est ] -> Printf.printf "  %-28s %14.1f ns/run\n%!" name est
      | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
    results

(* --- Parallel scaling sweep over the lib/parallel adoption sites ---

   For each domain count the three parallel phases run end to end: dataset
   collection (per-tuple cost-simulator measurements), index build (batched
   embedding forwards) and validation eval (per-sample forwards).  The d = 1
   run is the reference: every wider run must reproduce its results exactly
   (the pool's determinism contract), and its times are the speedup
   denominators.  Results land in BENCH_parallel.json; to protect the
   recorded numbers, a run whose 4-domain speedup regresses more than 20%
   against the recorded one refuses to overwrite without --force. *)

let bench_parallel_file = "BENCH_parallel.json"

(* Minimal extraction from our own hand-rolled JSON: find ["key": <float>].
   Good enough because we only ever read files this bench wrote. *)
let json_float_field text key =
  let needle = "\"" ^ key ^ "\":" in
  let tlen = String.length text and nlen = String.length needle in
  let rec find i =
    if i + nlen > tlen then None
    else if String.sub text i nlen = needle then begin
      let j = ref (i + nlen) in
      while !j < tlen && text.[!j] = ' ' do incr j done;
      let k = ref !j in
      while
        !k < tlen
        && (match text.[!k] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr k
      done;
      float_of_string_opt (String.sub text !j (!k - !j))
    end
    else find (i + 1)
  in
  find 0

let scaling ~force () =
  let seed = Waco.Config.seed () in
  let machine = Machine_model.Machine.intel_like in
  let algo = Algorithm.Spmm 16 in
  let sweep = [ 1; 2; 4; 8 ] in
  Printf.printf "domain sweep %s (recommended_domain_count=%d)\n%!"
    (String.concat "," (List.map string_of_int sweep))
    (Domain.recommended_domain_count ());
  (* Work sizes chosen so each phase has enough independent items to keep
     8 domains busy: 16 matrices x 48 schedules = 768 measurements, a
     3072-schedule embedding corpus = 12 batches of 256. *)
  let nmats = Waco.Config.scaled 16 in
  let spm = 48 in
  let corpus_n = 3072 in
  let mats =
    let rng = Rng.create seed in
    let corpus = Gen.suite rng ~count:nmats ~max_dim:512 ~max_nnz:30000 in
    List.map (fun (g : Gen.named) -> (g.Gen.name, g.Gen.matrix)) corpus
  in
  let collect pool =
    (* Fresh RNG per run: every domain count replays the same draw stream. *)
    let rng = Rng.create (seed + 1) in
    Waco.Dataset.of_matrices ?pool rng machine algo mats ~schedules_per_matrix:spm
      ~valid_fraction:0.2
  in
  let model = Waco.Costmodel.create (Rng.create (seed + 2)) algo in
  let emb_corpus =
    let rng = Rng.create (seed + 3) in
    Array.init corpus_n (fun _ -> Space.sample rng algo ~dims:[| 512; 512 |])
  in
  let build pool =
    Waco.Tuner.build_index ?pool ~lint:false (Rng.create (seed + 4)) model
      emb_corpus
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let runtimes_of (d : Waco.Dataset.t) =
    Array.concat
      (List.map
         (fun (s : Waco.Dataset.sample) -> s.Waco.Dataset.log_runtimes)
         (Array.to_list (Array.append d.Waco.Dataset.train d.Waco.Dataset.valid)))
  in
  let results =
    List.map
      (fun d ->
        let pool = if d = 1 then None else Some (Parallel.Pool.create ~domains:d) in
        let data, collect_s = timed (fun () -> collect pool) in
        let index, index_s = timed (fun () -> build pool) in
        let eval, eval_s =
          timed (fun () ->
              Waco.Trainer.eval_set ?pool model data.Waco.Dataset.train)
        in
        Option.iter Parallel.Pool.shutdown pool;
        Printf.printf
          "  domains=%d  collect %6.2fs  index %6.2fs  eval %6.2fs\n%!" d
          collect_s index_s eval_s;
        (d, collect_s, index_s, eval_s, runtimes_of data,
         Anns.Hnsw.dump index.Waco.Tuner.hnsw ~payload:Sched_io.serialize, eval))
      sweep
  in
  let _, base_c, base_i, base_e, base_runtimes, base_dump, base_eval =
    List.hd results
  in
  let identical =
    List.for_all
      (fun (_, _, _, _, rts, dump, eval) ->
        rts = base_runtimes && dump = base_dump && eval = base_eval)
      (List.tl results)
  in
  Printf.printf "  byte-identical across domain counts: %b\n%!" identical;
  if not identical then
    failwith "scaling: parallel run diverged from the sequential reference";
  let speedup_at d =
    match List.find_opt (fun (d', _, _, _, _, _, _) -> d' = d) results with
    | Some (_, c, i, e, _, _, _) -> (base_c /. c, base_i /. i, base_e /. e)
    | None -> (1.0, 1.0, 1.0)
  in
  let s4c, s4i, s4e = speedup_at 4 in
  Printf.printf "  speedup at 4 domains: collect %.2fx  index %.2fx  eval %.2fx\n%!"
    s4c s4i s4e;
  (* Regression guard: don't silently clobber a better recorded sweep. *)
  (match
     if Sys.file_exists bench_parallel_file && not force then begin
       let ic = open_in_bin bench_parallel_file in
       let len = in_channel_length ic in
       let old = really_input_string ic len in
       close_in ic;
       match
         ( json_float_field old "speedup4_collect",
           json_float_field old "speedup4_index" )
       with
       | Some oc, Some oi when s4c < 0.8 *. oc || s4i < 0.8 *. oi ->
           Some (oc, oi)
       | _ -> None
     end
     else None
   with
  | Some (oc, oi) ->
      Printf.printf
        "  REGRESSION > 20%% vs recorded %s (collect %.2fx -> %.2fx, index \
         %.2fx -> %.2fx); keeping the old file (rerun with --force to \
         overwrite)\n%!"
        bench_parallel_file oc s4c oi s4i
  | None ->
      (* Keep the previous sweep's gated speedups as prev_* so a chunking
         retune carries its own before/after evidence in the file. *)
      let prev =
        if Sys.file_exists bench_parallel_file then begin
          let ic = open_in_bin bench_parallel_file in
          let len = in_channel_length ic in
          let old = really_input_string ic len in
          close_in ic;
          match
            ( json_float_field old "speedup4_collect",
              json_float_field old "speedup4_index",
              json_float_field old "speedup4_eval" )
          with
          | Some c, Some i, Some e -> Some (c, i, e)
          | _ -> None
        end
        else None
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "{\n";
      Printf.bprintf buf "  \"domains\": [%s],\n"
        (String.concat ", " (List.map string_of_int sweep));
      List.iter
        (fun (key, pick) ->
          Printf.bprintf buf "  \"%s\": [%s],\n" key
            (String.concat ", "
               (List.map
                  (fun (_, c, i, e, _, _, _) ->
                    Printf.sprintf "%.4f" (pick (c, i, e)))
                  results)))
        [
          ("collect_s", fun (c, _, _) -> c);
          ("index_s", fun (_, i, _) -> i);
          ("eval_s", fun (_, _, e) -> e);
        ];
      Printf.bprintf buf "  \"speedup4_collect\": %.4f,\n" s4c;
      Printf.bprintf buf "  \"speedup4_index\": %.4f,\n" s4i;
      Printf.bprintf buf "  \"speedup4_eval\": %.4f,\n" s4e;
      (match prev with
      | Some (c, i, e) ->
          Printf.bprintf buf "  \"prev_speedup4_collect\": %.4f,\n" c;
          Printf.bprintf buf "  \"prev_speedup4_index\": %.4f,\n" i;
          Printf.bprintf buf "  \"prev_speedup4_eval\": %.4f,\n" e
      | None -> ());
      Printf.bprintf buf "  \"baseline_s\": [%.4f, %.4f, %.4f],\n" base_c base_i
        base_e;
      Printf.bprintf buf "  \"identical\": %b\n" identical;
      Buffer.add_string buf "}\n";
      let oc = open_out_bin bench_parallel_file in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "  wrote %s\n%!" bench_parallel_file)

(* --- kernelmix: the four paper kernels swept over one shared corpus ------
   Untrained (but deterministic) models: the sweep exercises what the
   multi-kernel path added — the kernel-conditioned head, per-kernel Costsim
   work distributions, per-kernel index construction — not training quality.
   The matrices are shared across the 2-D kernels (MTTKRP runs the 3-D
   tensor suite at the same count), so differences between rows are the
   kernels, not the inputs.  The gated metric is each kernel's geomean
   speedup over the fixed-CSR baseline, which is fully deterministic; a
   >20% regression on any kernel refuses to overwrite without --force. *)

let bench_kernelmix_file = "BENCH_kernelmix.json"

let kernelmix ~force () =
  let seed = Waco.Config.seed () in
  let machine = Machine_model.Machine.intel_like in
  let nmats = Waco.Config.scaled 8 in
  let mats2d =
    let rng = Rng.create (seed + 11) in
    List.map
      (fun (g : Gen.named) -> (g.Gen.name, g.Gen.matrix))
      (Gen.suite rng ~count:nmats ~max_dim:512 ~max_nnz:20000)
  in
  let tensors3d =
    let rng = Rng.create (seed + 12) in
    List.map
      (fun (g : Gen.named3) -> (g.Gen.name3, g.Gen.tensor))
      (Gen.tensor3_suite rng ~count:nmats ~max_dim:128 ~max_nnz:4000)
  in
  let per_kernel =
    List.map
      (fun algo ->
        let kname = Waco.Kernel.name (Waco.Kernel.of_algo algo) in
        let model = Waco.Costmodel.create (Rng.create (seed + 21)) algo in
        let cases =
          match algo with
          | Algorithm.Mttkrp _ ->
              List.map
                (fun (n, t) -> Experiments.Lab.case_of_tensor n t)
                tensors3d
          | Algorithm.Spmv | Algorithm.Spmm _ | Algorithm.Sddmm _ ->
              List.map (fun (n, m) -> Experiments.Lab.case_of_matrix n m) mats2d
        in
        let corpus =
          let rng = Rng.create (seed + 22) in
          let dims = Array.make (Algorithm.sparse_rank algo) 256 in
          Array.init 256 (fun _ -> Space.sample rng algo ~dims)
        in
        let index =
          Waco.Tuner.build_index ~lint:false (Rng.create (seed + 23)) model
            corpus
        in
        let t0 = Unix.gettimeofday () in
        let speedups =
          List.map
            (fun (wl, input) ->
              let r = Waco.Tuner.tune model machine wl input index in
              let csr = Baselines.fixed_csr machine wl algo in
              csr.Baselines.kernel_time
              /. Float.max 1e-12 r.Waco.Tuner.best_measured)
            cases
        in
        let tune_s = Unix.gettimeofday () -. t0 in
        let geo = Experiments.Lab.geomean speedups in
        Printf.printf
          "  %-7s geomean speedup vs fixed CSR %6.3fx  (%d cases, %.2fs)\n%!"
          kname geo (List.length cases) tune_s;
        (kname, geo, tune_s))
      Experiments.Lab.algorithms
  in
  (* Regression guard: any kernel's recorded speedup shrinking >20% refuses
     the overwrite. *)
  let regressed =
    if Sys.file_exists bench_kernelmix_file && not force then begin
      let ic = open_in_bin bench_kernelmix_file in
      let old = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.filter_map
        (fun (kname, geo, _) ->
          match json_float_field old ("speedup_" ^ kname) with
          | Some o when geo < 0.8 *. o -> Some (kname, o, geo)
          | _ -> None)
        per_kernel
    end
    else []
  in
  match regressed with
  | (kname, o, geo) :: _ ->
      Printf.printf
        "  REGRESSION > 20%% vs recorded %s (%s %.3fx -> %.3fx); keeping the \
         old file (rerun with --force to overwrite)\n%!"
        bench_kernelmix_file kname o geo
  | [] ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf "{\n";
      Printf.bprintf buf "  \"matrices\": %d,\n" nmats;
      List.iter
        (fun (kname, geo, tune_s) ->
          Printf.bprintf buf "  \"speedup_%s\": %.4f,\n" kname geo;
          Printf.bprintf buf "  \"tune_s_%s\": %.4f,\n" kname tune_s)
        per_kernel;
      Printf.bprintf buf "  \"kernels\": %d\n" (List.length per_kernel);
      Buffer.add_string buf "}\n";
      let oc = open_out_bin bench_kernelmix_file in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "  wrote %s\n%!" bench_kernelmix_file

(* --- NN hot-path microbenchmarks: flat kernel maps + scratch buffers vs the
   retained pre-flat reference implementations (Nn.Sparse_conv_ref and local
   allocating closures).  Each op reports wall time AND GC allocation per
   iteration — the point of the flat layout is the allocation column.
   Results land in BENCH_kernels.json with the same >20%-regression refusal
   as the scaling sweep. *)

let bench_kernels_file = "BENCH_kernels.json"

(* (ns/iter, bytes allocated/iter) of [f], after warmup. *)
let measure ?(warmup = 3) ~iters f =
  for _ = 1 to warmup do f () done;
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do f () done;
  let dt = Unix.gettimeofday () -. t0 in
  let da = Gc.allocated_bytes () -. a0 in
  (dt /. float_of_int iters *. 1e9, da /. float_of_int iters)

(* The pre-scratch Linear forward/backward: fresh arrays every call. *)
let ref_linear_forward (l : Nn.Linear.t) ~batch (input : float array) =
  let out = Array.make (batch * l.Nn.Linear.out_dim) 0.0 in
  for n = 0 to batch - 1 do
    let ib = n * l.Nn.Linear.in_dim and ob = n * l.Nn.Linear.out_dim in
    for o = 0 to l.Nn.Linear.out_dim - 1 do
      let acc = ref l.Nn.Linear.b.Nn.Param.data.(o) in
      let wb = o * l.Nn.Linear.in_dim in
      for i = 0 to l.Nn.Linear.in_dim - 1 do
        acc := !acc +. (l.Nn.Linear.w.Nn.Param.data.(wb + i) *. input.(ib + i))
      done;
      out.(ob + o) <- !acc
    done
  done;
  out

let ref_linear_backward (l : Nn.Linear.t) ~batch ~(input : float array)
    (dout : float array) =
  let din = Array.make (batch * l.Nn.Linear.in_dim) 0.0 in
  for n = 0 to batch - 1 do
    let ib = n * l.Nn.Linear.in_dim and ob = n * l.Nn.Linear.out_dim in
    for o = 0 to l.Nn.Linear.out_dim - 1 do
      let g = dout.(ob + o) in
      if g <> 0.0 then begin
        let wb = o * l.Nn.Linear.in_dim in
        l.Nn.Linear.b.Nn.Param.grad.(o) <- l.Nn.Linear.b.Nn.Param.grad.(o) +. g;
        for i = 0 to l.Nn.Linear.in_dim - 1 do
          l.Nn.Linear.w.Nn.Param.grad.(wb + i) <-
            l.Nn.Linear.w.Nn.Param.grad.(wb + i) +. (g *. input.(ib + i));
          din.(ib + i) <- din.(ib + i) +. (g *. l.Nn.Linear.w.Nn.Param.data.(wb + i))
        done
      end
    done
  done;
  din

(* The pre-scratch ReLU and pool: fresh arrays every call. *)
let ref_relu (x : float array) = Array.map (fun v -> if v > 0.0 then v else 0.0) x

let ref_pool ~nsites ~channels (feats : float array) =
  let out = Array.make channels 0.0 in
  if nsites > 0 then begin
    for s = 0 to nsites - 1 do
      for ch = 0 to channels - 1 do
        out.(ch) <- out.(ch) +. feats.((s * channels) + ch)
      done
    done;
    let scale = 1.0 /. float_of_int nsites in
    Array.iteri (fun ch v -> out.(ch) <- v *. scale) out
  end;
  out

let kernels ~force () =
  let rng = Rng.create 20230325 in
  let m = Gen.uniform rng ~nrows:512 ~ncols:512 ~nnz:6000 in
  let smap = Nn.Smap.of_coo m in
  let nsites = Nn.Smap.nsites smap in
  let pairs = Nn.Smap.coords_pairs smap in
  let h = smap.Nn.Smap.h and w = smap.Nn.Smap.w in
  let ch = Waco.Config.channels in
  Printf.printf "  pattern: %dx%d, %d sites; channels=%d\n%!" h w nsites ch;

  (* -- kernel-map construction: stride-2 3x3 (every strided pyramid layer)
     and stride-1 5x5 (layer 0, the pyramid's dominant op) -- *)
  let map_row ~ksize ~stride ~iters =
    let flat_map = Nn.Sparse_conv.build_map ~ksize ~stride smap.Nn.Smap.coords ~h ~w in
    let ref_map = Nn.Sparse_conv_ref.build_map ~ksize ~stride pairs ~h ~w in
    (* Parity guard: the comparison is only meaningful if both builders
       produce the same map, pair order included. *)
    let ref_pairs = Array.concat (Array.to_list ref_map.Nn.Sparse_conv_ref.pairs) in
    if
      Array.map (fun (r, c) -> (r * flat_map.Nn.Sparse_conv.out_w) + c)
        ref_map.Nn.Sparse_conv_ref.out_coords
      <> flat_map.Nn.Sparse_conv.out_coords
      || Array.map fst ref_pairs <> flat_map.Nn.Sparse_conv.pairs_in
      || Array.map snd ref_pairs <> flat_map.Nn.Sparse_conv.pairs_out
      || Array.map Array.length ref_map.Nn.Sparse_conv_ref.pairs
         <> Array.init (ksize * ksize) (fun o ->
                flat_map.Nn.Sparse_conv.off_start.(o + 1)
                - flat_map.Nn.Sparse_conv.off_start.(o))
    then failwith (Printf.sprintf "kernels: k%d s%d flat/ref maps diverge" ksize stride);
    let ns, bytes =
      measure ~iters (fun () ->
          ignore (Nn.Sparse_conv.build_map ~ksize ~stride smap.Nn.Smap.coords ~h ~w))
    in
    let ref_ns, ref_bytes =
      measure ~iters (fun () ->
          ignore (Nn.Sparse_conv_ref.build_map ~ksize ~stride pairs ~h ~w))
    in
    (ns, bytes, ref_ns, ref_bytes)
  in
  let map_build_ns, map_build_bytes, map_build_ref_ns, map_build_ref_bytes =
    map_row ~ksize:3 ~stride:2 ~iters:200
  in
  let k5s1_ns, k5s1_bytes, k5s1_ref_ns, k5s1_ref_bytes = map_row ~ksize:5 ~stride:1 ~iters:100 in

  (* -- conv forward+backward over a prebuilt map (the per-epoch hot loop) -- *)
  let conv = Nn.Sparse_conv.create rng ~name:"bench.conv" ~in_ch:ch ~out_ch:ch ~ksize:3 ~stride:1 in
  let feats = Array.init (nsites * ch) (fun i -> Float.of_int (i mod 7) /. 7.0 -. 0.4) in
  let input = { smap with Nn.Smap.channels = ch; feats } in
  let conv_map = Nn.Sparse_conv.build_map ~ksize:3 ~stride:1 smap.Nn.Smap.coords ~h ~w in
  let ref_conv_map = Nn.Sparse_conv_ref.build_map ~ksize:3 ~stride:1 pairs ~h ~w in
  let dout = Array.init (nsites * ch) (fun i -> Float.of_int (i mod 5) /. 5.0 -. 0.3) in
  let conv_ns, conv_bytes =
    measure ~iters:100 (fun () ->
        ignore (Nn.Sparse_conv.forward_with_map conv conv_map input);
        ignore (Nn.Sparse_conv.backward conv dout))
  in
  let wgrad = Array.make (Array.length conv.Nn.Sparse_conv.w.Nn.Param.grad) 0.0 in
  let bgrad = Array.make ch 0.0 in
  let conv_ref_ns, conv_ref_bytes =
    measure ~iters:100 (fun () ->
        let out =
          Nn.Sparse_conv_ref.forward_feats ref_conv_map ~in_ch:ch ~out_ch:ch
            ~w:conv.Nn.Sparse_conv.w.Nn.Param.data
            ~b:conv.Nn.Sparse_conv.b.Nn.Param.data feats
        in
        ignore out;
        ignore
          (Nn.Sparse_conv_ref.backward_feats ref_conv_map ~in_ch:ch ~out_ch:ch
             ~w:conv.Nn.Sparse_conv.w.Nn.Param.data ~wgrad ~bgrad
             ~input_feats:(Array.copy feats) (* the old by-copy input cache *)
             ~nsites_in:nsites dout))
  in
  let conv_alloc_reduction = conv_ref_bytes /. Float.max 1.0 conv_bytes in

  (* -- linear forward+backward (predictor/embedder shape) -- *)
  let batch = 64 in
  let lin = Nn.Linear.create rng ~name:"bench.lin" ~in_dim:96 ~out_dim:64 in
  let lin_in = Array.init (batch * 96) (fun i -> Float.of_int (i mod 11) /. 11.0 -. 0.5) in
  let lin_dout = Array.init (batch * 64) (fun i -> Float.of_int (i mod 13) /. 13.0 -. 0.5) in
  let linear_ns, linear_bytes =
    measure ~iters:300 (fun () ->
        ignore (Nn.Linear.forward lin ~batch lin_in);
        ignore (Nn.Linear.backward lin lin_dout))
  in
  let linear_ref_ns, linear_ref_bytes =
    measure ~iters:300 (fun () ->
        ignore (ref_linear_forward lin ~batch lin_in);
        ignore (ref_linear_backward lin ~batch ~input:lin_in lin_dout))
  in

  (* -- end-to-end WACONet feature extraction --

     Cold = pyramid (kernel-map chain) rebuilt per call, the cost a fresh
     matrix pays during tuning; warm = maps cached, the per-epoch cost.  The
     reference path is the same arch through Sparse_conv_ref + allocating
     relu/pool/linear — the pre-PR op sequence. *)
  let arch = Waco.Extractor.conv_layers Waco.Extractor.Waconet in
  let nconv = List.length arch in
  let convs =
    Array.of_list
      (List.mapi
         (fun i (ksize, stride) ->
           Nn.Sparse_conv.create rng
             ~name:(Printf.sprintf "bench.e2e%d" i)
             ~in_ch:(if i = 0 then 1 else ch)
             ~out_ch:ch ~ksize ~stride)
         arch)
  in
  let relus = Array.init nconv (fun _ -> Nn.Act.relu_create ()) in
  let pools = Array.init nconv (fun _ -> Nn.Pool.create ()) in
  let head = Nn.Linear.create rng ~name:"bench.head" ~in_dim:(nconv * ch) ~out_dim:Waco.Config.feature_dim in
  let flat_layers pyr =
    let cur = ref pyr.Nn.Pyramid.base in
    let pooled = ref [] in
    for i = 0 to nconv - 1 do
      let o = Nn.Sparse_conv.forward_with_map convs.(i) pyr.Nn.Pyramid.maps.(i) !cur in
      let activated =
        {
          o with
          Nn.Smap.feats =
            Nn.Act.relu_forward
              ~n:(Nn.Smap.nsites o * ch)
              relus.(i) o.Nn.Smap.feats;
        }
      in
      pooled := Nn.Pool.forward pools.(i) activated :: !pooled;
      cur := activated
    done;
    let concat = Array.concat (List.rev !pooled) in
    Array.sub (Nn.Linear.forward head ~batch:1 concat) 0 Waco.Config.feature_dim
  in
  let warm_pyr = Nn.Pyramid.build smap ~layers:arch in
  let extractor_cold_ns, extractor_cold_bytes =
    measure ~iters:30 (fun () ->
        ignore (flat_layers (Nn.Pyramid.build smap ~layers:arch)))
  in
  let extractor_warm_ns, extractor_warm_bytes =
    measure ~iters:30 (fun () -> ignore (flat_layers warm_pyr))
  in
  let ref_maps_of () =
    let coords = ref pairs and rh = ref h and rw = ref w in
    Array.of_list
      (List.map
         (fun (ksize, stride) ->
           let m = Nn.Sparse_conv_ref.build_map ~ksize ~stride !coords ~h:!rh ~w:!rw in
           coords := m.Nn.Sparse_conv_ref.out_coords;
           rh := m.Nn.Sparse_conv_ref.out_h;
           rw := m.Nn.Sparse_conv_ref.out_w;
           m)
         arch)
  in
  let ref_layers maps =
    let cur = ref (Array.make nsites 1.0) in
    let cur_ch = ref 1 in
    let pooled = ref [] in
    for i = 0 to nconv - 1 do
      let mp : Nn.Sparse_conv_ref.kernel_map = maps.(i) in
      let out =
        Nn.Sparse_conv_ref.forward_feats mp ~in_ch:!cur_ch ~out_ch:ch
          ~w:convs.(i).Nn.Sparse_conv.w.Nn.Param.data
          ~b:convs.(i).Nn.Sparse_conv.b.Nn.Param.data
          (Array.copy !cur) (* the old by-copy input cache *)
      in
      let activated = ref_relu out in
      let n_out = Array.length mp.Nn.Sparse_conv_ref.out_coords in
      pooled := ref_pool ~nsites:n_out ~channels:ch activated :: !pooled;
      cur := activated;
      cur_ch := ch
    done;
    let concat = Array.concat (List.rev !pooled) in
    Array.sub (ref_linear_forward head ~batch:1 concat) 0 Waco.Config.feature_dim
  in
  let warm_ref_maps = ref_maps_of () in
  let extractor_cold_ref_ns, extractor_cold_ref_bytes =
    measure ~iters:30 (fun () -> ignore (ref_layers (ref_maps_of ())))
  in
  let extractor_warm_ref_ns, extractor_warm_ref_bytes =
    measure ~iters:30 (fun () -> ignore (ref_layers warm_ref_maps))
  in
  (* Parity guard for the e2e comparison. *)
  let d_flat = flat_layers warm_pyr and d_ref = ref_layers warm_ref_maps in
  let max_dev = ref 0.0 in
  Array.iteri
    (fun i v -> max_dev := Float.max !max_dev (Float.abs (v -. d_ref.(i))))
    d_flat;
  if !max_dev > 1e-9 then
    failwith (Printf.sprintf "kernels: flat/ref extractor outputs diverge (%g)" !max_dev);
  let extractor_speedup = extractor_cold_ref_ns /. extractor_cold_ns in

  (* -- batched inference VM vs eager per-input extractor forwards --

     The compile-once/execute-many plan (DESIGN.md §14) against a loop of
     eager [Waco.Extractor.forward] calls over the same warm inputs (pyramids
     cached on both paths — this is the extractor-warm shape).  One row per
     batch depth; the gated ratio is the batch-32 speedup. *)
  let vm_rng = Rng.create 424242 in
  let ext = Waco.Extractor.create vm_rng Waco.Extractor.Waconet in
  let vm_inputs =
    Array.init 32 (fun i ->
        Waco.Extractor.input_of_coo
          ~id:(Printf.sprintf "vmb%d" i)
          (Gen.uniform vm_rng ~nrows:256 ~ncols:256 ~nnz:3000))
  in
  let compiled = Waco.Extractor.compile ext in
  (* Parity guard: the batched plan must reproduce the eager features
     bitwise (the test suite's contract; re-checked here because the bench
     compares their timings). *)
  let eager_ref =
    Array.map (fun inp -> Array.copy (Waco.Extractor.forward ext inp)) vm_inputs
  in
  let batched_ref = Waco.Extractor.forward_batch compiled vm_inputs in
  Array.iteri
    (fun n expect ->
      Array.iteri
        (fun i v ->
          let got = batched_ref.((n * Waco.Config.feature_dim) + i) in
          if Int64.bits_of_float v <> Int64.bits_of_float got then
            failwith
              (Printf.sprintf "kernels: vm/eager features diverge at %d.%d" n i))
        expect)
    eager_ref;
  let vm_row n ~iters =
    let inputs = Array.sub vm_inputs 0 n in
    let eager_ns, eager_bytes =
      measure ~iters (fun () ->
          Array.iter (fun inp -> ignore (Waco.Extractor.forward ext inp)) inputs)
    in
    let vm_ns, vm_bytes =
      measure ~iters (fun () ->
          ignore (Waco.Extractor.forward_batch compiled inputs))
    in
    (eager_ns, eager_bytes, vm_ns, vm_bytes, eager_ns /. vm_ns)
  in
  let e1_ns, e1_b, v1_ns, v1_b, vm_batch1_speedup = vm_row 1 ~iters:60 in
  let e8_ns, e8_b, v8_ns, v8_b, vm_batch8_speedup = vm_row 8 ~iters:20 in
  let e32_ns, e32_b, v32_ns, v32_b, vm_batch32_speedup = vm_row 32 ~iters:8 in

  let row name ns bytes ref_ns ref_bytes =
    Printf.printf
      "  %-18s %12.0f ns %10.0f B   | ref %12.0f ns %10.0f B   (%.2fx time, %.1fx alloc)\n%!"
      name ns bytes ref_ns ref_bytes (ref_ns /. ns)
      (ref_bytes /. Float.max 1.0 bytes)
  in
  row "map-build" map_build_ns map_build_bytes map_build_ref_ns map_build_ref_bytes;
  row "map-build-k5s1" k5s1_ns k5s1_bytes k5s1_ref_ns k5s1_ref_bytes;
  row "conv-fwd+bwd" conv_ns conv_bytes conv_ref_ns conv_ref_bytes;
  row "linear-fwd+bwd" linear_ns linear_bytes linear_ref_ns linear_ref_bytes;
  row "extractor-cold" extractor_cold_ns extractor_cold_bytes extractor_cold_ref_ns
    extractor_cold_ref_bytes;
  row "extractor-warm" extractor_warm_ns extractor_warm_bytes extractor_warm_ref_ns
    extractor_warm_ref_bytes;
  row "vm-batch1" v1_ns v1_b e1_ns e1_b;
  row "vm-batch8" v8_ns v8_b e8_ns e8_b;
  row "vm-batch32" v32_ns v32_b e32_ns e32_b;
  Printf.printf
    "  conv alloc reduction %.1fx, extractor speedup %.2fx, vm batch32 \
     speedup %.2fx\n%!"
    conv_alloc_reduction extractor_speedup vm_batch32_speedup;

  (* Regression guard: don't silently clobber better recorded ratios. *)
  let regressions =
    if Sys.file_exists bench_kernels_file && not force then begin
      let ic = open_in_bin bench_kernels_file in
      let len = in_channel_length ic in
      let old = really_input_string ic len in
      close_in ic;
      List.filter_map
        (fun (key, now) ->
          match json_float_field old key with
          | Some o when now < 0.8 *. o -> Some (key, o, now)
          | _ -> None)
        [
          ("conv_alloc_reduction", conv_alloc_reduction);
          ("extractor_speedup", extractor_speedup);
          ("vm_batch32_speedup", vm_batch32_speedup);
        ]
    end
    else []
  in
  match regressions with
  | (_ :: _) as rs ->
      Printf.printf
        "  REGRESSION > 20%% vs recorded %s (%s); keeping the old file (rerun \
         with --force to overwrite)\n%!"
        bench_kernels_file
        (String.concat ", "
           (List.map
              (fun (k, o, now) -> Printf.sprintf "%s %.2fx -> %.2fx" k o now)
              rs))
  | [] ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "{\n";
      Printf.bprintf buf "  \"nsites\": %d,\n" nsites;
      List.iter
        (fun (key, v) -> Printf.bprintf buf "  \"%s\": %.1f,\n" key v)
        [
          ("map_build_ns", map_build_ns);
          ("map_build_bytes", map_build_bytes);
          ("map_build_ref_ns", map_build_ref_ns);
          ("map_build_ref_bytes", map_build_ref_bytes);
          ("map_build_k5s1_ns", k5s1_ns);
          ("map_build_k5s1_bytes", k5s1_bytes);
          ("map_build_k5s1_ref_ns", k5s1_ref_ns);
          ("map_build_k5s1_ref_bytes", k5s1_ref_bytes);
          ("conv_fwdbwd_ns", conv_ns);
          ("conv_fwdbwd_bytes", conv_bytes);
          ("conv_fwdbwd_ref_ns", conv_ref_ns);
          ("conv_fwdbwd_ref_bytes", conv_ref_bytes);
          ("linear_fwdbwd_ns", linear_ns);
          ("linear_fwdbwd_bytes", linear_bytes);
          ("linear_fwdbwd_ref_ns", linear_ref_ns);
          ("linear_fwdbwd_ref_bytes", linear_ref_bytes);
          ("extractor_cold_ns", extractor_cold_ns);
          ("extractor_cold_bytes", extractor_cold_bytes);
          ("extractor_cold_ref_ns", extractor_cold_ref_ns);
          ("extractor_cold_ref_bytes", extractor_cold_ref_bytes);
          ("extractor_warm_ns", extractor_warm_ns);
          ("extractor_warm_bytes", extractor_warm_bytes);
          ("extractor_warm_ref_ns", extractor_warm_ref_ns);
          ("extractor_warm_ref_bytes", extractor_warm_ref_bytes);
        ];
      List.iter
        (fun (key, v) -> Printf.bprintf buf "  \"%s\": %.1f,\n" key v)
        [
          ("vm_batch1_ns", v1_ns);
          ("vm_batch1_bytes", v1_b);
          ("vm_batch1_eager_ns", e1_ns);
          ("vm_batch1_eager_bytes", e1_b);
          ("vm_batch8_ns", v8_ns);
          ("vm_batch8_bytes", v8_b);
          ("vm_batch8_eager_ns", e8_ns);
          ("vm_batch8_eager_bytes", e8_b);
          ("vm_batch32_ns", v32_ns);
          ("vm_batch32_bytes", v32_b);
          ("vm_batch32_eager_ns", e32_ns);
          ("vm_batch32_eager_bytes", e32_b);
        ];
      Printf.bprintf buf "  \"vm_batch1_speedup\": %.2f,\n" vm_batch1_speedup;
      Printf.bprintf buf "  \"vm_batch8_speedup\": %.2f,\n" vm_batch8_speedup;
      Printf.bprintf buf "  \"vm_batch32_speedup\": %.2f,\n" vm_batch32_speedup;
      Printf.bprintf buf "  \"conv_alloc_reduction\": %.2f,\n" conv_alloc_reduction;
      Printf.bprintf buf "  \"extractor_speedup\": %.2f\n" extractor_speedup;
      Buffer.add_string buf "}\n";
      let oc = open_out_bin bench_kernels_file in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "  wrote %s\n%!" bench_kernels_file

(* --- serve: daemon latency and throughput ------------------------------

   The serving daemon runs in its own domain; this (client) domain drives
   it over the Unix socket exactly like external clients would.  Reported:
   cold latency (first sight of a pattern: extractor forward + traversal +
   top-k measurement), warm latency (schedule-cache hit), and pipelined
   throughput at 1/4/16 concurrent client connections over a pre-warmed
   working set.  Results land in BENCH_serve.json; a run whose warm latency
   or 16-client throughput regresses more than 20% against the recorded
   numbers refuses to overwrite without --force. *)

let bench_serve_file = "BENCH_serve.json"

(* BENCH_serve.json is shared by `serve` and `loadgen`: each target owns a
   disjoint set of keys (loadgen's all carry the "loadgen_" prefix) and
   rewrites the file preserving the other's.  The format stays the
   hand-rolled one-pair-per-line JSON the rest of the bench writes. *)
let read_json_pairs file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if String.length line < 4 || line.[0] <> '"' then None
        else
          match String.index_from_opt line 1 '"' with
          | None -> None
          | Some close -> (
              let key = String.sub line 1 (close - 1) in
              match String.index_from_opt line close ':' with
              | None -> None
              | Some colon ->
                  let v =
                    String.trim
                      (String.sub line (colon + 1)
                         (String.length line - colon - 1))
                  in
                  let v =
                    if v <> "" && v.[String.length v - 1] = ',' then
                      String.sub v 0 (String.length v - 1)
                    else v
                  in
                  Some (key, v)))
      (String.split_on_char '\n' s)
  end

let write_json_pairs file pairs =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf "  %S: %s" k v)
    pairs;
  Buffer.add_string buf "\n}\n";
  let oc = open_out_bin file in
  output_string oc (Buffer.contents buf);
  close_out oc

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let serve_bench ~force () =
  let algo = Algorithm.Spmm 256 in
  let machine = Machine_model.Machine.intel_like in
  let seed = Waco.Config.seed () in
  let model = Waco.Costmodel.create (Rng.create seed) algo in
  let srng = Rng.create (seed + 1) in
  let corpus =
    Array.init 128 (fun _ -> Space.sample srng algo ~dims:[| 64; 64 |])
  in
  let index = Waco.Tuner.build_index (Rng.create (seed + 2)) model corpus in
  let dir = Filename.temp_file "waco-bench-serve" "" in
  Sys.remove dir;
  Robust.mkdir_p dir;
  let socket = Filename.concat dir "waco.sock" in
  let server =
    Serve.Server.create ~k:4 ~ef:16 ~max_batch:32 ~model ~index
      ~index_file:"<bench>" ~machine ~socket ()
  in
  let daemon = Domain.spawn (fun () -> Serve.Server.run server) in
  let rec connect attempts =
    match Serve.Client.connect socket with
    | c -> c
    | exception Unix.Unix_error _ when attempts > 0 ->
        Unix.sleepf 0.02;
        connect (attempts - 1)
  in
  (* A working set of distinct sparsity patterns, shipped inline so the
     bench has no disk dependency. *)
  let mrng = Rng.create (seed + 3) in
  let matrices =
    Array.init 32 (fun _ -> Gen.uniform mrng ~nrows:64 ~ncols:64 ~nnz:400)
  in
  let source_of (m : Coo.t) =
    Serve.Protocol.Inline
      {
        nrows = m.Coo.nrows;
        ncols = m.Coo.ncols;
        entries =
          Array.init (Coo.nnz m) (fun k ->
              (m.Coo.rows.(k), m.Coo.cols.(k), m.Coo.vals.(k)));
      }
  in
  let sources = Array.map source_of matrices in
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let c0 = connect 250 in
  (* Cold: every pattern is new to the daemon. *)
  let cold_ms =
    Array.map
      (fun src ->
        let t = Unix.gettimeofday () in
        (match Serve.Client.query c0 src with
        | Ok _ -> ()
        | Error e -> failwith ("serve bench: cold query: " ^ e));
        (Unix.gettimeofday () -. t) *. 1e3)
      sources
  in
  (* Warm: the same patterns again, answered from the schedule cache. *)
  let warm_ms =
    Array.map
      (fun src ->
        let t = Unix.gettimeofday () in
        (match Serve.Client.query c0 src with
        | Ok a when a.Serve.Protocol.cache_hit -> ()
        | Ok _ -> failwith "serve bench: warm query missed the cache"
        | Error e -> failwith ("serve bench: warm query: " ^ e));
        (Unix.gettimeofday () -. t) *. 1e3)
      sources
  in
  let cold = median cold_ms and warm = median warm_ms in
  Printf.printf "  latency: cold %.2f ms, warm %.2f ms (median of %d)\n%!" cold
    warm (Array.length sources);
  (* Pipelined throughput over the warmed set at 1/4/16 connections: every
     client writes its whole request train, then all responses are drained.
     Deeper client fan-in gives the daemon bigger micro-batches. *)
  let per_client = 64 in
  let throughput nclients =
    let clients = Array.init nclients (fun _ -> connect 250) in
    let t = Unix.gettimeofday () in
    Array.iteri
      (fun ci c ->
        for q = 0 to per_client - 1 do
          Serve.Client.send c
            (Serve.Protocol.Query
               {
                 qid = Printf.sprintf "b%d.%d" ci q;
                 source = sources.((ci + q) mod Array.length sources);
                 measure = true;
                 deadline_ms = 0;
                 kernel = None;
               })
        done)
      clients;
    Array.iter
      (fun c ->
        for _ = 1 to per_client do
          match Serve.Client.recv c with
          | Serve.Protocol.Answer _ -> ()
          | _ -> failwith "serve bench: non-answer under load"
        done)
      clients;
    let dt = Unix.gettimeofday () -. t in
    Array.iter Serve.Client.close clients;
    float_of_int (nclients * per_client) /. dt
  in
  let tp = List.map (fun c -> (c, throughput c)) [ 1; 4; 16 ] in
  List.iter
    (fun (c, qps) -> Printf.printf "  throughput: %2d client(s) %8.0f req/s\n%!" c qps)
    tp;
  let qps c = try List.assoc c tp with Not_found -> 0.0 in
  ignore (Serve.Client.shutdown c0);
  Serve.Client.close c0;
  Domain.join daemon;
  (* Overload: a second daemon with a low high-water mark, hammered with
     pipelined deadline-bearing queries on cold patterns.  Reported: how
     much was shed ([Busy]), how many answers blew their deadline (degraded,
     never cached), and the p99 time-to-answer from the start of the burst —
     the tail a client actually experiences when the daemon is saturated. *)
  let ov_socket = Filename.concat dir "waco-ov.sock" in
  let ov_server =
    Serve.Server.create ~k:4 ~ef:16 ~max_batch:8 ~max_pending:8 ~model ~index
      ~index_file:"<bench>" ~machine ~socket:ov_socket ()
  in
  let ov_daemon = Domain.spawn (fun () -> Serve.Server.run ov_server) in
  let rec ov_connect attempts =
    match Serve.Client.connect ov_socket with
    | c -> c
    | exception Unix.Unix_error _ when attempts > 0 ->
        Unix.sleepf 0.02;
        ov_connect (attempts - 1)
  in
  let ov_clients = 8 and ov_per = 32 in
  let clients = Array.init ov_clients (fun _ -> ov_connect 250) in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun ci c ->
      for q = 0 to ov_per - 1 do
        Serve.Client.send c
          (Serve.Protocol.Query
             {
               qid = Printf.sprintf "ov%d.%d" ci q;
               source = sources.((ci + q) mod Array.length sources);
               measure = true;
               deadline_ms = 50;
               kernel = None;
             })
      done)
    clients;
  let lat = ref [] in
  Array.iter
    (fun c ->
      for _ = 1 to ov_per do
        (match Serve.Client.recv c with
        | Serve.Protocol.Answer _ | Serve.Protocol.Busy _ -> ()
        | _ -> failwith "serve bench: unexpected response under overload");
        lat := ((Unix.gettimeofday () -. t0) *. 1e3) :: !lat
      done)
    clients;
  Array.iter Serve.Client.close clients;
  let ov_stats = Serve.Server.stats_json ov_server in
  let ov_counter name =
    Option.value ~default:0 (Serve.Metrics.json_counter ov_stats name)
  in
  let shed = ov_counter "shed" and misses = ov_counter "deadline_misses" in
  let p99 =
    let a = Array.of_list !lat in
    Array.sort compare a;
    a.(min (Array.length a - 1) (Array.length a * 99 / 100))
  in
  Printf.printf
    "  overload: %d requests -> shed %d, deadline misses %d, p99 %.2f ms\n%!"
    (ov_clients * ov_per) shed misses p99;
  let stop = ov_connect 250 in
  ignore (Serve.Client.shutdown stop);
  Serve.Client.close stop;
  Domain.join ov_daemon;
  (try Sys.remove socket with Sys_error _ -> ());
  (try Sys.remove ov_socket with Sys_error _ -> ());
  (try Sys.rmdir dir with Sys_error _ -> ());
  (* Regression guard: don't silently clobber better recorded numbers. *)
  match
    if Sys.file_exists bench_serve_file && not force then begin
      let ic = open_in_bin bench_serve_file in
      let old = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match
        (json_float_field old "warm_ms", json_float_field old "throughput_16")
      with
      | Some ow, Some ot when warm > 1.2 *. ow || qps 16 < 0.8 *. ot ->
          Some (ow, ot)
      | _ -> None
    end
    else None
  with
  | Some (ow, ot) ->
      Printf.printf
        "  REGRESSION > 20%% vs recorded %s (warm %.2fms -> %.2fms, 16-client \
         %.0f -> %.0f req/s); keeping the old file (rerun with --force to \
         overwrite)\n%!"
        bench_serve_file ow warm ot (qps 16)
  | None ->
      let preserved =
        List.filter (fun (k, _) -> has_prefix "loadgen_" k)
          (read_json_pairs bench_serve_file)
      in
      write_json_pairs bench_serve_file
        ([
           ("cold_ms", Printf.sprintf "%.4f" cold);
           ("warm_ms", Printf.sprintf "%.4f" warm);
         ]
        @ List.map
            (fun (c, v) ->
              (Printf.sprintf "throughput_%d" c, Printf.sprintf "%.1f" v))
            tp
        @ [
            ("working_set", string_of_int (Array.length sources));
            ("requests_per_client", string_of_int per_client);
            ("overload_shed", string_of_int shed);
            ("overload_deadline_misses", string_of_int misses);
            ("overload_p99_ms", Printf.sprintf "%.4f" p99);
          ]
        @ preserved);
      Printf.printf "  wrote %s\n%!" bench_serve_file

(* --- loadgen: scale-out serving load harness ---------------------------

   Replays a configurable stream of synthetic tuning queries — generated
   sparsity patterns with zipf-skewed popularity, a mixed kernel
   assignment, and a configurable measured fraction — against two
   topologies built from the same artifacts and the same per-daemon cache
   capacity: one daemon alone, and a `waco route` consistent-hash router
   over four shard daemons.  Per-daemon capacity is the fixed resource;
   the working set is sized past one cache, so the single daemon pays
   capacity misses at steady state while the shard tier's aggregate
   capacity covers the whole set (the fingerprint hash pins each pattern
   to one shard, so per-shard hit rates stay high).  Closed-loop
   concurrent clients measure what serving systems measure: per-query
   latency percentiles and sustained throughput, plus shed/hit/miss
   counters and per-shard routing balance from the aggregated stats.

   Defaults keep the bench seconds-scale; every axis is an env knob —
   WACO_LOADGEN_QUERIES (raise to millions for a soak), _CLIENTS,
   _DISTINCT, _ZIPF, _MEASURE_PCT, _CACHE, and _TCP=1 to run the whole
   topology over tcp:127.0.0.1 instead of Unix sockets.  Results land in
   BENCH_serve.json under loadgen_* keys (the serve target's keys are
   preserved); a run whose router throughput or scale-out speedup
   regresses more than 20% against the recorded numbers refuses to
   overwrite without --force. *)

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

let env_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some v when v > 0.0 -> v
  | _ -> default

let loadgen_bench ~force () =
  let total = env_int "WACO_LOADGEN_QUERIES" 4000 in
  let nclients = env_int "WACO_LOADGEN_CLIENTS" 16 in
  let distinct = env_int "WACO_LOADGEN_DISTINCT" 192 in
  let zipf_s = env_float "WACO_LOADGEN_ZIPF" 0.7 in
  let measure_pct = min 100 (env_int "WACO_LOADGEN_MEASURE_PCT" 35) in
  let cache_capacity = env_int "WACO_LOADGEN_CACHE" 48 in
  let nshards = 4 in
  let tcp = Sys.getenv_opt "WACO_LOADGEN_TCP" <> None in
  let seed = Waco.Config.seed () in
  let machine = Machine_model.Machine.intel_like in
  let spmm = Algorithm.Spmm 256 in
  let spmv = Waco.Kernel.to_algo Waco.Kernel.Spmv in
  Printf.printf
    "  %d queries, %d clients, %d distinct patterns (zipf %.2f), %d%% \
     measured, cache %d/daemon, %s\n%!"
    total nclients distinct zipf_s measure_pct cache_capacity
    (if tcp then "tcp" else "unix");
  (* One model/index pair per kernel slot, shared by every daemon in both
     topologies: the comparison isolates topology, nothing else. *)
  let model = Waco.Costmodel.create (Rng.create seed) spmm in
  let crng = Rng.create (seed + 1) in
  let corpus = Array.init 128 (fun _ -> Space.sample crng spmm ~dims:[| 64; 64 |]) in
  let index = Waco.Tuner.build_index (Rng.create (seed + 2)) model corpus in
  let vmodel = Waco.Costmodel.create (Rng.create (seed + 3)) spmv in
  let vrng = Rng.create (seed + 4) in
  let vcorpus = Array.init 128 (fun _ -> Space.sample vrng spmv ~dims:[| 64; 64 |]) in
  let vindex = Waco.Tuner.build_index (Rng.create (seed + 5)) vmodel vcorpus in
  (* The working set: [distinct] patterns over the generator families, all
     with distinct fingerprints, so cache keys = patterns and the capacity
     accounting is exact.  Pattern index doubles as zipf rank. *)
  let families =
    [| Gen.Uniform; Gen.Power_law 1.5; Gen.Banded 8; Gen.Block_dense 4;
       Gen.Rmat; Gen.Clustered 4 |]
  in
  let prng = Rng.create (seed + 6) in
  let seen = Hashtbl.create distinct in
  let patterns =
    Array.init distinct (fun i ->
        let rec draw () =
          let m =
            Gen.generate prng families.(i mod Array.length families)
              ~nrows:64 ~ncols:64 ~nnz:400
          in
          let key = Serve.Fingerprint.key (Serve.Fingerprint.of_coo m) in
          if Hashtbl.mem seen key then draw ()
          else begin
            Hashtbl.add seen key ();
            m
          end
        in
        draw ())
  in
  let sources =
    Array.map
      (fun (m : Coo.t) ->
        Serve.Protocol.Inline
          {
            nrows = m.Coo.nrows;
            ncols = m.Coo.ncols;
            entries =
              Array.init (Coo.nnz m) (fun k ->
                  (m.Coo.rows.(k), m.Coo.cols.(k), m.Coo.vals.(k)));
          })
      patterns
  in
  let kernels =
    Array.init distinct (fun i ->
        if i mod 4 = 0 then Waco.Kernel.Spmv else Waco.Kernel.Spmm)
  in
  (* The measured fraction, spread across ranks (31 is coprime to 100, so
     measured patterns land on hot and cold ranks alike). *)
  let measures = Array.init distinct (fun i -> i * 31 mod 100 < measure_pct) in
  let cdf =
    let acc = ref 0.0 in
    let c =
      Array.init distinct (fun i ->
          acc := !acc +. (float_of_int (i + 1) ** -.zipf_s);
          !acc)
    in
    Array.map (fun x -> x /. !acc) c
  in
  let pick rng =
    let u = Rng.float rng in
    let lo = ref 0 and hi = ref (distinct - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let dir = Filename.temp_file "waco-bench-loadgen" "" in
  Sys.remove dir;
  Robust.mkdir_p dir;
  let mk_server name =
    let socket =
      if tcp then "tcp:127.0.0.1:0" else Filename.concat dir (name ^ ".sock")
    in
    Serve.Server.create ~cache_capacity ~max_batch:32
      ~extra:[ (vmodel, vindex, "<bench-spmv>") ]
      ~model ~index ~index_file:"<bench>" ~machine ~socket ()
  in
  let spawn_server server =
    let d = Domain.spawn (fun () -> Serve.Server.run server) in
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      match Serve.Server.bound_endpoint server with
      | Some e -> e
      | None ->
          if Unix.gettimeofday () > deadline then
            failwith "loadgen: daemon never bound";
          Unix.sleepf 0.01;
          wait ()
    in
    (d, wait ())
  in
  let connect_retry endpoint =
    let rec go attempts =
      match Serve.Client.connect endpoint with
      | c -> c
      | exception _ when attempts > 0 ->
          Unix.sleepf 0.02;
          go (attempts - 1)
    in
    go 250
  in
  let percentile a q =
    a.(min (Array.length a - 1)
         (int_of_float (float_of_int (Array.length a) *. q)))
  in
  (* One topology under load: a pipelined warmup sweep over every pattern
     (both topologies pay the same compulsory misses, outside the timed
     window), then [nclients] closed-loop client domains drawing from the
     zipf popularity until [total] queries have been answered. *)
  let run_load ~label ~endpoint =
    let c0 = connect_retry endpoint in
    (* Pipeline the sweep one micro-batch at a time: a client that ships
       the whole working set before draining a byte trips the daemon's
       write-stall protection (correctly — that's PR-7's backpressure). *)
    let step = 32 in
    let i = ref 0 in
    while !i < distinct do
      let stop = min distinct (!i + step) in
      for q = !i to stop - 1 do
        Serve.Client.send c0
          (Serve.Protocol.Query
             {
               qid = Printf.sprintf "warm%d" q;
               source = sources.(q);
               measure = measures.(q);
               deadline_ms = 0;
               kernel = Some kernels.(q);
             })
      done;
      for _ = !i to stop - 1 do
        match Serve.Client.recv ~timeout_s:120.0 c0 with
        | Serve.Protocol.Answer _ -> ()
        | _ -> failwith "loadgen: non-answer during warmup"
      done;
      i := stop
    done;
    let per_client = max 1 (total / nclients) in
    let t0 = Unix.gettimeofday () in
    let workers =
      Array.init nclients (fun ci ->
          Domain.spawn (fun () ->
              let rng = Rng.create (seed + 100 + ci) in
              let c = connect_retry endpoint in
              let lats = Array.make per_client 0.0 in
              let errors = ref 0 in
              for q = 0 to per_client - 1 do
                let i = pick rng in
                let t = Unix.gettimeofday () in
                (match
                   Serve.Client.query ~measure:measures.(i)
                     ~kernel:kernels.(i)
                     ~qid:(Printf.sprintf "c%d.%d" ci q)
                     c sources.(i)
                 with
                | Ok _ -> ()
                | Error _ -> incr errors);
                lats.(q) <- (Unix.gettimeofday () -. t) *. 1e3
              done;
              Serve.Client.close c;
              (lats, !errors)))
    in
    let results = Array.map Domain.join workers in
    let wall = Unix.gettimeofday () -. t0 in
    let lats = Array.concat (Array.to_list (Array.map fst results)) in
    let errors = Array.fold_left (fun a (_, e) -> a + e) 0 results in
    Array.sort compare lats;
    let qps = float_of_int (Array.length lats) /. wall in
    let stats =
      match Serve.Client.request c0 Serve.Protocol.Stats with
      | Serve.Protocol.Stats_json j -> j
      | _ -> "{}"
    in
    Serve.Client.close c0;
    let p50 = percentile lats 0.50
    and p95 = percentile lats 0.95
    and p99 = percentile lats 0.99 in
    Printf.printf
      "  %-6s %8.0f q/s   p50 %6.2f  p95 %6.2f  p99 %6.2f ms   errors %d\n%!"
      label qps p50 p95 p99 errors;
    (qps, p50, p95, p99, errors, stats)
  in
  let shutdown_at endpoint =
    let c = connect_retry endpoint in
    ignore (Serve.Client.shutdown c);
    Serve.Client.close c
  in
  (* Counter out of a JSON slice: [from_key] narrows multi-section
     aggregates (the same counter name appears in every shard's embedded
     stats) to the section of interest before scanning. *)
  let counter_in ?from_key json name =
    let slice =
      match from_key with
      | None -> json
      | Some k -> (
          let pat = Printf.sprintf "%S" k in
          let rec find i =
            if i + String.length pat > String.length json then json
            else if String.sub json i (String.length pat) = pat then
              String.sub json i (String.length json - i)
            else find (i + 1)
          in
          find 0)
    in
    Option.value ~default:0 (Serve.Metrics.json_counter slice name)
  in
  (* Topology 1: one daemon, [nclients] clients straight at it. *)
  let single = mk_server "single" in
  let sd, sep = spawn_server single in
  let sq, sp50, sp95, sp99, serr, sstats = run_load ~label:"single" ~endpoint:sep in
  shutdown_at sep;
  Domain.join sd;
  let s_hits = counter_in sstats "cache_hits"
  and s_misses = counter_in sstats "cache_misses" in
  (* Topology 2: the same daemon config x4 behind the router. *)
  let shard_servers =
    Array.init nshards (fun i -> mk_server (Printf.sprintf "shard%d" i))
  in
  let shard_handles = Array.map spawn_server shard_servers in
  let shard_eps = Array.map snd shard_handles in
  let router_listen =
    if tcp then "tcp:127.0.0.1:0" else Filename.concat dir "router.sock"
  in
  let router =
    Serve.Router.create ~listen:router_listen
      ~shards:(Array.to_list shard_eps) ()
  in
  let rd = Domain.spawn (fun () -> Serve.Router.run router) in
  let rep =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      match Serve.Router.bound_endpoint router with
      | Some e -> e
      | None ->
          if Unix.gettimeofday () > deadline then
            failwith "loadgen: router never bound";
          Unix.sleepf 0.01;
          wait ()
    in
    wait ()
  in
  (* Don't start the clock until every shard is on the ring. *)
  let () =
    let c = connect_retry rep in
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      let up =
        match Serve.Client.request c Serve.Protocol.Stats with
        | Serve.Protocol.Stats_json j -> counter_in j "shards_up"
        | _ -> 0
      in
      if up < nshards then begin
        if Unix.gettimeofday () > deadline then
          failwith "loadgen: shards never joined the ring";
        Unix.sleepf 0.02;
        wait ()
      end
    in
    wait ();
    Serve.Client.close c
  in
  let rq, rp50, rp95, rp99, rerr, rstats = run_load ~label:"router" ~endpoint:rep in
  let r_hits = counter_in ~from_key:"totals" rstats "cache_hits"
  and r_misses = counter_in ~from_key:"totals" rstats "cache_misses"
  and r_shed =
    counter_in rstats "shed" + counter_in ~from_key:"totals" rstats "shed"
  in
  (* Per-shard balance straight from the shards' routed counters in the
     aggregated stats answer. *)
  let routed =
    let pat = "\"routed\": " in
    let from =
      match String.index_opt rstats '[' with Some i -> i | None -> 0
    in
    let out = ref [] in
    let i = ref from in
    while !i + String.length pat <= String.length rstats do
      if String.sub rstats !i (String.length pat) = pat then begin
        let j = ref (!i + String.length pat) in
        let v = ref 0 in
        while
          !j < String.length rstats
          && rstats.[!j] >= '0'
          && rstats.[!j] <= '9'
        do
          v := (!v * 10) + (Char.code rstats.[!j] - Char.code '0');
          incr j
        done;
        out := !v :: !out;
        i := !j
      end
      else incr i
    done;
    Array.of_list (List.rev !out)
  in
  let balance =
    if Array.length routed = 0 then 0.0
    else
      let total_r = Array.fold_left ( + ) 0 routed in
      let mean = float_of_int total_r /. float_of_int (Array.length routed) in
      if mean <= 0.0 then 0.0
      else float_of_int (Array.fold_left max 0 routed) /. mean
  in
  (* Key spread: how the consistent hash partitions the working set's
     fingerprints, unweighted by popularity — the number the ±25%
     uniformity property is about (routed counts above are zipf-weighted
     query traffic, naturally skewed by whoever owns the hot ranks). *)
  let key_spread =
    let ring = Serve.Router.Ring.create (Array.to_list shard_eps) in
    let counts = Hashtbl.create nshards in
    Array.iter
      (fun m ->
        let owner =
          Serve.Router.Ring.lookup ring
            (Serve.Router.Ring.routing_key
               (Serve.Fingerprint.key (Serve.Fingerprint.of_coo m)))
        in
        Hashtbl.replace counts owner
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts owner)))
      patterns;
    Array.map
      (fun ep -> Option.value ~default:0 (Hashtbl.find_opt counts ep))
      shard_eps
  in
  let key_balance =
    let mean = float_of_int distinct /. float_of_int nshards in
    float_of_int (Array.fold_left max 0 key_spread) /. mean
  in
  shutdown_at rep;
  Array.iter shutdown_at shard_eps;
  Domain.join rd;
  Array.iter (fun (d, _) -> Domain.join d) shard_handles;
  (try Array.iter Sys.remove (Sys.readdir dir |> Array.map (Filename.concat dir))
   with Sys_error _ -> ());
  (try Sys.rmdir dir with Sys_error _ -> ());
  let speedup = if sq > 0.0 then rq /. sq else 0.0 in
  Printf.printf
    "  scale-out: %.2fx throughput vs single at %d clients (hit rate %.2f \
     -> %.2f)\n  balance: keys max/mean %.2f [%s], query traffic max/mean \
     %.2f [%s]\n%!"
    speedup nclients
    (float_of_int s_hits /. float_of_int (max 1 (s_hits + s_misses)))
    (float_of_int r_hits /. float_of_int (max 1 (r_hits + r_misses)))
    key_balance
    (String.concat "," (Array.to_list (Array.map string_of_int key_spread)))
    balance
    (String.concat "," (Array.to_list (Array.map string_of_int routed)));
  (* Regression guard on the two headline numbers. *)
  let old = read_json_pairs bench_serve_file in
  let old_f key =
    Option.bind (List.assoc_opt key old) float_of_string_opt
  in
  match (old_f "loadgen_router_qps", old_f "loadgen_speedup") with
  | (Some oq, _) when (not force) && rq < 0.8 *. oq ->
      Printf.printf
        "  REGRESSION > 20%% vs recorded router throughput (%.0f -> %.0f \
         q/s); keeping the old file (rerun with --force to overwrite)\n%!"
        oq rq
  | (_, Some os) when (not force) && speedup < 0.8 *. os ->
      Printf.printf
        "  REGRESSION > 20%% vs recorded scale-out speedup (%.2fx -> \
         %.2fx); keeping the old file (rerun with --force to overwrite)\n%!"
        os speedup
  | _ ->
      let preserved =
        List.filter (fun (k, _) -> not (has_prefix "loadgen_" k)) old
      in
      write_json_pairs bench_serve_file
        (preserved
        @ [
            ("loadgen_queries", string_of_int total);
            ("loadgen_clients", string_of_int nclients);
            ("loadgen_distinct", string_of_int distinct);
            ("loadgen_zipf", Printf.sprintf "%.2f" zipf_s);
            ("loadgen_measure_pct", string_of_int measure_pct);
            ("loadgen_cache_capacity", string_of_int cache_capacity);
            ("loadgen_shards", string_of_int nshards);
            ("loadgen_single_qps", Printf.sprintf "%.1f" sq);
            ("loadgen_single_p50_ms", Printf.sprintf "%.4f" sp50);
            ("loadgen_single_p95_ms", Printf.sprintf "%.4f" sp95);
            ("loadgen_single_p99_ms", Printf.sprintf "%.4f" sp99);
            ( "loadgen_single_hit_rate",
              Printf.sprintf "%.4f"
                (float_of_int s_hits
                /. float_of_int (max 1 (s_hits + s_misses))) );
            ("loadgen_router_qps", Printf.sprintf "%.1f" rq);
            ("loadgen_router_p50_ms", Printf.sprintf "%.4f" rp50);
            ("loadgen_router_p95_ms", Printf.sprintf "%.4f" rp95);
            ("loadgen_router_p99_ms", Printf.sprintf "%.4f" rp99);
            ( "loadgen_router_hit_rate",
              Printf.sprintf "%.4f"
                (float_of_int r_hits
                /. float_of_int (max 1 (r_hits + r_misses))) );
            ("loadgen_speedup", Printf.sprintf "%.4f" speedup);
            ( "loadgen_shard_routed",
              Printf.sprintf "[%s]"
                (String.concat ", "
                   (Array.to_list (Array.map string_of_int routed))) );
            ("loadgen_balance", Printf.sprintf "%.4f" balance);
            ( "loadgen_key_spread",
              Printf.sprintf "[%s]"
                (String.concat ", "
                   (Array.to_list (Array.map string_of_int key_spread))) );
            ("loadgen_key_balance", Printf.sprintf "%.4f" key_balance);
            ("loadgen_shed", string_of_int r_shed);
            ("loadgen_errors", string_of_int (serr + rerr));
          ]);
      Printf.printf "  wrote %s\n%!" bench_serve_file

(* --- asym: static pre-filter effect on the search ----------------------

   The symbolic pre-filter prunes the schedule space before the expensive
   stages; this bench measures what that buys: index-build latency with the
   corpus filter on vs off (rejected points skip the NN embedding forward),
   cold-query latency with the top-k filter on vs off (pruned candidates
   skip the simulator), the fraction of random candidates the analyzer
   prunes, and — the safety property — that the final chosen schedule on
   the seed corpus is identical either way (both tunes run on the shared
   unfiltered index; the filter only drops ranked candidates it proves can
   never win).  Results land in BENCH_asym.json; a run whose prune rate or
   filtered query latency regresses more than 20% against the recorded
   numbers refuses to overwrite without --force. *)

let bench_asym_file = "BENCH_asym.json"

let asym_bench ~force () =
  let algo = Algorithm.Spmm 256 in
  let machine = Machine_model.Machine.intel_like in
  let seed = Waco.Config.seed () in
  let model = Waco.Costmodel.create (Rng.create seed) algo in
  let srng = Rng.create (seed + 1) in
  let dims = [| 512; 512 |] in
  let corpus = Array.init 256 (fun _ -> Space.sample srng algo ~dims) in
  (* Seed matrices the queries run against: one per structure family, all in
     the hypersparse regime the pre-filter targets — the dense-product / nnz
     gap (>= 512^2 / 4096 = 64x) clears the analyzer's pruning margin with
     room to spare.  (Near-dense workloads legitimately switch the filter
     off: no schedule is asymptotically worse there.) *)
  let mats =
    let grng = Rng.create (seed + 2) in
    List.map
      (fun (family, nnz) ->
        {
          Gen.name = Printf.sprintf "%s_%d" (Gen.family_name family) nnz;
          Gen.matrix =
            Gen.generate grng family ~nrows:512 ~ncols:512 ~nnz;
        })
      [
        (Gen.Uniform, 4096);
        (Gen.Power_law 1.6, 2048);
        (Gen.Banded 64, 4096);
        (Gen.Block_dense 8, 2048);
        (Gen.Rmat, 4096);
        (Gen.Clustered 16, 1024);
      ]
  in
  (* Prune rate: workload-aware analyzers over fresh random candidates. *)
  let prune_rate =
    let total = ref 0 and pruned = ref 0 in
    List.iter
      (fun (g : Gen.named) ->
        let m = g.Gen.matrix in
        let wl = Machine_model.Workload.of_coo ~id:g.Gen.name m in
        let az = Asym.Analyzer.of_workload ~algo wl in
        let cdims = [| m.Coo.nrows; m.Coo.ncols |] in
        let crng = Rng.create (seed + 3) in
        for _ = 1 to 128 do
          incr total;
          if Asym.Analyzer.prunes az (Space.sample crng algo ~dims:cdims) then
            incr pruned
        done)
      mats;
    float_of_int !pruned /. float_of_int !total
  in
  (* Index build latency, filter off vs on. *)
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let az_default =
    Asym.Analyzer.create ~algo (Asym.Analyzer.default_stats ~algo ~dims ())
  in
  let index_off, build_off =
    time (fun () -> Waco.Tuner.build_index (Rng.create (seed + 4)) model corpus)
  in
  let index_on, build_on =
    time (fun () ->
        Waco.Tuner.build_index ~asym:az_default (Rng.create (seed + 4)) model
          corpus)
  in
  (* Cold queries against the shared unfiltered index, top-k pre-filter off
     vs on; the chosen schedule must be identical (the zero-change check). *)
  let query_off = ref 0.0 and query_on = ref 0.0 in
  let pruned_total = ref 0 and changed = ref 0 in
  List.iter
    (fun (g : Gen.named) ->
      let m = g.Gen.matrix in
      let wl = Machine_model.Workload.of_coo ~id:g.Gen.name m in
      let input = Waco.Extractor.input_of_coo ~id:g.Gen.name m in
      Waco.Costmodel.clear_feature_cache model;
      let off, t_off =
        time (fun () ->
            Waco.Tuner.tune ~k:10 ~asym:false model machine wl input index_off)
      in
      Waco.Costmodel.clear_feature_cache model;
      let on, t_on =
        time (fun () ->
            Waco.Tuner.tune ~k:10 model machine wl input index_off)
      in
      query_off := !query_off +. t_off;
      query_on := !query_on +. t_on;
      pruned_total := !pruned_total + on.Waco.Tuner.asym_pruned;
      if
        Superschedule.key on.Waco.Tuner.best
        <> Superschedule.key off.Waco.Tuner.best
      then begin
        incr changed;
        Printf.printf "  CHANGED answer on %s: %s vs %s\n%!" g.Gen.name
          (Superschedule.key on.Waco.Tuner.best)
          (Superschedule.key off.Waco.Tuner.best)
      end)
    mats;
  let n = float_of_int (List.length mats) in
  let q_off = 1000.0 *. !query_off /. n and q_on = 1000.0 *. !query_on /. n in
  Printf.printf "  index build : %.2fs off, %.2fs on (%d dropped: %d lint + %d asym)\n"
    build_off build_on
    (index_on.Waco.Tuner.lint_rejected + index_on.Waco.Tuner.asym_rejected)
    index_on.Waco.Tuner.lint_rejected index_on.Waco.Tuner.asym_rejected;
  Printf.printf "  cold query  : %.2fms off, %.2fms on (avg over %.0f matrices)\n"
    q_off q_on n;
  Printf.printf "  prune rate  : %.0f%% of random candidates (%d top-k prunes)\n"
    (100.0 *. prune_rate) !pruned_total;
  Printf.printf "  chosen schedule changed on %d/%.0f matrices%s\n" !changed n
    (if !changed = 0 then " (zero-change holds)" else " — FILTER IS UNSAFE");
  if prune_rate < 0.3 then
    Printf.printf "  WARNING: prune rate %.0f%% below the 30%% target\n%!"
      (100.0 *. prune_rate);
  (* Regression guard: don't silently clobber better recorded numbers. *)
  match
    if Sys.file_exists bench_asym_file && not force then begin
      let ic = open_in_bin bench_asym_file in
      let old = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match
        (json_float_field old "prune_rate", json_float_field old "query_on_ms")
      with
      | Some op, Some oq when prune_rate < 0.8 *. op || q_on > 1.2 *. oq ->
          Some (op, oq)
      | _ -> None
    end
    else None
  with
  | Some (op, oq) ->
      Printf.printf
        "  REGRESSION > 20%% vs recorded %s (prune rate %.2f -> %.2f, query \
         %.2fms -> %.2fms); keeping the old file (rerun with --force to \
         overwrite)\n%!"
        bench_asym_file op prune_rate oq q_on
  | None ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf "{\n";
      Printf.bprintf buf "  \"build_off_s\": %.4f,\n" build_off;
      Printf.bprintf buf "  \"build_on_s\": %.4f,\n" build_on;
      Printf.bprintf buf "  \"query_off_ms\": %.4f,\n" q_off;
      Printf.bprintf buf "  \"query_on_ms\": %.4f,\n" q_on;
      Printf.bprintf buf "  \"prune_rate\": %.4f,\n" prune_rate;
      Printf.bprintf buf "  \"index_lint_rejected\": %d,\n"
        index_on.Waco.Tuner.lint_rejected;
      Printf.bprintf buf "  \"index_asym_rejected\": %d,\n"
        index_on.Waco.Tuner.asym_rejected;
      Printf.bprintf buf "  \"topk_pruned\": %d,\n" !pruned_total;
      Printf.bprintf buf "  \"chosen_changed\": %d\n" !changed;
      Buffer.add_string buf "}\n";
      let oc = open_out_bin bench_asym_file in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "  wrote %s\n%!" bench_asym_file

let canonical_order selected =
  let ordered =
    List.filter_map
      (fun (n, _, _) -> if List.mem n selected then Some n else None)
      experiment_targets
  in
  ordered
  @ (if List.mem "micro" selected then [ "micro" ] else [])
  @ (if List.mem "kernels" selected then [ "kernels" ] else [])
  @ (if List.mem "scaling" selected then [ "scaling" ] else [])
  @ (if List.mem "kernelmix" selected then [ "kernelmix" ] else [])
  @ (if List.mem "serve" selected then [ "serve" ] else [])
  @ (if List.mem "loadgen" selected then [ "loadgen" ] else [])
  @ (if List.mem "asym" selected then [ "asym" ] else [])

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let force = List.mem "--force" args in
  let args = List.filter (fun a -> a <> "--force") args in
  let args =
    List.map (fun a -> match List.assoc_opt a aliases with Some t -> t | None -> a) args
  in
  let selected =
    match args with
    | [] -> List.map (fun (n, _, _) -> n) experiment_targets @ [ "micro" ]
    | _ -> args
  in
  List.iter
    (fun a ->
      if a <> "micro" && a <> "scaling" && a <> "kernels" && a <> "kernelmix"
         && a <> "serve" && a <> "loadgen" && a <> "asym"
         && not (List.exists (fun (n, _, _) -> n = a) experiment_targets)
      then Printf.eprintf "unknown target: %s (ignored)\n%!" a)
    selected;
  let t0 = Unix.gettimeofday () in
  Printf.printf "WACO reproduction bench (seed=%d scale=%.1f epochs=%d)\n%!"
    (Waco.Config.seed ()) (Waco.Config.scale ()) (Waco.Config.epochs ());
  List.iter
    (fun name ->
      if name = "micro" then micro ()
      else if name = "kernels" then begin
        Printf.printf "\n>>> kernels — NN hot-path time/allocation microbench\n%!";
        let t = Unix.gettimeofday () in
        kernels ~force ();
        Printf.printf "<<< kernels done in %.1fs\n%!" (Unix.gettimeofday () -. t)
      end
      else if name = "scaling" then begin
        Printf.printf "\n>>> scaling — domain-parallel speedup sweep\n%!";
        let t = Unix.gettimeofday () in
        scaling ~force ();
        Printf.printf "<<< scaling done in %.1fs\n%!" (Unix.gettimeofday () -. t)
      end
      else if name = "kernelmix" then begin
        Printf.printf "\n>>> kernelmix — four-kernel sweep on a shared corpus\n%!";
        let t = Unix.gettimeofday () in
        kernelmix ~force ();
        Printf.printf "<<< kernelmix done in %.1fs\n%!" (Unix.gettimeofday () -. t)
      end
      else if name = "serve" then begin
        Printf.printf "\n>>> serve — daemon latency/throughput bench\n%!";
        let t = Unix.gettimeofday () in
        serve_bench ~force ();
        Printf.printf "<<< serve done in %.1fs\n%!" (Unix.gettimeofday () -. t)
      end
      else if name = "loadgen" then begin
        Printf.printf
          "\n>>> loadgen — scale-out serving load harness (router vs single)\n%!";
        let t = Unix.gettimeofday () in
        loadgen_bench ~force ();
        Printf.printf "<<< loadgen done in %.1fs\n%!" (Unix.gettimeofday () -. t)
      end
      else if name = "asym" then begin
        Printf.printf "\n>>> asym — static pre-filter prune rate and latency\n%!";
        let t = Unix.gettimeofday () in
        asym_bench ~force ();
        Printf.printf "<<< asym done in %.1fs\n%!" (Unix.gettimeofday () -. t)
      end
      else
        match List.find_opt (fun (n, _, _) -> n = name) experiment_targets with
        | Some (_, desc, run) ->
            Printf.printf "\n>>> %s — %s\n%!" name desc;
            let t = Unix.gettimeofday () in
            run ();
            Printf.printf "<<< %s done in %.1fs\n%!" name (Unix.gettimeofday () -. t)
        | None -> ())
    (canonical_order (List.sort_uniq compare selected));
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
