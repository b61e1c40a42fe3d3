(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (one target per table/figure; see DESIGN.md §4), runs a
   Bechamel micro-suite over the core kernels, and records four
   measurement targets (kernels, scaling, kernelmix, asym) into committed
   BENCH_*.json files.

   Usage:
     dune exec bench/main.exe              # all experiment targets + micro
     dune exec bench/main.exe -- table1 fig13 ...   # selected targets
     dune exec bench/main.exe -- kernels --force    # overwrite despite a regression

   An unknown target name exits 2 before anything runs.  Every elapsed time
   is read from the monotonic clock ([timed]).  Every BENCH_*.json goes
   through [record], the one regression gate: a run that regresses a gated
   key more than 20% against the recorded file keeps the old file unless
   run with --force.

   Knobs: WACO_SCALE (corpus multiplier), WACO_EPOCHS, WACO_SEED. *)

open Sptensor
open Schedule

(* [f ()] and the monotonic seconds it took. *)
let timed f =
  let t0 = Robust.mono_now () in
  let v = f () in
  (v, Robust.mono_now () -. t0)

(* --- The regression gate ------------------------------------------------ *)

type direction = Higher | Lower

let host_json () =
  Printf.sprintf "{\"nproc\": %d, \"ocaml\": %S, \"waco_domains\": %S}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value ~default:"unset" (Sys.getenv_opt "WACO_DOMAINS"))

(* Write [rows] (key, rendered JSON value) in order to [file], plus a
   "host" object.  Unless [force], a gated key that moved more than 20% in
   its bad direction against the recorded file keeps the old file. *)
let record file ~force rows gated =
  let regressions =
    if force || not (Sys.file_exists file) then []
    else begin
      let ic = open_in_bin file in
      let old = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.filter_map
        (fun (key, dir) ->
          let now = float_of_string (List.assoc key rows) in
          let recorded = Option.bind (Json.number_field old key) float_of_string_opt in
          match (recorded, dir) with
          | Some o, Higher when now < 0.8 *. o -> Some (key, o, now)
          | Some o, Lower when now > 1.2 *. o -> Some (key, o, now)
          | _ -> None)
        gated
    end
  in
  if regressions <> [] then
    Printf.printf
      "  REGRESSION > 20%% vs recorded %s (%s); keeping the old file (rerun \
       with --force to overwrite)\n%!"
      file
      (String.concat ", "
         (List.map (fun (k, o, now) -> Printf.sprintf "%s %g -> %g" k o now) regressions))
  else begin
    let oc = open_out_bin file in
    output_string oc "{\n";
    List.iter (fun (k, v) -> Printf.fprintf oc "  %S: %s,\n" k v) rows;
    Printf.fprintf oc "  \"host\": %s\n}\n" (host_json ());
    close_out oc;
    Printf.printf "  wrote %s\n%!" file
  end

let f4 = Printf.sprintf "%.4f"

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
   denominators.  Gated: the 4-domain collect and index speedups. *)

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
        let dump = Anns.Hnsw.dump index.Waco.Tuner.hnsw ~payload:Sched_io.serialize in
        (d, (collect_s, index_s, eval_s), (runtimes_of data, dump, eval)))
      sweep
  in
  let _, (base_c, base_i, base_e), base_out = List.hd results in
  let identical = List.for_all (fun (_, _, out) -> out = base_out) (List.tl results) in
  Printf.printf "  byte-identical across domain counts: %b\n%!" identical;
  if not identical then
    failwith "scaling: parallel run diverged from the sequential reference";
  let _, (c4, i4, e4), _ = List.find (fun (d, _, _) -> d = 4) results in
  let s4c = base_c /. c4 and s4i = base_i /. i4 and s4e = base_e /. e4 in
  Printf.printf "  speedup at 4 domains: collect %.2fx  index %.2fx  eval %.2fx\n%!"
    s4c s4i s4e;
  let list xs = "[" ^ String.concat ", " xs ^ "]" in
  let column pick = list (List.map (fun (_, t, _) -> f4 (pick t)) results) in
  record "BENCH_parallel.json" ~force
    [
      ("domains", list (List.map string_of_int sweep));
      ("collect_s", column (fun (c, _, _) -> c));
      ("index_s", column (fun (_, i, _) -> i));
      ("eval_s", column (fun (_, _, e) -> e));
      ("speedup4_collect", f4 s4c);
      ("speedup4_index", f4 s4i);
      ("speedup4_eval", f4 s4e);
      ("baseline_s", list (List.map f4 [ base_c; base_i; base_e ]));
      ("identical", string_of_bool identical);
    ]
    [ ("speedup4_collect", Higher); ("speedup4_index", Higher) ]

(* --- kernelmix: the four paper kernels swept over one shared corpus ------
   Untrained (but deterministic) models: the sweep exercises what the
   multi-kernel path added — the kernel-conditioned head, per-kernel Costsim
   work distributions, per-kernel index construction — not training quality.
   The matrices are shared across the 2-D kernels (MTTKRP runs the 3-D
   tensor suite at the same count), so differences between rows are the
   kernels, not the inputs.  Gated: each kernel's geomean speedup over the
   fixed-CSR baseline, which is fully deterministic. *)

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
        let speedups, tune_s =
          timed (fun () ->
              List.map
                (fun (wl, input) ->
                  let r = Waco.Tuner.tune model machine wl input index in
                  let csr = Baselines.fixed_csr machine wl algo in
                  csr.Baselines.kernel_time
                  /. Float.max 1e-12 r.Waco.Tuner.best_measured)
                cases)
        in
        let geo = Experiments.Lab.geomean speedups in
        Printf.printf
          "  %-7s geomean speedup vs fixed CSR %6.3fx  (%d cases, %.2fs)\n%!"
          kname geo (List.length cases) tune_s;
        (kname, geo, tune_s))
      Experiments.Lab.algorithms
  in
  record "BENCH_kernelmix.json" ~force
    ((("matrices", string_of_int nmats)
     :: List.concat_map
          (fun (k, geo, tune_s) -> [ ("speedup_" ^ k, f4 geo); ("tune_s_" ^ k, f4 tune_s) ])
          per_kernel)
    @ [ ("kernels", string_of_int (List.length per_kernel)) ])
    (List.map (fun (k, _, _) -> ("speedup_" ^ k, Higher)) per_kernel)

(* --- NN hot-path microbenchmarks: flat kernel maps + scratch buffers vs the
   retained pre-flat reference implementations (Nn.Sparse_conv_ref and local
   allocating closures).  Each op reports time AND GC allocation per
   iteration — the point of the flat layout is the allocation column.
   Gated: the conv allocation reduction, the cold extractor speedup and the
   bytes of a warm 32-input extractor batch. *)

(* (ns/iter, bytes allocated/iter) of [f], after warmup. *)
let measure ?(warmup = 3) ~iters f =
  for _ = 1 to warmup do f () done;
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let (), dt = timed (fun () -> for _ = 1 to iters do f () done) in
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
    let flat =
      measure ~iters (fun () ->
          ignore (Nn.Sparse_conv.build_map ~ksize ~stride smap.Nn.Smap.coords ~h ~w))
    in
    let reference =
      measure ~iters (fun () ->
          ignore (Nn.Sparse_conv_ref.build_map ~ksize ~stride pairs ~h ~w))
    in
    (flat, reference)
  in
  let map_build = map_row ~ksize:3 ~stride:2 ~iters:200 in
  let map_build_k5s1 = map_row ~ksize:5 ~stride:1 ~iters:100 in

  (* -- conv forward+backward over a prebuilt map (the per-epoch hot loop) -- *)
  let conv = Nn.Sparse_conv.create rng ~name:"bench.conv" ~in_ch:ch ~out_ch:ch ~ksize:3 ~stride:1 in
  let feats = Array.init (nsites * ch) (fun i -> Float.of_int (i mod 7) /. 7.0 -. 0.4) in
  let input = { smap with Nn.Smap.channels = ch; feats } in
  let conv_map = Nn.Sparse_conv.build_map ~ksize:3 ~stride:1 smap.Nn.Smap.coords ~h ~w in
  let ref_conv_map = Nn.Sparse_conv_ref.build_map ~ksize:3 ~stride:1 pairs ~h ~w in
  let dout = Array.init (nsites * ch) (fun i -> Float.of_int (i mod 5) /. 5.0 -. 0.3) in
  let conv_flat =
    measure ~iters:100 (fun () ->
        ignore (Nn.Sparse_conv.forward_with_map conv conv_map input);
        ignore (Nn.Sparse_conv.backward conv dout))
  in
  let wgrad = Array.make (Array.length conv.Nn.Sparse_conv.w.Nn.Param.grad) 0.0 in
  let bgrad = Array.make ch 0.0 in
  let conv_ref =
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

  (* -- linear forward+backward (predictor/embedder shape) -- *)
  let batch = 64 in
  let lin = Nn.Linear.create rng ~name:"bench.lin" ~in_dim:96 ~out_dim:64 in
  let lin_in = Array.init (batch * 96) (fun i -> Float.of_int (i mod 11) /. 11.0 -. 0.5) in
  let lin_dout = Array.init (batch * 64) (fun i -> Float.of_int (i mod 13) /. 13.0 -. 0.5) in
  let linear_flat =
    measure ~iters:300 (fun () ->
        ignore (Nn.Linear.forward lin ~batch lin_in);
        ignore (Nn.Linear.backward lin lin_dout))
  in
  let linear_ref =
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
  let pools = Array.init nconv (fun _ -> Nn.Pool.create ()) in
  let head = Nn.Linear.create rng ~name:"bench.head" ~in_dim:(nconv * ch) ~out_dim:Waco.Config.feature_dim in
  let flat_layers pyr =
    let cur = ref pyr.Nn.Pyramid.base in
    let pooled = ref [] in
    for i = 0 to nconv - 1 do
      let o = Nn.Sparse_conv.forward_with_map ~relu:true convs.(i) pyr.Nn.Pyramid.maps.(i) !cur in
      pooled := Nn.Pool.forward pools.(i) o :: !pooled;
      cur := o
    done;
    let concat = Array.concat (List.rev !pooled) in
    Array.sub (Nn.Linear.forward head ~batch:1 concat) 0 Waco.Config.feature_dim
  in
  let warm_pyr = Nn.Pyramid.build smap ~layers:arch in
  let extractor_cold =
    measure ~iters:30 (fun () ->
        ignore (flat_layers (Nn.Pyramid.build smap ~layers:arch)))
  in
  let extractor_warm =
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
  let extractor_cold_ref =
    measure ~iters:30 (fun () -> ignore (ref_layers (ref_maps_of ())))
  in
  let extractor_warm_ref =
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

  (* -- warm extractor batch: the feature path of serve phase B --

     One [Waco.Extractor.forward] per input over 32 warm inputs (pyramids
     memoized on the inputs — the extractor-warm shape), as
     [Costmodel.feature_batch] runs them.  Its bytes are gated: a warm
     forward may pay small per-input costs, nothing proportional to sites
     or pairs. *)
  let batch_rng = Rng.create 424242 in
  let ext = Waco.Extractor.create batch_rng Waco.Extractor.Waconet in
  let batch_inputs =
    Array.init 32 (fun i ->
        Waco.Extractor.input_of_coo
          ~id:(Printf.sprintf "xb%d" i)
          (Gen.uniform batch_rng ~nrows:256 ~ncols:256 ~nnz:3000))
  in
  let extractor_batch32 =
    measure ~iters:8 (fun () ->
        Array.iter (fun inp -> ignore (Waco.Extractor.forward ext inp)) batch_inputs)
  in

  (* -- predictor tail: the graph walk's prefix-seeded batch vs full rows --

     One scorer call over a batch of embeddings (its feature prefix is
     computed once per query, outside the loop) against Nn.Mlp.forward
     over the same full rows, per scored embedding.  Ungated. *)
  let tail_batch = 16 in
  let tail_algo = Algorithm.Spmm 8 in
  let tail_model = Waco.Costmodel.create (Rng.create 77) tail_algo in
  let ed = Waco.Config.embed_dim in
  let uniform n = Array.init n (fun _ -> Rng.float_in batch_rng (-1.0) 1.0) in
  let feature = uniform Waco.Config.feature_dim in
  let embs = uniform (tail_batch * ed) in
  let kernel = Waco.Kernel.of_algo tail_algo in
  let score = Waco.Costmodel.tail_scorer ~kernel tail_model ~feature in
  let rows = Waco.Costmodel.rows_of ~kernel ~feature ~embs ~batch:tail_batch in
  let predictor = tail_model.Waco.Costmodel.predictor in
  let full () = Nn.Mlp.forward predictor ~batch:tail_batch rows in
  let got = score ~embs ~batch:tail_batch and want = full () in
  for b = 0 to tail_batch - 1 do
    if Int64.bits_of_float got.(b) <> Int64.bits_of_float want.(b) then
      failwith (Printf.sprintf "kernels: prefix tail / full row diverge at %d" b)
  done;
  let per_embedding (ns, bytes) =
    (ns /. float_of_int tail_batch, bytes /. float_of_int tail_batch)
  in
  let per_call f = per_embedding (measure ~iters:4000 (fun () -> ignore (f ()))) in
  let tail_score = (per_call (fun () -> score ~embs ~batch:tail_batch), per_call full) in

  (* Each comparison: (key, reference name, (ns, bytes), reference (ns, bytes)). *)
  let comparisons =
    [
      ("map_build", "ref", map_build);
      ("map_build_k5s1", "ref", map_build_k5s1);
      ("conv_fwdbwd", "ref", (conv_flat, conv_ref));
      ("linear_fwdbwd", "ref", (linear_flat, linear_ref));
      ("extractor_cold", "ref", (extractor_cold, extractor_cold_ref));
      ("extractor_warm", "ref", (extractor_warm, extractor_warm_ref));
      ("tail_score", "full", tail_score);
    ]
  in
  List.iter
    (fun (key, _, ((ns, bytes), (ref_ns, ref_bytes))) ->
      Printf.printf
        "  %-18s %12.0f ns %10.0f B   | ref %12.0f ns %10.0f B   (%.2fx time, %.1fx alloc)\n%!"
        key ns bytes ref_ns ref_bytes (ref_ns /. ns)
        (ref_bytes /. Float.max 1.0 bytes))
    comparisons;
  Printf.printf "  %-18s %12.0f ns %10.0f B\n%!" "extractor_batch32" (fst extractor_batch32)
    (snd extractor_batch32);
  let speedup ((ns, _), (ref_ns, _)) = ref_ns /. ns in
  let conv_alloc_reduction = snd conv_ref /. Float.max 1.0 (snd conv_flat) in
  let extractor_speedup = speedup (extractor_cold, extractor_cold_ref) in
  Printf.printf "  conv alloc reduction %.1fx, extractor speedup %.2fx\n%!"
    conv_alloc_reduction extractor_speedup;
  let f1 = Printf.sprintf "%.1f" and f2 = Printf.sprintf "%.2f" in
  record "BENCH_kernels.json" ~force
    ((("nsites", string_of_int nsites)
     :: List.concat_map
          (fun (key, rname, ((ns, bytes), (ref_ns, ref_bytes))) ->
            [
              (key ^ "_ns", f1 ns);
              (key ^ "_bytes", f1 bytes);
              (Printf.sprintf "%s_%s_ns" key rname, f1 ref_ns);
              (Printf.sprintf "%s_%s_bytes" key rname, f1 ref_bytes);
            ])
          comparisons)
    @ [
        ("extractor_batch32_ns", f1 (fst extractor_batch32));
        ("extractor_batch32_bytes", f1 (snd extractor_batch32));
        ("tail_score_speedup", f2 (speedup tail_score));
        ("conv_alloc_reduction", f2 conv_alloc_reduction);
        ("extractor_speedup", f2 extractor_speedup);
      ])
    [
      ("conv_alloc_reduction", Higher);
      ("extractor_speedup", Higher);
      ("extractor_batch32_bytes", Lower);
    ]

(* --- asym: static pre-filter effect on the search ----------------------

   The symbolic pre-filter prunes the schedule space before the expensive
   stages; this bench measures what that buys: index-build latency with the
   corpus filter on vs off (rejected points skip the NN embedding forward),
   cold-query latency with the top-k filter on vs off (pruned candidates
   skip the simulator), the fraction of random candidates the analyzer
   prunes, and — the safety property — whether the final chosen schedule on
   the seed corpus is identical either way (both tunes run on the shared
   unfiltered index; the filter should only drop ranked candidates it
   proves can never win).  Gated: the prune rate and the filtered query
   latency. *)

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
  let az_default =
    Asym.Analyzer.create ~algo (Asym.Analyzer.default_stats ~algo ~dims ())
  in
  let index_off, build_off =
    timed (fun () -> Waco.Tuner.build_index (Rng.create (seed + 4)) model corpus)
  in
  let index_on, build_on =
    timed (fun () ->
        Waco.Tuner.build_index ~asym:az_default (Rng.create (seed + 4)) model
          corpus)
  in
  (* Cold queries against the shared unfiltered index, top-k pre-filter off
     vs on; the chosen schedule should be identical (the zero-change check). *)
  let query_off = ref 0.0 and query_on = ref 0.0 in
  let pruned_total = ref 0 and changed = ref 0 in
  List.iter
    (fun (g : Gen.named) ->
      let m = g.Gen.matrix in
      let wl = Machine_model.Workload.of_coo ~id:g.Gen.name m in
      (* One input per timed run, so neither inherits the other's pyramid. *)
      let input () = Waco.Extractor.input_of_coo ~id:g.Gen.name m in
      let input_off = input () and input_on = input () in
      Waco.Costmodel.clear_feature_cache model;
      let off, t_off =
        timed (fun () ->
            Waco.Tuner.tune ~k:10 ~asym:false model machine wl input_off index_off)
      in
      Waco.Costmodel.clear_feature_cache model;
      let on, t_on =
        timed (fun () ->
            Waco.Tuner.tune ~k:10 model machine wl input_on index_off)
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
  record "BENCH_asym.json" ~force
    [
      ("build_off_s", f4 build_off);
      ("build_on_s", f4 build_on);
      ("query_off_ms", f4 q_off);
      ("query_on_ms", f4 q_on);
      ("prune_rate", f4 prune_rate);
      ("index_lint_rejected", string_of_int index_on.Waco.Tuner.lint_rejected);
      ("index_asym_rejected", string_of_int index_on.Waco.Tuner.asym_rejected);
      ("topk_pruned", string_of_int !pruned_total);
      ("chosen_changed", string_of_int !changed);
    ]
    [ ("prune_rate", Higher); ("query_on_ms", Lower) ]

(* --- Targets ------------------------------------------------------------ *)

(* (name, banner, run), in run order.  A run without target names runs the
   default targets: every table and figure, then micro. *)
let default_targets : (string * string * (unit -> unit)) list =
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
    ("micro", "Bechamel micro-benchmarks", micro);
  ]

let recorded_targets ~force =
  [
    ("kernels", "NN hot-path time/allocation microbench", kernels ~force);
    ("scaling", "domain-parallel speedup sweep", scaling ~force);
    ("kernelmix", "four-kernel sweep on a shared corpus", kernelmix ~force);
    ("asym", "static pre-filter prune rate and latency", asym_bench ~force);
  ]

(* table1 also prints table2; keep aliases so those names work as targets. *)
let aliases = [ ("table2", "table1"); ("fig16a", "fig16"); ("fig16b", "fig16") ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let force = List.mem "--force" args in
  let targets = default_targets @ recorded_targets ~force in
  let name (n, _, _) = n in
  let selected =
    match List.filter (( <> ) "--force") args with
    | [] -> List.map name default_targets
    | names -> List.map (fun a -> Option.value ~default:a (List.assoc_opt a aliases)) names
  in
  (match List.filter (fun a -> not (List.mem a (List.map name targets))) selected with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown target(s): %s\nvalid targets: %s\n%!"
        (String.concat " " unknown)
        (String.concat " " (List.map name targets @ List.map fst aliases));
      exit 2);
  Printf.printf "WACO reproduction bench (seed=%d scale=%.1f epochs=%d)\n%!"
    (Waco.Config.seed ()) (Waco.Config.scale ()) (Waco.Config.epochs ());
  let (), total =
    timed (fun () ->
        List.iter
          (fun (n, banner, run) ->
            if List.mem n selected then begin
              Printf.printf "\n>>> %s — %s\n%!" n banner;
              let (), dt = timed run in
              Printf.printf "<<< %s done in %.1fs\n%!" n dt
            end)
          targets)
  in
  Printf.printf "\ntotal bench time: %.1fs\n" total
