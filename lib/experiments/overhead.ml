(* Fig. 17 and Table 8: what does tuning cost, and when does it pay off?

   All times are expressed in units of one MKL-Naive kernel invocation (the
   paper's normalization).  WACO's overhead mixes real wall-clock seconds
   (feature extraction + graph search, measured on this host) with simulated
   seconds (the top-k measurement runs and the format conversion) — the same
   accounting the paper uses, since their search also runs on the host CPU
   while kernels run on the testbed. *)

open Sptensor
open Schedule
open Machine_model

type framework_cost = {
  fname : string;
  init_units : float; (* (tuning + conversion) / t_naive *)
  kernel_units : float; (* tuned kernel time / t_naive *)
}

let frameworks machine wl input algo (trained : Lab.trained) =
  let naive = (Baselines.mkl_naive machine wl algo).Baselines.kernel_time in
  let of_baseline (b : Baselines.tuned) =
    {
      fname = b.Baselines.name;
      init_units = (b.Baselines.tuning_time +. b.Baselines.convert_time) /. naive;
      kernel_units = b.Baselines.kernel_time /. naive;
    }
  in
  Waco.Costmodel.clear_feature_cache trained.Lab.model;
  let waco = Waco.Tuner.tune trained.Lab.model machine wl input trained.Lab.index in
  let waco_cost =
    {
      fname = "WACO";
      init_units = Waco.Tuner.tuning_overhead machine wl waco /. naive;
      kernel_units = waco.Waco.Tuner.best_measured /. naive;
    }
  in
  let mkl =
    match algo with
    | Algorithm.Spmv | Algorithm.Spmm _ -> [ of_baseline (Baselines.mkl machine wl algo) ]
    | _ -> []
  in
  (naive, mkl @ [ of_baseline (Baselines.best_format machine wl algo); waco_cost ])

let run_fig17 () =
  let machine = Machine.intel_like in
  let { Lab.model; index; _ } = Lab.trained machine (Algorithm.Spmm 256) in
  ignore model;
  ignore index;
  Printf.printf "\n=== Figure 17: tuning overhead vs speedup (over MKL-Naive) ===\n";
  List.iter
    (fun algo ->
      let trained = Lab.trained machine algo in
      (* Fresh inputs: a timed tune must not inherit a pyramid built by an
         earlier one. *)
      let take = List.filteri (fun i _ -> i < 12) (Lab.test_cases algo) in
      let acc = Hashtbl.create 4 in
      List.iter
        (fun (_, (wl, input)) ->
          let _, fws = frameworks machine wl input algo trained in
          List.iter
            (fun f ->
              let overheads, speeds =
                Option.value ~default:([], []) (Hashtbl.find_opt acc f.fname)
              in
              Hashtbl.replace acc f.fname
                (f.init_units :: overheads, (1.0 /. f.kernel_units) :: speeds))
            fws)
        take;
      Printf.printf "%s:\n" (Algorithm.name algo);
      Hashtbl.iter
        (fun name (overheads, speeds) ->
          Printf.printf
            "  %-12s avg search time %10.0f naive-invocations, geomean speedup %5.2fx\n"
            name
            (List.fold_left ( +. ) 0.0 overheads /. float_of_int (List.length overheads))
            (Lab.geomean speeds))
        acc)
    [ Algorithm.Spmv; Algorithm.Spmm 256 ];
  Printf.printf
    "(paper: MKL 113 / BestFormat 277-614 / WACO ~5K invocations on SpMV;\n WACO pays the most tuning time for the highest speedup)\n"

(* Table 8: end-to-end execution time (tuning + conversion + N x kernel) for
   real-world N_runs scenarios, in MKL-Naive kernel units. *)
let run_table8 () =
  let machine = Machine.intel_like in
  let rng = Lab.rng_for "scenarios" in
  Printf.printf "\n=== Table 8: end-to-end scenarios (units = MKL-Naive kernel calls) ===\n";
  let run_side label algo m scenarios =
    let id = "scenario-" ^ label in
    let wl = Workload.of_coo ~id m in
    let input = Waco.Extractor.input_of_coo ~id m in
    let trained = Lab.trained machine algo in
    let naive, fws = frameworks machine wl input algo trained in
    ignore naive;
    let by_name n = List.find (fun f -> f.fname = n) fws in
    let waco = by_name "WACO" and bestf = by_name "BestFormat" in
    let mkl = try Some (by_name "MKL") with Not_found -> None in
    let crossover a b =
      (* N where a's end-to-end equals b's. *)
      if a.kernel_units >= b.kernel_units then None
      else
        Some
          (int_of_float
             ((a.init_units -. b.init_units) /. (b.kernel_units -. a.kernel_units)))
    in
    let end_to_end f n = f.init_units +. (float_of_int n *. f.kernel_units) in
    Printf.printf "--- (%s) ---\n" label;
    Printf.printf "%-24s %10s %12s %12s %12s\n" "Scenario" "N_runs" "WACO" "BestFormat"
      (match mkl with Some _ -> "MKL" | None -> "-");
    let print_row name n =
      let cell f = Printf.sprintf "%.0f" (end_to_end f n) in
      let cells =
        [ cell waco; cell bestf ] @ (match mkl with Some m -> [ cell m ] | None -> [])
      in
      let best = List.fold_left min infinity
          (List.map float_of_string cells) in
      let mark c = if float_of_string c = best then c ^ "*" else c in
      Printf.printf "%-24s %10d %12s %12s %12s\n" name n
        (mark (List.nth cells 0)) (mark (List.nth cells 1))
        (match mkl with Some _ -> mark (List.nth cells 2) | None -> "-")
    in
    print_row "Initial Cost" 0;
    List.iter (fun (name, n) -> print_row name n) scenarios;
    (match mkl with
    | Some m ->
        (match crossover waco m with
        | Some n -> print_row "WACO=MKL (crossover)" (max 0 n)
        | None -> Printf.printf "%-24s %10s (WACO kernel not faster than MKL here)\n"
                    "WACO=MKL" "-")
    | None -> ());
    (match crossover waco bestf with
    | Some n -> print_row "WACO=BestFormat" (max 0 n)
    | None ->
        Printf.printf "%-24s %10s (WACO kernel not faster than BestFormat here)\n"
          "WACO=BestFormat" "-")
  in
  (* (a) SpMV scenarios on a scattered structural-mechanics system (GMRES /
     mesh simulation solve such systems; sparsine is one). *)
  let system = Gen.sparsine_like rng in
  run_side "a: SpMV" Algorithm.Spmv system
    [ ("PageRank", 50); ("GMRES", 517_000); ("Mesh simulation", 1_800_000) ];
  (* (b) SpMM scenarios on a block-sparse weight matrix (pruned neural
     networks exhibit exactly this structure). *)
  let pruned = Gen.block_dense rng ~block:8 ~nrows:2048 ~ncols:2048 ~nnz:160000 in
  run_side "b: SpMM" (Algorithm.Spmm 256) pruned
    [ ("GNN", 10_000); ("Pruned NN", 1_000_000) ];
  Printf.printf
    "(* marks the winner; paper: MKL wins tiny N, BestFormat mid, WACO at large N)\n"

let run () =
  run_fig17 ();
  run_table8 ()
