(* Table 7: cross-hardware generalization.  An SpMM cost model is trained
   against each machine configuration's simulator, then each model tunes the
   test matrices on each machine — the 2x2 matrix of geomean speedups over
   FixedCSR.  The diagonal should win (models are somewhat
   hardware-specific), but off-diagonal entries should still beat 1.0
   (general optimization patterns transfer, §5.5). *)

open Schedule
open Machine_model

let algo = Algorithm.Spmm 256

(* Tune [cases] with [model]+[index] (trained on some machine), but measure
   the chosen schedules on [target] machine. *)
let geomean_speedup (trained : Lab.trained) target =
  let speedups =
    List.map
      (fun (name, (wl, input)) ->
        ignore name;
        let r =
          Waco.Tuner.tune trained.Lab.model target wl input trained.Lab.index
        in
        let csr = (Baselines.fixed_csr target wl algo).Baselines.kernel_time in
        csr /. r.Waco.Tuner.best_measured)
      (Lab.test_cases algo)
  in
  Lab.geomean speedups

let run () =
  Printf.printf "\n=== Table 7: SpMM geomean speedup over FixedCSR, 2x2 train/test machines ===\n";
  let machines = [ Machine.intel_like; Machine.amd_like ] in
  let trained_models =
    List.map (fun m -> (m, Lab.trained m algo)) machines
  in
  Printf.printf "%-22s" "tested \\ trained on";
  List.iter (fun m -> Printf.printf " %12s" m.Machine.name) machines;
  Printf.printf "\n";
  List.iter
    (fun target ->
      Printf.printf "%-22s" target.Machine.name;
      List.iter
        (fun (_, tr) ->
          Printf.printf " %11.2fx" (geomean_speedup tr target))
        trained_models;
      Printf.printf "\n")
    machines;
  Printf.printf "(paper: Intel/Intel 1.26, Intel/AMD 1.08, AMD/Intel 1.12, AMD/AMD 1.21)\n"
