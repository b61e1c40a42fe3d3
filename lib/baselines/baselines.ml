(* The four baselines of §5.1, reimplemented against the cost simulator.

   - [fixed_csr]: TACO with the fixed UC (CSR) format — CCC/CSF for MTTKRP —
     and the paper's default schedule (OpenMP chunk 128 for SpMV, 32 else).
   - [mkl]: an inspector-executor in MKL's mould — the format is pinned to CSR
     and only the *schedule* (chunk size, thread count) is tuned.  SpMV and
     SpMM only, like MKL's sparse BLAS.
   - [best_format]: picks the best of five frequent formats (CSR, CSC, BCSR
     4x4, row-blocked UCU 16, sparse-block UUC 512) with a concordant default
     schedule; a *format-only* tuner.  Our oracle evaluates all five — a
     stronger stand-in than the paper's learned classifier, biasing results
     against WACO.
   - [aspt]: simplified Adaptive Sparse Tiling — column panels; (row, panel)
     segments with enough nonzeros form a locality-friendly tiled portion
     (modelled as a sparse-block format), the remainder stays CSR.  SpMM and
     SDDMM only, like the released ASpT artifacts. *)

open Schedule
open Machine_model

type tuned = {
  name : string;
  kernel_time : float; (* seconds per kernel invocation *)
  tuning_time : float; (* one-off search/inspection cost *)
  convert_time : float; (* one-off format conversion cost *)
  description : string;
}

let fixed_csr machine wl algo =
  let s = Superschedule.fixed_default algo in
  {
    name = "FixedCSR";
    kernel_time = Costsim.runtime machine wl s;
    tuning_time = 0.0;
    convert_time = 0.0;
    description = Superschedule.describe s;
  }

(* MKL without the inspector: the reference "naive" implementation Fig. 17
   normalizes against — CSR with static scheduling (modelled as a coarse
   chunk over full threads). *)
let mkl_naive machine wl algo =
  let base = Superschedule.fixed_default algo in
  let rows = wl.Workload.dims.(0) in
  let static_chunk = max 1 (rows / machine.Machine.smt_threads) in
  let s = { base with Superschedule.chunk = static_chunk } in
  {
    name = "MKL-Naive";
    kernel_time = Costsim.runtime machine wl s;
    tuning_time = 0.0;
    convert_time = 0.0;
    description = Superschedule.describe s;
  }

let mkl machine wl algo =
  (match algo with
  | Algorithm.Spmv | Algorithm.Spmm _ -> ()
  | Algorithm.Sddmm _ | Algorithm.Mttkrp _ ->
      invalid_arg "Baselines.mkl: MKL supports only SpMV and SpMM");
  let base = Superschedule.fixed_default algo in
  (* A realistic inspector tries a small heuristic candidate set, not the
     full chunk menu (MKL's inspection is hint-driven, not exhaustive). *)
  let candidates =
    List.concat_map
      (fun threads ->
        List.map
          (fun chunk -> { base with Superschedule.chunk; threads })
          [ 1; 8; 32 ])
      [ Superschedule.Half; Superschedule.Full ]
  in
  let timed = List.map (fun s -> (s, Costsim.runtime machine wl s)) candidates in
  let best_s, best_t =
    List.fold_left (fun (bs, bt) (s, t) -> if t < bt then (s, t) else (bs, bt))
      (base, Costsim.runtime machine wl base)
      timed
  in
  (* The inspector empirically times each candidate on the fixed format. *)
  let tuning = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 timed in
  {
    name = "MKL";
    kernel_time = best_t;
    tuning_time = tuning;
    convert_time = 0.0; (* format unchanged: no conversion *)
    description = Superschedule.describe best_s;
  }

(* The five candidate formats, as (name, schedule) with concordant default
   schedules (format-only tuning keeps the traversal concordant, §2.1). *)
let best_format_candidates algo ~(dims : int array) =
  let top = Format_abs.Spec.top_var and bot = Format_abs.Spec.bottom_var in
  let u = Format_abs.Levelfmt.U and c = Format_abs.Levelfmt.C in
  match algo with
  | Algorithm.Mttkrp _ ->
      (* 3-D candidates: CSF and two blocked CSF variants. *)
      let csf = Superschedule.fixed_default algo in
      let blocked b =
        Superschedule.concordant_with_format algo ~splits:[| b; b; b |]
          ~a_order:[| top 0; top 1; top 2; bot 0; bot 1; bot 2 |]
          ~a_formats:[| c; c; c; u; u; u |]
      in
      [ ("CSF", csf); ("BCSF2", blocked 2); ("BCSF4", blocked 4) ]
  | Algorithm.Spmv | Algorithm.Spmm _ | Algorithm.Sddmm _ ->
      ignore dims;
      let csr = Superschedule.fixed_default algo in
      let csc =
        Superschedule.concordant_with_format algo ~splits:[| 1; 1 |]
          ~a_order:[| top 1; top 0; bot 1; bot 0 |] ~a_formats:[| u; c; u; u |]
      in
      let bcsr =
        Superschedule.concordant_with_format algo ~splits:[| 4; 4 |]
          ~a_order:[| top 0; top 1; bot 0; bot 1 |] ~a_formats:[| u; c; u; u |]
      in
      let ucu =
        Superschedule.concordant_with_format algo ~splits:[| 16; 1 |]
          ~a_order:[| top 0; top 1; bot 0; bot 1 |] ~a_formats:[| u; c; u; u |]
      in
      let sparse_block =
        Superschedule.concordant_with_format algo ~splits:[| 1; 512 |]
          ~a_order:[| top 1; top 0; bot 1; bot 0 |] ~a_formats:[| u; u; c; u |]
      in
      [
        ("CSR", csr); ("CSC", csc); ("BCSR4x4", bcsr); ("UCU16", ucu);
        ("UUC512", sparse_block);
      ]

let best_format machine wl algo =
  let cands = best_format_candidates algo ~dims:wl.Workload.dims in
  let timed = List.map (fun (n, s) -> (n, s, Costsim.runtime machine wl s)) cands in
  let bn, bs, bt =
    List.fold_left
      (fun (bn, bs, bt) (n, s, t) -> if t < bt then (n, s, t) else (bn, bs, bt))
      (match timed with x :: _ -> x | [] -> assert false)
      timed
  in
  (* A classifier's tuning cost is one featurization + inference pass. *)
  let inference_cycles = (10.0 *. float_of_int wl.Workload.nnz) +. 1e6 in
  {
    name = "BestFormat";
    kernel_time = bt;
    tuning_time = inference_cycles /. machine.Machine.freq_hz;
    convert_time = Costsim.convert_time machine wl bs;
    description = Printf.sprintf "%s: %s" bn (Superschedule.describe bs);
  }

(* --- Simplified ASpT --- *)

let aspt ?(threshold = 8) machine wl algo =
  (match algo with
  | Algorithm.Spmm _ | Algorithm.Sddmm _ -> ()
  | Algorithm.Spmv | Algorithm.Mttkrp _ ->
      invalid_arg "Baselines.aspt: ASpT artifacts cover only SpMM and SDDMM");
  let dims = wl.Workload.dims in
  let panel = 256 in
  (* Count nonzeros per (row, panel) segment. *)
  let npanels = (dims.(1) + panel - 1) / panel in
  let rows = wl.Workload.coords.(0) and cols = wl.Workload.coords.(1) in
  let seg_key e = (rows.(e) * npanels) + (cols.(e) / panel) in
  let seg_count = Hashtbl.create 1024 in
  for e = 0 to wl.Workload.nnz - 1 do
    let key = seg_key e in
    Hashtbl.replace seg_count key
      (1 + Option.value ~default:0 (Hashtbl.find_opt seg_count key))
  done;
  let dense e = Hashtbl.find seg_count (seg_key e) >= threshold in
  let part name keep =
    match List.filter (fun e -> dense e = keep) (List.init wl.Workload.nnz Fun.id) with
    | [] -> None
    | idx ->
        let idx = Array.of_list idx in
        let pick a = Array.map (Array.get a) idx in
        Some
          (Workload.build ~id:(wl.Workload.id ^ name) ~dims
             ~coords:(Array.map pick wl.Workload.coords) ~vals:(pick wl.Workload.vals))
  in
  let nnz_of = function None -> 0 | Some w -> w.Workload.nnz in
  let tiled = part ".aspt-tiled" true in
  let rest = part ".aspt-rest" false in
  (* Tiled portion: panel-major traversal = sparse-block format over the
     column panels (the locality ASpT's reordering buys); remainder: CSR. *)
  let tiled_schedule =
    Superschedule.concordant_with_format algo ~splits:[| 1; panel |]
      ~a_order:
        [|
          Format_abs.Spec.top_var 1; Format_abs.Spec.top_var 0;
          Format_abs.Spec.bottom_var 1; Format_abs.Spec.bottom_var 0;
        |]
      ~a_formats:
        [| Format_abs.Levelfmt.U; Format_abs.Levelfmt.C; Format_abs.Levelfmt.C;
           Format_abs.Levelfmt.U |]
  in
  let csr_schedule = Superschedule.fixed_default algo in
  let time_of part s = match part with
    | None -> 0.0
    | Some w -> Costsim.runtime machine w s
  in
  let kernel_time = time_of tiled tiled_schedule +. time_of rest csr_schedule in
  (* Inspection: two passes over the nonzeros (count, partition). *)
  let tuning = 20.0 *. float_of_int wl.Workload.nnz /. machine.Machine.freq_hz in
  {
    name = "ASpT";
    kernel_time;
    tuning_time = tuning;
    convert_time =
      (let n = float_of_int wl.Workload.nnz in
       8.0 *. n *. log (Float.max 2.0 n) /. machine.Machine.freq_hz);
    description =
      Printf.sprintf "panels=%d tiled_nnz=%d rest_nnz=%d" panel (nnz_of tiled)
        (nnz_of rest);
  }
