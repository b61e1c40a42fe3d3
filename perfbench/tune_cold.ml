(* tune-cold: one in-process caller runs [Tuner.query] (k = 10, measured)
   in a closed loop over fresh 256^2-512^2 matrices that are not in the
   training corpus.  There is no cache: the model's feature and pyramid
   caches are cleared before every query, so each one pays the paper's
   whole per-matrix tuning path, and the serving layer does no work. *)

open Sptensor
open Machine_model

let pool_size = 96

(* Rows are stratified over 256..511 and every row holds 6-10 nonzeros,
   so a seed changes the matrices but hardly the pool's total work. *)
let patterns seed =
  Inputs.distinct_patterns (Rng.create seed) pool_size ~shape:(fun rng i ->
      let rows = 256 + ((256 * i) + Rng.int rng 256) / pool_size in
      (rows, rows * (6 + Rng.int rng 5)))

let traced_sample = 48

let run ~seed ~seconds ~trace : Outcome.t =
  let pool = patterns seed in
  let corpus = Inputs.corpus () in
  let setup =
    System.repeat ~reps:Outcome.setup_reps corpus ~up:(fun _ -> ()) ~down:ignore
  in
  Printf.printf "tune-cold: %d fresh patterns of 256^2-512^2, k=%d ef=%d, one closed-loop caller\n%!"
    pool_size System.k System.ef;
  let sys = setup.System.system in
  let query i m =
    Waco.Costmodel.clear_feature_cache sys.System.model;
    Waco.Tuner.query sys.System.model Inputs.machine ~k:System.k ~ef:System.ef
      ~id:(Printf.sprintf "q%d" i) m sys.System.index
  in
  (* Timed window: closed loop, pool patterns in order, cycling. *)
  let answers = ref [] in
  let cpu0 = Kit.cpu_now () and t0 = Kit.now () in
  let stop = t0 +. seconds in
  let i = ref 0 in
  while Kit.now () < stop do
    let p = !i mod pool_size in
    let r, dt = Kit.time (fun () -> query !i pool.(p)) in
    answers := (p, r, dt) :: !answers;
    incr i
  done;
  let wall = Kit.now () -. t0 and cpu = Kit.cpu_now () -. cpu0 in
  let answers = Array.of_list (List.rev !answers) in
  let n = Array.length answers in
  (* Output checks: every answer is non-degraded, its measured time is
     bit-equal to the simulator recomputed on a fresh workload, and a
     repeated pattern gets the same schedule. *)
  let first = Array.make pool_size None in
  let failed = ref 0 in
  Array.iter
    (fun (p, (r : Waco.Tuner.result), _) ->
      let ok = ref true in
      if r.Waco.Tuner.degraded then begin
        ok := false;
        Kit.Checks.fail (Printf.sprintf "tune-cold: pattern %d answered degraded" p)
      end;
      let fresh = Costsim.runtime Inputs.machine (Workload.of_coo pool.(p)) r.Waco.Tuner.best in
      if Int64.bits_of_float fresh <> Int64.bits_of_float r.Waco.Tuner.best_measured then begin
        ok := false;
        Kit.Checks.fail
          (Printf.sprintf "tune-cold: pattern %d best_measured %h, recomputed %h" p
             r.Waco.Tuner.best_measured fresh)
      end;
      let key = Schedule.Superschedule.key r.Waco.Tuner.best in
      (match first.(p) with
      | None -> first.(p) <- Some (r, key)
      | Some (_, k0) ->
          if k0 <> key then begin
            ok := false;
            Kit.Checks.fail (Printf.sprintf "tune-cold: pattern %d changed its answer" p)
          end);
      if not !ok then incr failed)
    answers;
  (* Quality: the schedules answered for the whole pool (patterns the
     window did not reach are answered after it). *)
  let best_of p =
    match first.(p) with
    | Some (r, _) -> r
    | None ->
        let r = query (n + p) pool.(p) in
        first.(p) <- Some (r, Schedule.Superschedule.key r.Waco.Tuner.best);
        r
  in
  let speedups =
    Array.init pool_size (fun p ->
        let wl = Workload.of_coo pool.(p) in
        let csr = Baselines.fixed_csr Inputs.machine wl Inputs.algo in
        csr.Baselines.kernel_time
        /. Costsim.runtime Inputs.machine wl (best_of p).Waco.Tuner.best)
  in
  let lats = Array.map (fun (_, r, dt) ->
      if r.Waco.Tuner.degraded then Float.infinity else dt *. 1e3) answers in
  let answered =
    Array.fold_left (fun a (_, r, _) -> if r.Waco.Tuner.degraded then a else a + 1) 0 answers
  in
  let e2e =
    Outcome.e2e ~setup ~answers:answered ~wall ~cpu ~lats ~speedup:(Kit.geomean speedups)
  in
  let layers =
    if not trace then []
    else begin
      (* The traced pass: the first [traced_sample] pool patterns again,
         each one untraced through [Tuner.query] and then through the
         traced path, back to back so both see the same process state. *)
      let layers = Kit.Layers.create () in
      let traced_wall = ref 0.0 and untraced = ref 0.0 in
      for p = 0 to traced_sample - 1 do
        let _, dt = Kit.time (fun () -> query (n + pool_size + p) pool.(p)) in
        untraced := !untraced +. dt;
        Waco.Costmodel.clear_feature_cache sys.System.model;
        let _, traced =
          Kit.time (fun () ->
              System.traced_query layers sys ~id:(Printf.sprintf "t%d" p) ~measure:true pool.(p))
        in
        traced_wall := !traced_wall +. traced
      done;
      let k = float_of_int traced_sample in
      let covered =
        List.fold_left (fun acc l -> acc +. Kit.Layers.total layers l) 0.0 System.tuning_layers
      in
      let coverage = covered /. !untraced in
      Kit.Checks.require
        (coverage >= 0.9 && coverage <= 1.1)
        (Printf.sprintf "tune-cold: layer spans cover %.3f of the end-to-end time" coverage);
      System.tuning_metrics layers ~scale:(1.0 /. k)
      @ [
          ("trace.coverage", coverage, "ratio");
          ("trace.overhead_ms", (!traced_wall -. !untraced) *. 1e3 /. k, "ms");
        ]
    end
  in
  Outcome.make ~attempted:n ~failed:!failed ~setup ~e2e ~layers
