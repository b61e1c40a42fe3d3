(* The black-box optimizers WACO is compared against in Fig. 16:

   - [random_search]: the floor every optimizer must beat;
   - [tpe]: a HyperOpt-style estimator-of-distributions — each parameter is
     resampled from the empirical distribution of the best-quantile trials
     (a categorical-parameter TPE; the paper's HyperOpt uses TPE);
   - [bandit]: an OpenTuner-style ensemble — mutation / crossover / random
     operators selected by a UCB1 bandit on recent improvement rate.

   All three pay per-trial "metadata" time that ANNS does not: maintaining the
   observation sets, refitting distributions, bandit bookkeeping. *)

open Sptensor
open Schedule

(* All strategies share the same pre-filter stack (unified plumbing in
   [Asym.Prefilter]): the lint filter (always on) rejects schedules
   whose error-level legality diagnostics mean they can never execute, and
   an optional asymptotic analyzer rejects schedules symbolically dominated
   by the fixed-CSR baseline — either way the proposal scores [infinity]
   without touching the cost evaluation. *)
let filters_of asym =
  Asym.Prefilter.lint
  :: (match asym with Some a -> [ Asym.Prefilter.asym a ] | None -> [])

let random_search ?asym rng algo ~dims ~eval ~budget =
  let be = Blackbox_common.make_eval ~filters:(filters_of asym) eval in
  Blackbox_common.drive ~name:"Random" ~budget be ~propose:(fun _ ->
      Space.sample rng algo ~dims)

(* --- TPE-like --- *)

let quantile_split observations ~gamma =
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) observations in
  let n = List.length sorted in
  let ngood = max 1 (int_of_float (gamma *. float_of_int n)) in
  List.filteri (fun i _ -> i < ngood) sorted |> List.map fst

let tpe ?asym rng algo ~dims ~eval ~budget =
  let be = Blackbox_common.make_eval ~filters:(filters_of asym) eval in
  let propose observations =
    if List.length observations < 8 || Rng.float rng < 0.15 then
      Space.sample rng algo ~dims
    else begin
      let goods = Array.of_list (quantile_split observations ~gamma:0.25) in
      (* Draw each parameter from the good-trial empirical distribution,
         smoothed with a uniform-random fallback. *)
      let draw f fallback =
        if Rng.float rng < 0.2 then fallback () else f (Rng.choose rng goods)
      in
      let fresh = Space.sample rng algo ~dims in
      {
        Superschedule.algo;
        splits =
          Array.init (Array.length fresh.Superschedule.splits) (fun d ->
              draw
                (fun g -> g.Superschedule.splits.(d))
                (fun () -> fresh.Superschedule.splits.(d)));
        compute_order =
          Array.copy
            (draw
               (fun g -> g.Superschedule.compute_order)
               (fun () -> fresh.Superschedule.compute_order));
        par_var =
          draw (fun g -> g.Superschedule.par_var) (fun () -> fresh.Superschedule.par_var);
        threads =
          draw (fun g -> g.Superschedule.threads) (fun () -> fresh.Superschedule.threads);
        chunk = draw (fun g -> g.Superschedule.chunk) (fun () -> fresh.Superschedule.chunk);
        a_order =
          Array.copy
            (draw (fun g -> g.Superschedule.a_order) (fun () -> fresh.Superschedule.a_order));
        a_formats =
          Array.copy
            (draw
               (fun g -> g.Superschedule.a_formats)
               (fun () -> fresh.Superschedule.a_formats));
      }
    end
  in
  Blackbox_common.drive ~name:"HyperOpt-like" ~budget be ~propose

(* --- OpenTuner-like bandit ensemble --- *)

let bandit ?asym rng algo ~dims ~eval ~budget =
  let be = Blackbox_common.make_eval ~filters:(filters_of asym) eval in
  let n_ops = 4 in
  let uses = Array.make n_ops 0 and wins = Array.make n_ops 0 in
  let recent : (int * bool) Queue.t = Queue.create () in
  let trial_no = ref 0 in
  let last_op = ref 0 in
  let best_cost = ref infinity in
  let pick_op () =
    if !trial_no <= n_ops then (!trial_no - 1) mod n_ops
    else begin
      (* UCB1 over improvement rates within the sliding window. *)
      let total = float_of_int (max 1 (Queue.length recent)) in
      let best = ref 0 and best_score = ref neg_infinity in
      for o = 0 to n_ops - 1 do
        let u = float_of_int (max 1 uses.(o)) in
        let score = (float_of_int wins.(o) /. u) +. sqrt (2.0 *. log total /. u) in
        if score > !best_score then begin
          best_score := score;
          best := o
        end
      done;
      !best
    end
  in
  let apply_op o observations =
    let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) observations in
    match (o, sorted) with
    | 0, _ | _, [] -> Space.sample rng algo ~dims
    | 1, (s, _) :: _ -> Space.mutate rng ~dims s (* mutate best *)
    | 2, good ->
        (* mutate a random top-8 trial *)
        let top = List.filteri (fun i _ -> i < 8) good in
        let s, _ = List.nth top (Rng.int rng (List.length top)) in
        Space.mutate rng ~dims s
    | _, [ (s, _) ] -> Space.mutate rng ~dims s
    | _, (s1, _) :: (s2, _) :: _ -> Space.crossover rng s1 s2
  in
  let propose observations =
    (* Credit the previous operator if the newest observation improved. *)
    (match observations with
    | (_, c) :: _ ->
        let improved = c < !best_cost in
        if improved then best_cost := c;
        Queue.add (!last_op, improved) recent;
        if improved then wins.(!last_op) <- wins.(!last_op) + 1;
        if Queue.length recent > 50 then begin
          let o, w = Queue.take recent in
          if w then wins.(o) <- max 0 (wins.(o) - 1)
        end
    | [] -> ());
    incr trial_no;
    let o = pick_op () in
    uses.(o) <- uses.(o) + 1;
    last_op := o;
    apply_op o observations
  in
  Blackbox_common.drive ~name:"OpenTuner-like" ~budget be ~propose
