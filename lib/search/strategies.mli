(** The black-box optimizers WACO's ANNS is compared against in Fig. 16.
    All of them pay per-trial metadata time that ANNS does not: observation
    bookkeeping, distribution refits, bandit statistics. *)

open Sptensor
open Schedule

val random_search :
  ?asym:Asym.Analyzer.t ->
  Rng.t -> Algorithm.t -> dims:int array ->
  eval:(Superschedule.t -> float) -> budget:int -> Blackbox_common.result

val tpe :
  ?asym:Asym.Analyzer.t ->
  Rng.t -> Algorithm.t -> dims:int array ->
  eval:(Superschedule.t -> float) -> budget:int -> Blackbox_common.result
(** HyperOpt-style estimator of distributions: each parameter is resampled
    from the best-quartile trials (with 15 % uniform restarts). *)

val bandit :
  ?asym:Asym.Analyzer.t ->
  Rng.t -> Algorithm.t -> dims:int array ->
  eval:(Superschedule.t -> float) -> budget:int -> Blackbox_common.result
(** OpenTuner-style ensemble: random / mutate-best / mutate-good / crossover
    operators picked by a UCB1 bandit over a 50-trial improvement window.

    In every strategy, schedules with error-level legality diagnostics
    ([Analysis.Lint.accepts]) score [infinity] without a cost evaluation.
    With [?asym], schedules the analyzer proves asymptotically dominated
    by the fixed-CSR baseline are likewise rejected before evaluation.
    Totals land in [result.rejected], per-reason counts in
    [result.rejected_lint] / [result.rejected_asym]. *)
