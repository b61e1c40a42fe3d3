(** The pairwise ranking loss (§4.1.3): the cost model learns to *order*
    SuperSchedules, not to regress absolute runtimes. *)

val pairwise :
  ?min_gap:float ->
  truth:float array ->
  pred:float array ->
  unit ->
  float * float array
(** [(loss, d pred)] over pair-major arrays: index [2p] holds the pair's
    first element, [2p+1] the second.  A pair contributes when
    [truth.(2p) - truth.(2p+1) > min_gap] (the paper's
    [sign(y_j - y_k) * phi(yhat_j - yhat_k)] with the hinge
    [max 0 (1 - x)]).  [min_gap] (default 0) suppresses noisy near-tie
    pairs. *)

val pair_accuracy : truth:float array -> pred:float array -> float
(** Fraction of (non-tied) pairs ranked correctly. *)
