(** Shared scaffolding for budgeted black-box schedule search: every strategy
    reports the same result record, with wall time split into evaluation time
    vs optimizer metadata time — the quantity Fig. 16 breaks down. *)

open Schedule

type result = {
  name : string;
  best : Superschedule.t;
  best_cost : float;
  trials : int;
  eval_seconds : float;  (** time spent inside cost evaluations *)
  total_seconds : float;  (** wall time of the whole search *)
  history : (int * float) array;  (** (trial, best-so-far cost) *)
  rejected : int;  (** proposals a pre-filter refused to evaluate *)
  rejected_lint : int;  (** ... because of an error-level legality finding *)
  rejected_asym : int;  (** ... because of asymptotic dominance *)
}

type budgeted_eval = {
  eval : Superschedule.t -> float;
  filters : Asym.Prefilter.t list;
  counts : Asym.Prefilter.counts;
  mutable eval_time : float;
  mutable eval_count : int;
  mutable rejected : int;
  cache : (string, float) Hashtbl.t;
}

val make_eval :
  ?filters:Asym.Prefilter.t list ->
  (Superschedule.t -> float) ->
  budgeted_eval
(** [filters] run in order through the unified pre-filter plumbing
    ({!Asym.Prefilter}); the first rejection wins and is tallied per
    reason. *)

val run_eval : budgeted_eval -> Superschedule.t -> float
(** Cached and timed; repeated queries of the same schedule are free.
    Schedules a pre-filter rejects score [infinity] without any call to
    the underlying evaluation. *)

val drive :
  name:string ->
  budget:int ->
  budgeted_eval ->
  propose:((Superschedule.t * float) list -> Superschedule.t) ->
  result
(** Runs [budget] trials; [propose] receives the observation history
    (newest first). *)
