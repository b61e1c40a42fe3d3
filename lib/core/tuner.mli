(** WACO's search (§4.2): a KNN graph (HNSW) over the program embeddings of
    the training SuperSchedules (L2), queried per matrix by graph traversal
    with the predicted runtime as the metric, then measuring the top-k
    survivors on the "hardware" (the cost simulator) and returning the
    fastest — the paper reports the best of the measured top-10 (§5.2). *)

open Schedule
open Machine_model

type index = {
  hnsw : Superschedule.t Anns.Hnsw.t;
  build_seconds : float;
  corpus_size : int;  (** points actually indexed (after the pre-filters) *)
  lint_rejected : int;  (** corpus points dropped by the legality pre-filter *)
  asym_rejected : int;
      (** ... and by the asymptotic-dominance pre-filter *)
}

val build_index :
  ?pool:Parallel.Pool.t -> ?lint:bool -> ?asym:Asym.Analyzer.t ->
  Sptensor.Rng.t -> Costmodel.t -> Superschedule.t array -> index
(** With [lint] (default [true]), corpus schedules carrying error-level
    legality diagnostics ([Analysis.Lint.accepts]) are dropped before any
    embedding forward pass.  With [asym], schedules the symbolic analyzer
    proves asymptotically dominated by the fixed-CSR baseline are likewise
    dropped; both filters run through {!Asym.Prefilter} and report
    per-reason counts in [lint_rejected] / [asym_rejected].

    With [pool], the embedding forwards run batch-wise on per-domain model
    replicas; HNSW insertion stays sequential in corpus order, so the graph
    is identical whatever the domain count. *)

type result = {
  best : Superschedule.t;
  best_measured : float;  (** simulator seconds of the chosen schedule *)
  best_predicted : float;
  topk : (Superschedule.t * float) list;  (** (schedule, measured) *)
  feature_seconds : float;
      (** phase 1: one WACONet forward; 0 on a feature-memo hit *)
  search_seconds : float;
      (** phase 2: the graph walk scored by the predictor tail, plus the
          asym pre-filter *)
  measure_seconds : float;
  extractor_forwards : int;
      (** 1 when phase 1 ran a forward; 0 on a feature-memo hit or a
          deadline that expired before phase 1 *)
  cost_evals : int;  (** predictor evaluations during traversal *)
  measured_runs : int;
  measure_failures : int;  (** candidates dropped after exhausting retries *)
  measure_retries : int;
      (** transient measurement errors absorbed by the retry loop *)
  asym_pruned : int;
      (** top-k candidates the symbolic pre-filter dropped unmeasured *)
  degraded : bool;  (** [true] when the result is the degraded fallback *)
  degraded_reason : string option;
}

val degraded :
  ?measure:bool ->
  Machine.t -> Workload.t -> Schedule.Algorithm.t -> reason:string -> result
(** The graceful-degradation fallback: the asymptotic analyzer's
    guaranteed-not-terrible pick ({!Asym.Analyzer.fallback} — the fixed-CSR
    baseline unless a canonical variant is strictly asymptotically better on
    this workload), measured once, with [degraded = true].  Callers reach
    for this when the learned pipeline is unusable (e.g. the model or index
    artifact fails to load).  With [measure = false] (a blown deadline —
    there is no time left for even one simulator run) the pick is returned
    unmeasured ([best_measured = NaN], [measured_runs = 0]). *)

val tune :
  ?pool:Parallel.Pool.t -> ?k:int -> ?ef:int -> ?measure:bool -> ?asym:bool ->
  ?deadline_at:float ->
  Costmodel.t -> Machine.t -> Workload.t -> Extractor.input -> index -> result
(** [k] defaults to the paper's 10 measured candidates.

    Phase 1 computes the matrix's feature once, through the model's
    feature memo: a memo hit runs no forward and reports
    [extractor_forwards = 0] and [feature_seconds = 0].  Phase 2 walks the
    index graph with the predicted runtime as the metric: the predictor's
    first layer over the feature columns runs once per query
    ({!Costmodel.tail_scorer}), and each expanded node's unscored
    neighbours are scored as one batch from their stored embeddings.
    [cost_evals] counts the nodes scored.  Phase 3 measures the ranked
    top-k on the simulator.

    With [asym] (default [true]), the ranked top-k passes the symbolic
    pre-filter before phase 3: schedules {!Asym.Analyzer.prunes} proves
    asymptotically dominated by the fixed-CSR baseline on this workload are
    dropped without a measurement run, counted in [asym_pruned].  The filter
    runs after the graph walk, so the traversal and the surviving
    candidates' ranking are identical to the unfiltered search.  The chosen
    schedule is not: a pruned candidate may be the one the simulator would
    measure fastest, and then a slower one wins ([chosen_changed] in
    [BENCH_asym.json], on its block-dense matrix; DESIGN.md §11).

    With [measure = false] (the serving daemon's cheap path) phase 3 is
    skipped entirely: the traversal's best-predicted candidate is returned
    with [best_measured = NaN], [topk = []] and [measured_runs = 0].

    Each top-k measurement run goes through a bounded retry-with-backoff
    (three attempts, exponential from 10 ms, capped by the time
    [deadline_at] has left); candidates whose runs keep failing are dropped
    and counted in [measure_failures].  With [pool], the top-k candidates measure in
    parallel; outcomes are folded in candidate order, so [topk] and
    [measure_failures] match the sequential run.  If the index is empty or
    every measurement fails, the result degrades to the fixed-CSR baseline
    with [degraded = true] instead of raising.

    [deadline_at] (an absolute [Robust.mono_now] instant — monotonic, so a
    wall-clock step can neither expire nor extend it) arms a
    best-effort watchdog: the deadline is re-checked at every phase boundary
    and before every individual candidate measurement.  Expired before the
    traversal → the unmeasured asymptotic fallback; expired after it → the
    traversal's best-predicted candidate unmeasured; expired mid-phase-3 →
    the best of the candidates already measured.  Every deadline-truncated
    result carries [degraded = true] and [degraded_reason = Some "deadline"]
    so callers (the serving cache in particular) never treat it as
    authoritative.  A single in-flight measurement is never interrupted, so
    expiry can overshoot by at most one run. *)

val query :
  ?pool:Parallel.Pool.t -> ?k:int -> ?ef:int -> ?measure:bool ->
  ?deadline_at:float ->
  Costmodel.t -> Machine.t -> id:string -> Sptensor.Coo.t -> index -> result
(** The reusable "answer one matrix" entry point ({!tune} over a raw COO):
    builds the workload and extractor input, then runs the three-phase
    search.  [id] keys the model's feature memo — callers identifying
    matrices by content fingerprint get cross-request feature reuse, and
    repeated ids cost one forward.  [pool] is {!tune}'s measurement
    fan-out. *)

val validate_compat : Costmodel.t -> index_file:string -> index -> unit
(** Raises [Robust.Load_error (Malformed _)] (citing [index_file] and both
    dimensions) when the model's embedding width differs from the index's
    vector dimension — at load time, instead of the confusing traversal-time
    failure a mismatched pair produces otherwise.  Lint code WACO-A008 makes
    the same check from the artifacts alone. *)

val save_index : index -> string -> unit
(** Snapshots the built KNN graph (structure, embeddings, schedules) into a
    checksummed artifact so later [waco tune] invocations skip the rebuild. *)

val load_index : Sptensor.Rng.t -> algo:Algorithm.t -> string -> index
(** Reloads a {!save_index} snapshot; validates the embedding dimension
    against this build's [Config.embed_dim].  Raises [Robust.Load_error] on
    any damage ([build_seconds] is 0 on the reloaded index). *)

val tuning_overhead : Machine.t -> Workload.t -> result -> float
(** The one-off cost charged in end-to-end comparisons (Fig. 17, Table 8):
    real feature+search seconds plus the simulated measurement runs and the
    conversion to the chosen format. *)
