(** WACO's cost model (Fig. 6): feature extractor + program embedder +
    runtime predictor, trained with the pairwise ranking loss to {e order}
    SuperSchedules per matrix.  At inference the sparsity-pattern feature is
    computed once per matrix and reused across every schedule probed —
    §5.4's search-time breakdown depends on exactly this reuse. *)

open Schedule

type compiled
(** The model's compiled inference plans (DESIGN.md §14): extractor,
    embedder and predictor-tail VM plans sharing the instance's parameter
    arrays.  Built lazily by {!compile}; single-domain like eager scratch
    (replicas compile their own). *)

type t = {
  algo : Algorithm.t;
  extractor : Extractor.t;
  embedder : Embedder.t;
  predictor : Nn.Mlp.t;
  feature_cache : (string, float array) Hashtbl.t;
  mutable vm : compiled option;  (** lazily-compiled inference plans *)
}

val create : Sptensor.Rng.t -> ?kind:Extractor.kind -> Algorithm.t -> t
(** [kind] defaults to {!Extractor.Waconet}. *)

val params : t -> Nn.Param.t list

val replicate : t -> t
(** Forward-only replica for a worker domain: shares every parameter array
    (replicas track weight updates made between — never during — parallel
    sections), owns private forward caches.  Replica forwards run the same
    float-op sequence as the original's, so results are bit-identical. *)

val row_dim : int
(** Width of a predictor input row
    (feature ++ embedding ++ kernel one-hot). *)

val kernel_of : t -> Kernel.t
(** The kernel the head conditions on when a caller doesn't pass one: the
    model's own algorithm's. *)

val rows_of :
  kernel:Kernel.t -> feature:float array -> embs:float array -> batch:int ->
  float array
(** Builds predictor input rows: the shared feature concatenated with each
    program embedding and [kernel]'s one-hot indicator. *)

val forward_train :
  ?kernel:Kernel.t -> t -> Extractor.input -> Superschedule.t array ->
  float array * (float array -> unit)
(** Training-mode forward: predictions plus a backward closure pushing
    d(predictions) through predictor, embedder and extractor (the feature is
    computed once, its gradient summed over the batch).  The kernel one-hot
    is an input indicator, never a parameter — it takes no gradient.
    [kernel] defaults to {!kernel_of}. *)

val compile : t -> compiled
(** The instance's inference plans, compiling them on first use.  Every
    predict-path entry point below runs on these plans; results are
    bitwise-equal to the eager layers (test/test_vm.ml), so artifacts,
    cache keys and index builds are unchanged. *)

val feature_capacity : int
(** The feature memo's bound: a memo that would pass it is reset first. *)

val feature : t -> Extractor.input -> float array
(** Memoized per [input.id]; see {!clear_feature_cache}. *)

val feature_nocache : t -> Extractor.input -> float array
(** Unmemoized single-pattern feature — for evaluating a model whose
    weights are still moving (the trainer's eval loop). *)

val feature_batch : t -> Extractor.input array -> bool array
(** Memoize the features of a whole group of patterns with one batched
    plan execution (serve phase B's per-kernel-slot batch).  Memoized or
    repeated ids are skipped; element [i] of the result tells whether this
    call computed member [i]'s feature. *)

val clear_feature_cache : t -> unit
(** Empties the feature memo.  Required whenever extractor weights change
    (after training or a {!load}); features do not depend on the machine. *)

val embed : t -> Superschedule.t array -> float array
(** Program embeddings — the vectors the KNN graph is built on. *)

val tail_scorer :
  ?kernel:Kernel.t -> t -> feature:float array -> embs:float array -> batch:int ->
  float array
(** The cheap "final part of the cost model" ANNS runs per graph hop
    (Fig. 1c): the predictor over stored embeddings against one feature.
    Apply it to [~feature] once per query: that runs the first layer over
    the feature columns (the prefix every schedule shares).  The resulting
    scorer predicts [batch] embeddings (rows of [embs] at stride
    [Config.embed_dim]) per call, bitwise equal to {!Nn.Mlp.forward} over
    full {!rows_of} rows.  Its result is borrowed (valid prefix [batch])
    until the model's next tail execution.  [kernel] defaults to
    {!kernel_of}. *)

val predict :
  ?kernel:Kernel.t -> t -> Extractor.input -> Superschedule.t array ->
  float array
(** Full prediction for a batch of schedules against one matrix, conditioned
    on [kernel] (default {!kernel_of}); one plan execution per model stage. *)

val dump_params : t -> string
(** The flat text dump of all parameters that {!save} wraps in the artifact
    envelope — exposed so tests can digest a trained model without file IO
    (the byte-identity contract of test/test_perf.ml). *)

val digest : t -> string
(** CRC32 of {!dump_params} — a short identity of the current weights, used
    by the serving layer's cache-invalidation header. *)

val embed_dim : t -> int
(** The program-embedding width this model produces — must match the vector
    dimension of any HNSW index it queries ({!Tuner.validate_compat}). *)

val validate_head : t -> file:string -> unit
(** {!Tuner.validate_compat}-style width check: raises a typed
    [Robust.Load_error] naming both widths when the predictor's input width
    disagrees with {!row_dim} (e.g. a pre-kernel-conditioning artifact).
    Run by {!load} before any parameter is restored. *)

val save : t -> string -> unit
(** Flat text dump of all parameters inside the checksummed
    [Robust] artifact envelope, written atomically: a crash mid-save leaves
    the previous dump intact. *)

val load : t -> string -> unit
(** Restores parameters saved by {!save} into an identically-shaped model;
    raises [Robust.Load_error] on a missing file, checksum/version mismatch
    or parameter-shape mismatch.  Pre-envelope raw dumps are still accepted.
    Clears the feature cache. *)
