(** WACO's cost model (Fig. 6): feature extractor + program embedder +
    runtime predictor, trained with the pairwise ranking loss to {e order}
    SuperSchedules per matrix.  At inference the sparsity-pattern feature is
    computed once per matrix and reused across every schedule probed —
    §5.4's search-time breakdown depends on exactly this reuse.  Training
    and inference run the same eager layer forwards: one forward per model
    (DESIGN.md §14). *)

open Schedule

type t = {
  algo : Algorithm.t;
  extractor : Extractor.t;
  embedder : Embedder.t;
  predictor : Nn.Mlp.t;
  feature_cache : (string, float array) Hashtbl.t;
  mutable tail_rows : float array;  (** {!tail_scorer}'s grow-only row buffer *)
  mutable tail_hidden : float array;
      (** {!tail_scorer}'s grow-only first-layer output *)
}

val create : Sptensor.Rng.t -> ?kind:Extractor.kind -> Algorithm.t -> t
(** [kind] defaults to {!Extractor.Waconet}. *)

val params : t -> Nn.Param.t list

val replicate : t -> t
(** Forward-only replica for a worker domain: shares every parameter array
    (replicas track weight updates made between — never during — parallel
    sections), owns private forward caches.  Replica forwards run the same
    float-op sequence as the original's, so results are bit-identical. *)

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
    [kernel] defaults to {!kernel_of}.

    The inference entry points below ({!feature}, {!feature_batch},
    {!embed}, {!tail_scorer}, {!predict}) run the same eager layer forwards
    and overwrite the layer caches the backward closure reads: none of them
    may run on this instance between [forward_train] and its backward.  A
    {!replicate} has caches of its own and is exempt. *)

val feature_capacity : int
(** The feature memo's bound: a memo that would pass it is reset first. *)

val feature : t -> Extractor.input -> float array
(** Memoized per [input.id]; see {!clear_feature_cache}. *)

val feature_batch : t -> Extractor.input array -> bool array
(** Memoize the features of a whole group of patterns, one
    {!Extractor.forward} per fresh member (serve phase B's per-kernel-slot
    batch).  Memoized or repeated ids are skipped; element [i] of the result
    tells whether this call computed member [i]'s feature. *)

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
    full {!rows_of} rows.  Its result is the predictor's last-layer scratch
    (valid prefix [batch]) until the predictor's next forward.  [kernel]
    defaults to {!kernel_of}. *)

val predict :
  ?kernel:Kernel.t -> t -> Extractor.input -> Superschedule.t array ->
  float array
(** Full prediction for a batch of schedules against one matrix, conditioned
    on [kernel] (default {!kernel_of}): the memoized {!feature}, {!embed}
    and one {!tail_scorer} call. *)

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

val save : t -> string -> unit
(** Flat text dump of all parameters inside the checksummed
    [Robust] artifact envelope, written atomically: a crash mid-save leaves
    the previous dump intact. *)

val load : t -> string -> unit
(** Restores parameters saved by {!save} into an identically-shaped model;
    raises [Robust.Load_error] on a missing file, checksum/version mismatch
    or parameter-shape mismatch.  Pre-envelope raw dumps are still accepted.
    Clears the feature cache. *)
