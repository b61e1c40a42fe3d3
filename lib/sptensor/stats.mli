(** Sparsity-pattern statistics: inputs to the HumanFeature baseline
    extractor (Fig. 15), the cost simulator's work histograms, and the
    BestFormat baseline. *)

type t = {
  nrows : int;
  ncols : int;
  nnz : int;
  density : float;
  row_nnz_mean : float;
  row_nnz_std : float;
  row_nnz_max : int;
  row_nnz_cv : float;  (** coefficient of variation — skew indicator *)
  col_nnz_mean : float;
  col_nnz_std : float;
  avg_diag_distance : float;  (** mean [|i - j|]: DIA-format affinity *)
  empty_rows : int;
}

val compute : Coo.t -> t

(** Statistics of the [bi x bk] blocking of a pattern: decides the zero-fill
    of dense-blocked formats and the locality of sparse blocking. *)
type block_stats = {
  bi : int;
  bk : int;
  nonempty_blocks : int;
  avg_fill : float;  (** nnz / (nonempty_blocks * bi * bk) *)
  max_block_nnz : int;
}

val block_stats : Coo.t -> bi:int -> bk:int -> block_stats
(** Raises [Invalid_argument] if a block dimension is non-positive. *)

val chunk_work : int array -> chunk:int -> int array
(** [chunk_work row_counts ~chunk] sums counts over consecutive groups of
    [chunk] rows — the work units the dynamic-scheduling simulation
    dispatches. *)

val chunk_work_f : float array -> chunk:int -> float array
(** {!chunk_work} over float (weighted) per-row work — used by the
    per-kernel work distributions, where a row's work is flops-proportional
    rather than nnz-proportional. *)

val human_features : ?rich:bool -> t -> float array
(** The hand-crafted feature vector: the paper's (rows, cols, nnz) triple, or
    the richer classic set when [rich] is true. *)

val pp : Format.formatter -> t -> unit
