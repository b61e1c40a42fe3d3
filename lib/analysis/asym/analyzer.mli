(** Maps a [Superschedule.t] to its symbolic asymptotic cost ({!Expr.t}) and
    judges it against the fixed-CSR baseline — the static pre-filter that
    rejects asymptotically dominated schedules before any cost-model forward
    pass.

    The iteration-space bounds come from the schedule's split / reorder /
    parallelize directives the same way the cost simulator derives its loop
    nest: the compute-order hierarchy where each derived variable keeps its
    level's U/C format.  An Uncompressed level multiplies the position count
    by its extent; a Compressed level is capped by [nnz] (each nonzero lies
    under exactly one position path) and, at the root, by the dimension's
    nonempty-coordinate count [F_d * N_d].  Caps are picked numerically from
    the workload statistics (workload-aware), but the chosen bound stays
    symbolic.  Parallelization only divides by a constant thread count, so
    it does not change the asymptotic class. *)

open Schedule

type stats = {
  dims : int array;
  fills : float array;  (** nonempty fraction per dim, from the histograms *)
  nnz : float;
  avg_row : float;  (** nnz / dims.(0), floored at 2 (the Costsim factor) *)
}

type t

val default_stats : algo:Algorithm.t -> ?dims:int array -> unit -> stats
(** Synthetic statistics for contexts without a concrete operand (schedule
    linting, [waco explain] without [--matrix]): every dimension full
    ([F_d = 1]), [nnz = 8 * max_d N_d] — a typical sparse regime where
    [nnz << prod N_d]. *)

val create : algo:Algorithm.t -> stats -> t
(** The analyzer's margin, 32, is the numeric magnitude ratio a
    symbolically dominated schedule must also exceed before {!prunes}
    rejects it — the guard that keeps borderline candidates in the search.
    It is sized against the simulator's largest constant factor (dense-loop
    vectorization, [simd_width] = 8 on the default machine) with a 4x
    cushion, so pruning never removes a schedule that constants alone could
    rescue. *)

val of_workload : algo:Algorithm.t -> Machine_model.Workload.t -> t

val algo : t -> Algorithm.t

val env : t -> Expr.env

val cost : t -> Superschedule.t -> Expr.t
(** The schedule's normalized asymptotic cost expression (memoized by
    schedule key).  Raises [Invalid_argument] on schedules that fail
    structural legality (run the lint pass first). *)

val baseline : t -> Expr.t
(** [cost] of [Superschedule.fixed_default]. *)

val verdict : t -> Superschedule.t -> Expr.verdict
(** The schedule's cost compared against the fixed-CSR baseline;
    [Dominates] means asymptotically worse than the baseline. *)

val prunes : t -> Superschedule.t -> bool
(** [true] when the schedule's cost strictly dominates the baseline's AND
    its numeric magnitude at the workload statistics exceeds the baseline by
    more than the margin (32) — the safe criterion under which the point can
    never be the search's answer.  Never [true] for a structurally illegal
    schedule (that is the lint filter's job). *)

val check : t -> Superschedule.t -> Diag.t list
(** Asymptotic smells as stable diagnostics (empty for structurally illegal
    schedules — legality is WACO-S01x):
    - [WACO-S020] (warning): an uncompressed level materializes far more
      positions than there are nonzeros (dense loop over a sparse residue,
      e.g. an inner dense loop over a hypersparse dimension);
    - [WACO-S021] (warning): the cost expression strictly dominates the
      fixed-CSR baseline beyond the numeric margin;
    - [WACO-S022] (hint): the cost carries a dense product term of degree
      >= 2 in the dimension sizes;
    - [WACO-S023] (hint): discordant traversal puts a [log] factor on the
      cost. *)

val explain : t -> Superschedule.t -> string
(** The normalized cost expression rendered with the algorithm's dimension
    names, e.g. ["nnz*J + Ni"]. *)

val fallback : t -> Superschedule.t
(** The degraded-mode schedule: the fixed-CSR baseline unless a canonical
    variant (root-compressed rows, column-major) is both strictly
    asymptotically better and numerically better by the margin — a
    guaranteed-not-asymptotically-terrible answer that needs no model, no
    index and no measurements. *)
