(** Unified pre-filter plumbing shared by the lint (legality) and asymptotic
    pre-filters: one rejection-reason type and per-reason counters, so every
    slot that filters schedules — index build, tune-time candidate ranking,
    the black-box strategies, the serving daemon — reports rejections the
    same way. *)

open Schedule

type reason = Lint | Asym

type counts = { mutable lint : int; mutable asym : int }

val zero_counts : unit -> counts

val total : counts -> int

val tally : counts -> reason -> unit

type t = { reason : reason; accepts : Superschedule.t -> bool }

val lint : t
(** Rejects schedules carrying an error-level legality diagnostic
    ([Analysis.Lint.accepts]). *)

val asym : Analyzer.t -> t
(** Rejects schedules the analyzer {!Analyzer.prunes}: symbolically
    dominated by the fixed-CSR baseline beyond the numeric margin. *)

val reject : t list -> counts -> Superschedule.t -> reason option
(** Runs the filters in order; the first rejection is tallied into [counts]
    and returned.  [None] means every filter accepted. *)
