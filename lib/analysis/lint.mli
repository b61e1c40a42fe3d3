(** Lint orchestration shared by [waco lint], the tuner pre-filter and the
    test suite. *)

val check_schedule :
  ?dims:int array -> Schedule.Superschedule.t -> Diag.t list
(** Legality diagnostics ([Superschedule.check]) plus, when the sparse
    operand's dimensions are known, performance smells
    ([Perf_check.check]). *)

val accepts : Schedule.Superschedule.t -> bool
(** [true] when the schedule has no error-level legality diagnostic — the
    predicate the search pre-filter applies before any cost-model call. *)
