(* Lint orchestration: the one entry point the CLI, the tuner pre-filter and
   the tests share.  Legality lives in [Superschedule.check] /
   [Format_abs.Spec.check] (this module only aggregates); performance smells
   come from [Perf_check]. *)

open Schedule

let check_schedule ?dims (s : Superschedule.t) : Diag.t list =
  let legality = Superschedule.check s in
  let perf = match dims with None -> [] | Some dims -> Perf_check.check ~dims s in
  legality @ perf

(* Pre-filter predicate for search strategies: a point with an error-level
   legality diagnostic can never execute, so spending a cost-model forward
   pass on it is pure waste. *)
let accepts (s : Superschedule.t) : bool =
  Diag.first_error (Superschedule.check s) = None
