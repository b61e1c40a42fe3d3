(* Shared scaffolding for budgeted black-box schedule search: every strategy
   reports the same result record, with wall time split into evaluation time
   vs optimizer metadata time (the Fig. 16 breakdown). *)

open Schedule

type result = {
  name : string;
  best : Superschedule.t;
  best_cost : float;
  trials : int;
  eval_seconds : float; (* time spent inside the cost evaluations *)
  total_seconds : float; (* wall time of the whole search *)
  history : (int * float) array; (* (trial, best-so-far cost) *)
  rejected : int; (* proposals a pre-filter refused to evaluate *)
  rejected_lint : int; (* ... because of an error-level legality finding *)
  rejected_asym : int; (* ... because of asymptotic dominance *)
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

let make_eval ?(filters = []) eval =
  { eval; filters; counts = Asym.Prefilter.zero_counts ();
    eval_time = 0.0; eval_count = 0; rejected = 0;
    cache = Hashtbl.create 256 }

(* Cached + timed evaluation; repeated queries of the same schedule are free
   (all strategies benefit equally).  Proposals a pre-filter rejects cost
   no evaluation at all: they score [infinity], so best-tracking and the
   estimator refits push away from them for free. *)
let run_eval be s =
  if Asym.Prefilter.reject be.filters be.counts s <> None then begin
    be.rejected <- be.rejected + 1;
    infinity
  end
  else
    let key = Superschedule.key s in
    match Hashtbl.find_opt be.cache key with
    | Some c -> c
    | None ->
        let t0 = Robust.mono_now () in
        let c = be.eval s in
        be.eval_time <- be.eval_time +. (Robust.mono_now () -. t0);
        be.eval_count <- be.eval_count + 1;
        Hashtbl.add be.cache key c;
        c

(* Drive a strategy: [propose] yields the next schedule given the observation
   history; the driver owns timing, best tracking and the history curve. *)
let drive ~name ~budget be ~propose =
  let t_start = Robust.mono_now () in
  let observations = ref [] in
  let best = ref None in
  let history = ref [] in
  for trial = 1 to budget do
    let s = propose !observations in
    let c = run_eval be s in
    observations := (s, c) :: !observations;
    (match !best with
    | Some (_, bc) when bc <= c -> ()
    | _ -> best := Some (s, c));
    let _, bc = Option.get !best in
    history := (trial, bc) :: !history
  done;
  let best_s, best_c = Option.get !best in
  {
    name;
    best = best_s;
    best_cost = best_c;
    trials = budget;
    eval_seconds = be.eval_time;
    total_seconds = Robust.mono_now () -. t_start;
    history = Array.of_list (List.rev !history);
    rejected = be.rejected;
    rejected_lint = be.counts.Asym.Prefilter.lint;
    rejected_asym = be.counts.Asym.Prefilter.asym;
  }
