(* WACO's search (§4.2): a KNN graph (HNSW) is built once over the program
   embeddings of the training SuperSchedules under L2; a query matrix is
   answered by traversing that graph with the predicted runtime as the metric,
   then measuring the top-k survivors and returning the fastest (§5.2 reports
   the best of the top-10 measured on hardware; here "hardware" is the cost
   simulator). *)

open Schedule
open Machine_model

type index = {
  hnsw : Superschedule.t Anns.Hnsw.t;
  build_seconds : float;
  corpus_size : int;
  lint_rejected : int; (* corpus points dropped by the legality pre-filter *)
  asym_rejected : int; (* ... and by the asymptotic-dominance pre-filter *)
}

(* Embed every corpus schedule and insert it into the HNSW graph.  With
   [lint] (the default), corpus points carrying error-level legality
   diagnostics are dropped before any embedding forward pass: an illegal
   schedule can never be the search's answer, so indexing it only wastes
   embedder time and pollutes the graph's neighborhoods.  With [asym], the
   same treatment extends to points the symbolic analyzer proves
   asymptotically dominated by the fixed-CSR baseline — both filters run
   through the unified [Asym.Prefilter] plumbing and report per-reason
   counts.

   With [pool], the embedding forwards — the dominant cost — run batch-wise
   on per-domain model replicas; insertion stays sequential and in corpus
   order, and replica forwards are bit-identical to the original's, so the
   resulting graph is the same whatever the domain count. *)
let build_index ?pool ?(lint = true) ?asym rng model
    (corpus : Superschedule.t array) =
  let t0 = Robust.mono_now () in
  let filters =
    (if lint then [ Asym.Prefilter.lint ] else [])
    @ match asym with Some a -> [ Asym.Prefilter.asym a ] | None -> []
  in
  let counts = Asym.Prefilter.zero_counts () in
  let kept =
    Array.of_list
      (List.filter
         (fun s -> Asym.Prefilter.reject filters counts s = None)
         (Array.to_list corpus))
  in
  let hnsw = Anns.Hnsw.create ~m:12 ~ef_construction:60 ~dim:Config.embed_dim rng in
  let ed = Config.embed_dim in
  (* Embed in batches to amortize the batched forward. *)
  let bsz = 256 in
  let n = Array.length kept in
  let nbatches = (n + bsz - 1) / bsz in
  let bounds b =
    let lo = b * bsz in
    (lo, min bsz (n - lo))
  in
  let embed_batch model b =
    let lo, len = bounds b in
    Costmodel.embed model (Array.sub kept lo len)
  in
  let batch_embs =
    match pool with
    | Some p when Parallel.Pool.domains p > 1 && nbatches > 1 ->
        let replicas =
          Array.init (Parallel.Pool.domains p) (fun i ->
              if i = 0 then model else Costmodel.replicate model)
        in
        Parallel.Pool.map_workers p
          (fun ~worker b -> embed_batch replicas.(worker) b)
          (Array.init nbatches (fun b -> b))
    | _ -> Array.init nbatches (embed_batch model)
  in
  Array.iteri
    (fun b embs ->
      let lo, len = bounds b in
      for i = 0 to len - 1 do
        Anns.Hnsw.insert hnsw (Array.sub embs (i * ed) ed) kept.(lo + i)
      done)
    batch_embs;
  {
    hnsw;
    build_seconds = Robust.mono_now () -. t0;
    corpus_size = n;
    lint_rejected = counts.Asym.Prefilter.lint;
    asym_rejected = counts.Asym.Prefilter.asym;
  }

type result = {
  best : Superschedule.t;
  best_measured : float; (* simulator seconds of the chosen schedule *)
  best_predicted : float;
  topk : (Superschedule.t * float) list; (* (schedule, measured) *)
  feature_seconds : float;
  search_seconds : float;
  measure_seconds : float;
  cost_evals : int; (* predictor evaluations during graph traversal *)
  measured_runs : int;
  measure_failures : int; (* candidates dropped after exhausting retries *)
  measure_retries : int; (* transient measurement errors absorbed by retry *)
  asym_pruned : int; (* top-k candidates rejected symbolically, unmeasured *)
  degraded : bool;
  degraded_reason : string option;
}

(* The honest fallback when the learned pipeline is unusable (corrupt model
   artifact, empty/damaged index, every measurement failing): the asymptotic
   analyzer's guaranteed-not-terrible pick — the fixed-CSR baseline unless a
   canonical variant is both strictly asymptotically better and numerically
   better by the analyzer's margin on this workload — measured once and
   flagged so callers never mistake it for a tuned answer. *)
let degraded ?(measure = true) machine (wl : Workload.t) algo ~reason =
  let az = Asym.Analyzer.of_workload ~algo wl in
  let s = Asym.Analyzer.fallback az in
  (* With [measure = false] (a deadline already blown) even the single
     fallback measurement is skipped: the caller wants an answer *now*, and
     NaN is the honest "never measured" value. *)
  let m = if measure then Costsim.runtime machine wl s else Float.nan in
  {
    best = s;
    best_measured = m;
    best_predicted = m;
    topk = (if measure then [ (s, m) ] else []);
    feature_seconds = 0.0;
    search_seconds = 0.0;
    measure_seconds = 0.0;
    cost_evals = 0;
    measured_runs = (if measure then 1 else 0);
    measure_failures = 0;
    measure_retries = 0;
    asym_pruned = 0;
    degraded = true;
    degraded_reason = Some reason;
  }

(* Deadline support: [deadline_at] is an absolute [Robust.mono_now] instant
   (monotonic: a wall-clock step, e.g. NTP, can neither expire nor extend
   it).  The tuner checks it at every phase boundary and — the watchdog —
   in front of every top-k measurement run, so one stuck measurement can
   overshoot the budget by at most its own duration, never by the whole
   phase.  A deadline-truncated result is marked [degraded] with reason
   ["deadline"] even when it carries real measurements: the serving layer
   must never cache an answer the full pipeline did not stand behind. *)
let deadline_reason = "deadline"

let past deadline_at =
  match deadline_at with
  | None -> false
  | Some d -> Robust.mono_now () >= d

let tune ?pool ?(k = 10) ?(ef = 40) ?(measure = true) ?(asym = true)
    ?deadline_at model machine (wl : Workload.t) (input : Extractor.input)
    (index : index) =
  if Anns.Hnsw.size index.hnsw = 0 then
    degraded machine wl model.Costmodel.algo ~reason:"empty search index"
  else if past deadline_at then
    (* Expired before any work: the guaranteed-not-terrible pick, unmeasured
       (even one simulator run is budget we no longer have). *)
    degraded ~measure:false machine wl model.Costmodel.algo
      ~reason:deadline_reason
  else begin
    (* Phase 1: extract the sparsity-pattern feature once. *)
    let t0 = Robust.mono_now () in
    let feature = Costmodel.feature model input in
    let t1 = Robust.mono_now () in
    (* Phase 2: ANNS over the KNN graph.  The score runs only the
       predictor against stored embeddings: its first layer's feature
       columns are computed once here, for the whole query (DESIGN.md
       §14), and each expanded node's unscored neighbours are gathered
       into one batch for the rest. *)
    let score = Costmodel.tail_scorer model ~feature in
    let ed = Config.embed_dim in
    let embs = ref [||] in
    let score_batch ids =
      let n = Array.length ids in
      if Array.length !embs < n * ed then embs := Array.make (n * ed) 0.0;
      Array.iteri
        (fun j id ->
          let node = index.hnsw.Anns.Hnsw.nodes.(id) in
          Array.blit node.Anns.Hnsw.vec 0 !embs (j * ed) ed)
        ids;
      score ~embs:!embs ~batch:n
    in
    let found, evals = Anns.Hnsw.search_by index.hnsw ~score_batch ~k ~ef () in
    (* Symbolic pre-filter over the ranked candidates, ahead of the
       expensive phase: with [asym] (the default), top-k points the analyzer
       proves asymptotically dominated by the fixed-CSR baseline on this
       workload are dropped before any "hardware" measurement.  Running the
       filter after the traversal keeps the graph walk and the surviving
       ranking byte-identical to the unfiltered one.  It can still change
       the chosen schedule: asymptotic dominance does not bound the constant
       factors the simulator measures, so a pruned candidate can be the
       fastest (BENCH_asym.json's [chosen_changed]; DESIGN.md §11). *)
    let analyzer =
      if asym then
        Some (Asym.Analyzer.of_workload ~algo:model.Costmodel.algo wl)
      else None
    in
    let pruned_count = ref 0 in
    let found =
      match analyzer with
      | None -> found
      | Some az ->
          List.filter
            (fun (_, i) ->
              let p = Asym.Analyzer.prunes az (Anns.Hnsw.get_payload index.hnsw i) in
              if p then incr pruned_count;
              not p)
            found
    in
    let t2 = Robust.mono_now () in
    (* Predict-only answers: the serving daemon's cheap path ([measure =
       false]), and the deadline path when the budget ran out during the
       feature/traversal phases — the ranking is real, the simulator never
       ran.  [found] is sorted ascending by predicted runtime, so the head
       is the answer; [best_measured] is NaN to keep the honest "never
       measured" signal distinct from a measured 0. *)
    let predict_only ~mark_deadline =
      match found with
      | [] ->
          {
            (degraded machine wl model.Costmodel.algo
               ~reason:
                 (if mark_deadline then deadline_reason
                  else "traversal returned no candidates"))
            with
            cost_evals = evals;
            asym_pruned = !pruned_count;
          }
      | (pred_cost, id) :: _ ->
          {
            best = Anns.Hnsw.get_payload index.hnsw id;
            best_measured = Float.nan;
            best_predicted = pred_cost;
            topk = [];
            feature_seconds = t1 -. t0;
            search_seconds = t2 -. t1;
            measure_seconds = 0.0;
            cost_evals = evals;
            measured_runs = 0;
            measure_failures = 0;
            measure_retries = 0;
            asym_pruned = !pruned_count;
            degraded = mark_deadline;
            degraded_reason = (if mark_deadline then Some deadline_reason else None);
          }
    in
    if not measure then predict_only ~mark_deadline:false
    else if past deadline_at then predict_only ~mark_deadline:true
    else begin
    (* Phase 3: measure the top-k on the "hardware" and keep the fastest.
       Each run goes through a bounded retry-with-backoff (three attempts,
       exponential from 10 ms, within the time the deadline has left); a
       candidate whose runs keep failing is dropped and counted.  Candidates
       are independent, so with a pool they measure in parallel — each
       outcome lands in its candidate's slot and failures are folded in
       candidate order afterwards, keeping [measure_failures] and the
       top-k list deterministic (the fault-injection counters themselves
       are mutex-serialized; see [Robust.Faults]). *)
    let measure_one (pred_cost, id) =
      let s = Anns.Hnsw.get_payload index.hnsw id in
      (* The watchdog: every candidate run re-checks the deadline first, so
         a stuck measurement overshoots the budget by at most its own
         duration — the phase never runs to completion on borrowed time.
         Skipped candidates are not failures; they mark the result as
         deadline-truncated below. *)
      if past deadline_at then (None, 0, true)
      else begin
        (* Per-candidate retry count: summed in candidate order below, so
           the total matches the sequential run whatever the domain count. *)
        let retries = ref 0 in
        let budget_s =
          Option.map (fun d -> Float.max 0.0 (d -. Robust.mono_now ())) deadline_at
        in
        match
          Robust.with_retry ~attempts:3 ~backoff_s:0.01 ?budget_s
            ~on_retry:(fun _ _ -> incr retries)
            ~label:("measure " ^ Superschedule.key s)
            (fun () ->
              Robust.Faults.measure_tick ();
              Costsim.runtime machine wl s)
        with
        | Ok m -> (Some (s, m, pred_cost), !retries, false)
        | Error _ -> (None, !retries, false)
      end
    in
    let found_arr = Array.of_list found in
    let outcomes =
      match pool with
      | Some p when Parallel.Pool.domains p > 1 ->
          Parallel.Pool.parallel_map_array p measure_one found_arr
      | _ -> Array.map measure_one found_arr
    in
    let retries =
      Array.fold_left (fun acc (_, r, _) -> acc + r) 0 outcomes
    in
    let skipped =
      Array.fold_left (fun acc (_, _, sk) -> acc || sk) false outcomes
    in
    let failures =
      ref
        (Array.fold_left
           (fun acc (o, _, sk) -> if o = None && not sk then acc + 1 else acc)
           0 outcomes)
    in
    let measured = List.filter_map (fun (o, _, _) -> o) (Array.to_list outcomes) in
    let t3 = Robust.mono_now () in
    match measured with
    | [] when skipped ->
        (* The deadline fired before a single candidate was measured: the
           traversal ranking is still real, so answer its head unmeasured. *)
        predict_only ~mark_deadline:true
    | [] ->
        {
          (degraded machine wl model.Costmodel.algo
             ~reason:
               (Printf.sprintf "all %d measurement runs failed"
                  (List.length found)))
          with
          measure_failures = !failures;
          measure_retries = retries;
          cost_evals = evals;
          asym_pruned = !pruned_count;
        }
    | first :: _ ->
        let best_s, best_m, best_p =
          List.fold_left
            (fun (bs, bm, bp) (s, m, p) -> if m < bm then (s, m, p) else (bs, bm, bp))
            first measured
        in
        {
          best = best_s;
          best_measured = best_m;
          best_predicted = best_p;
          topk = List.map (fun (s, m, _) -> (s, m)) measured;
          feature_seconds = t1 -. t0;
          search_seconds = t2 -. t1;
          measure_seconds = t3 -. t2;
          cost_evals = evals;
          measured_runs = List.length measured;
          measure_failures = !failures;
          measure_retries = retries;
          asym_pruned = !pruned_count;
          (* A deadline-truncated top-k is a real-but-partial answer: marked
             degraded so the serving layer never caches it as authoritative. *)
          degraded = skipped;
          degraded_reason = (if skipped then Some deadline_reason else None);
        }
    end
  end

(* The reusable "answer one matrix" entry point the serving daemon (and any
   other embedder of the tuner) calls: builds the workload and extractor
   input from a raw COO and runs the three-phase search.  [id] keys the
   model's feature memo, so callers that identify matrices by content
   fingerprint get cross-request feature reuse for free. *)
let query ?k ?ef ?measure ?deadline_at model machine ~id (m : Sptensor.Coo.t)
    (index : index) =
  let wl = Workload.of_coo ~id m in
  let input = Extractor.input_of_coo ~id m in
  tune ?k ?ef ?measure ?deadline_at model machine wl input index

type batch_query = {
  bq_id : string;
  bq_coo : Sptensor.Coo.t;
  bq_measure : bool;
  bq_deadline_at : float option;
}

(* Answer a group of distinct matrices against one model: every unmemoized
   pattern's feature comes from one [Costmodel.feature_batch] call, which
   dedupes repeated patterns and fills the feature memo, before the
   per-matrix searches run — serve phase B's one feature pass per kernel
   slot — whose time is split evenly over the members it computed a
   feature for.  Per-query deadlines are re-checked
   by [tune]; an expired query merely wastes its share of that work. *)
let query_batch ?pool ?k ?ef model machine (queries : batch_query array)
    (index : index) =
  let inputs =
    Array.map (fun q -> Extractor.input_of_coo ~id:q.bq_id q.bq_coo) queries
  in
  let t0 = Robust.mono_now () in
  let computed = Costmodel.feature_batch model inputs in
  let forwards = Array.fold_left (fun n c -> if c then n + 1 else n) 0 computed in
  let share = (Robust.mono_now () -. t0) /. float_of_int (max 1 forwards) in
  ( Array.mapi
      (fun i q ->
        let wl = Workload.of_coo ~id:q.bq_id q.bq_coo in
        let r =
          tune ?pool ?k ?ef ~measure:q.bq_measure ?deadline_at:q.bq_deadline_at
            model machine wl inputs.(i) index
        in
        { r with feature_seconds = (if computed.(i) then share else 0.0) })
      queries,
    forwards )

(* A model whose embedding width differs from the index's vector dimension
   would fail deep inside the first traversal (predictor input-row mismatch)
   with a message pointing nowhere near the cause.  Check the pair at load
   time instead and fail with both numbers and the offending file. *)
let validate_compat (model : Costmodel.t) ~index_file (index : index) =
  let md = Costmodel.embed_dim model in
  let id = index.hnsw.Anns.Hnsw.dim in
  if md <> id then
    raise
      (Robust.Load_error
         (Robust.Malformed
            {
              file = index_file;
              reason =
                Printf.sprintf
                  "index vector dimension %d does not match the model's \
                   embedding dimension %d (mismatched model/index pair?)"
                  id md;
            }))

(* --- Index snapshots ---

   The KNN graph is the expensive half of the tuner's one-off cost (every
   corpus schedule is embedded, then inserted).  Snapshotting it inside the
   checksummed artifact envelope lets one `waco tune` invocation reuse the
   index the previous one built, instead of rebuilding per query. *)

let save_index (index : index) path =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "INDEX %d %d %d\n" index.corpus_size index.lint_rejected
    index.asym_rejected;
  Buffer.add_string buf (Anns.Hnsw.dump index.hnsw ~payload:Sched_io.serialize);
  Robust.write_artifact ~kind:Robust.Kind.index path (Buffer.contents buf)

let load_index rng ~(algo : Algorithm.t) path =
  let payload = Robust.read_artifact_exn ~expected_kind:Robust.Kind.index path in
  let malformed reason =
    raise (Robust.Load_error (Robust.Malformed { file = path; reason }))
  in
  match String.index_opt payload '\n' with
  | None -> malformed "empty index snapshot"
  | Some nl -> (
      let first = String.sub payload 0 nl in
      let rest = String.sub payload (nl + 1) (String.length payload - nl - 1) in
      (* Pre-asym snapshots have a two-field INDEX line; read them with an
         asym count of zero rather than invalidating every existing index. *)
      let counts =
        match String.split_on_char ' ' first with
        | [ "INDEX"; cs; lr ] ->
            Some (int_of_string_opt cs, int_of_string_opt lr, Some 0)
        | [ "INDEX"; cs; lr; ar ] ->
            Some (int_of_string_opt cs, int_of_string_opt lr, int_of_string_opt ar)
        | _ -> None
      in
      match counts with
      | Some (Some corpus_size, Some lint_rejected, Some asym_rejected) -> (
          let parse_payload text =
            match Sched_io.parse ~algo text with
            | Ok s -> s
            | Error e ->
                raise (Anns.Hnsw.Restore_error ("stored schedule: " ^ e))
          in
          match Anns.Hnsw.restore rng ~payload:parse_payload rest with
          | hnsw ->
              if hnsw.Anns.Hnsw.dim <> Config.embed_dim then
                malformed
                  (Printf.sprintf
                     "index embedding dim %d does not match this build's %d"
                     hnsw.Anns.Hnsw.dim Config.embed_dim)
              else
                {
                  hnsw;
                  build_seconds = 0.0;
                  corpus_size;
                  lint_rejected;
                  asym_rejected;
                }
          | exception Anns.Hnsw.Restore_error reason -> malformed reason)
      | Some _ -> malformed ("malformed INDEX line: " ^ first)
      | None -> malformed ("missing INDEX line, got: " ^ first))

(* The tuner's one-off cost charged in end-to-end comparisons (Fig. 17,
   Table 8): feature extraction + graph search in real seconds, plus the
   simulated cost of the k measurement runs and of converting to the chosen
   format. *)
let tuning_overhead machine wl (r : result) =
  let measure_sim =
    List.fold_left (fun acc (_, m) -> acc +. m) 0.0 r.topk
  in
  r.feature_seconds +. r.search_seconds +. measure_sim
  +. Costsim.convert_time machine wl r.best
