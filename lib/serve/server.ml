(* The `waco serve` daemon: loads a model + HNSW index once, then answers
   tuning requests over a Unix-domain or TCP socket ([Addr] spec) for as
   long as it lives.

   One thread of control owns all IO: the shared [Loop] accepts
   connections, accumulates bytes per connection and peels complete frames
   off with the total [Protocol] decoder.  Decoded queries land on a FIFO;
   between IO rounds the request scheduler drains it in micro-batches:

   - queries are parsed and fingerprinted, then deduplicated per batch —
     N clients asking about the same pattern cost one computation;
   - cache hits are answered immediately;
   - each distinct miss runs through [Tuner.query] on its kernel slot's
     model, in first-appearance order: the model's feature memo computes
     a pattern's feature once for both answer modes, and each miss's
     top-k measurements spread over the worker pool;
   - fresh non-degraded answers enter the LRU cache, which is persisted
     write-through — one fsynced journal append per batch, beside a
     [Robust]-enveloped snapshot — so a restarted daemon is warm.

   Degradation over failure, everywhere: a damaged request body answers
   [Error_msg] on its own connection; a failing measurement degrades to the
   fixed-CSR fallback inside [Tuner.query]; a failing cache persist bumps a
   counter and keeps serving.

   Overload and hostile clients degrade the same way.  Each query's
   [deadline_ms] becomes an absolute instant at frame-decode time and rides
   through the scheduler: an expired query answers from the cache or the
   unmeasured asymptotic fallback (degraded, never cached) instead of
   computing.  Past the pending-queue high-water mark new queries answer
   [Busy] with a retry hint instead of queueing without bound.  A client
   that stalls mid-frame (trickle) or goes silent is reaped on a timeout;
   one that never drains its responses is dropped when the bounded
   non-blocking write gives up.  Every such event is a [Metrics] counter. *)

open Machine_model

type conn = unit Loop.conn

(* One served kernel: its trained model and its HNSW index.  The daemon owns
   one slot per kernel it serves; every query resolves to exactly one slot,
   and cache keys are namespaced by the slot's kernel name so answers can
   never cross.  Only the loop's own thread touches the model. *)
type slot = {
  kernel : Waco.Kernel.t;
  model : Waco.Costmodel.t;
  index : Waco.Tuner.index;
}

type t = {
  socket_path : string;  (* the listen endpoint spec ([Addr] syntax) *)
  mutable bound : string option;
      (* the endpoint actually bound once [run] is listening — differs from
         [socket_path] only for [tcp:HOST:0], where the kernel picks the
         port; tests read it back instead of racing on a fixed port *)
  machine : Machine.t;
  slots : slot array;  (* slot 0 is the primary (the ~model/~index pair) *)
  default_slot : int;
      (* what a kernel-less (pre-kernel client) query gets: the spmv slot
         when served, else the primary *)
  pool : Parallel.Pool.t option;
  cache : Cache.t;
  cache_file : string option;
  cache_status : string;
  metrics : Metrics.t;
  max_batch : int;
  k : int;
  ef : int;
  max_pending : int;  (* queued-query high-water mark; past it, shed *)
  io : Loop.io;
  queue : (conn * Protocol.request * float) Queue.t;  (* req + arrival time *)
  mutable pending_queries : int;  (* queries currently in [queue] *)
  mutable stopping : bool;
}

let metrics t = t.metrics
let cache t = t.cache
let cache_status t = t.cache_status
let bound_endpoint t = t.bound

let index_digest (index : Waco.Tuner.index) =
  Anns.Hnsw.fingerprint index.Waco.Tuner.hnsw ~payload:Schedule.Sched_io.serialize

let create ?pool ?(cache_capacity = 512) ?cache_file ?(max_batch = 32) ?(k = 10)
    ?(ef = 40) ?(max_pending = 256) ?(idle_timeout_s = 60.0)
    ?(frame_timeout_s = 10.0) ?(log = ignore)
    ?(extra = []) ~model ~index ~index_file ~machine ~socket () =
  let mk_slot (m, idx, idx_file) =
    Waco.Tuner.validate_compat m ~index_file:idx_file idx;
    let kernel = Waco.Costmodel.kernel_of m in
    if Waco.Kernel.equal kernel Waco.Kernel.Mttkrp then
      invalid_arg
        "Server.create: mttkrp needs a 3-D tensor; the wire protocol carries \
         2-D matrices";
    { kernel; model = m; index = idx }
  in
  let slots =
    Array.of_list (List.map mk_slot ((model, index, index_file) :: extra))
  in
  Array.iteri
    (fun i s ->
      Array.iteri
        (fun j s' ->
          if i < j && Waco.Kernel.equal s.kernel s'.kernel then
            invalid_arg
              (Printf.sprintf "Server.create: kernel %s served twice"
                 (Waco.Kernel.name s.kernel)))
        slots)
    slots;
  let default_slot =
    let spmv = ref 0 in
    Array.iteri
      (fun i s -> if Waco.Kernel.equal s.kernel Waco.Kernel.default then spmv := i)
      slots;
    !spmv
  in
  let join f = String.concat "+" (Array.to_list (Array.map f slots)) in
  let model_digest = join (fun s -> Waco.Costmodel.digest s.model) in
  let idx_digest = join (fun s -> index_digest s.index) in
  let namespaces =
    Array.to_list (Array.map (fun s -> Waco.Kernel.name s.kernel) slots)
  in
  let machine_name = machine.Machine.name in
  let cache, cache_status =
    match cache_file with
    | Some file when Sys.file_exists file -> (
        match
          Cache.load ~capacity:cache_capacity ~namespaces ~model_digest
            ~index_digest:idx_digest ~machine:machine_name file
        with
        | Ok { cache; status = `Warm n } ->
            log (Printf.sprintf "cache: warm with %d entries from %s" n file);
            (cache, Printf.sprintf "warm(%d)" n)
        | Ok { cache; status = `Invalidated reason } ->
            log ("cache: snapshot invalidated: " ^ reason);
            (cache, "invalidated")
        | Error e ->
            log
              ("cache: snapshot unusable, starting cold: "
              ^ Robust.load_error_to_string e);
            ( Cache.create ~capacity:cache_capacity ~model_digest
                ~index_digest:idx_digest ~machine:machine_name (),
              "damaged" ))
    | _ ->
        ( Cache.create ~capacity:cache_capacity ~model_digest
            ~index_digest:idx_digest ~machine:machine_name (),
          "cold" )
  in
  (* Fail fast on a malformed listen spec: a daemon that parses its
     endpoint only at [run] time dies after the expensive model load. *)
  ignore (Addr.of_string socket);
  let metrics = Metrics.create () in
  {
    socket_path = socket;
    bound = None;
    machine;
    slots;
    default_slot;
    pool;
    cache;
    cache_file;
    cache_status;
    metrics;
    max_batch = max 1 max_batch;
    k;
    ef;
    max_pending = max 1 max_pending;
    io =
      Loop.io ~idle_timeout_s ~frame_timeout_s ~log
        ~count:(Metrics.count_io metrics);
    queue = Queue.create ();
    pending_queries = 0;
    stopping = false;
  }

(* --- query processing ------------------------------------------------- *)

let coo_of_source = function
  | Protocol.Path p -> (
      match Sptensor.Mmio.read_coo p with
      | m -> Ok m
      | exception Sptensor.Mmio.Parse_error e ->
          Error (Printf.sprintf "%s: %s" p e)
      | exception Sys_error e -> Error e)
  | Protocol.Matrix m -> Ok m
  | Protocol.Inline { nrows; ncols; entries } -> (
      match Sptensor.Coo.of_triplet_array ~nrows ~ncols entries with
      | m -> Ok m
      | exception Invalid_argument e -> Error e)

(* A pattern's key, which keys the feature memo both answer modes share.
   The kernel-name prefix partitions the key space per served kernel, so
   one fingerprint can never hand one kernel's schedule to another's. *)
let pattern_key_of ~kernel fp = Waco.Kernel.name kernel ^ "/" ^ Fingerprint.key fp

(* Cache keys separate the measured and predict-only answer spaces: the two
   modes legitimately choose different schedules for the same pattern. *)
let cache_key_of ~measure pkey = if measure then pkey else pkey ^ "#p"

(* Which slot answers a query: its named kernel's, or — kernel omitted, a
   pre-kernel client — the daemon's default slot.  A recognized kernel the
   daemon does not serve is a per-query error, never a silent substitute. *)
let slot_for t (kernel : Waco.Kernel.t option) =
  match kernel with
  | None -> Ok t.default_slot
  | Some k -> (
      let found = ref None in
      Array.iteri
        (fun i s -> if Waco.Kernel.equal s.kernel k then found := Some i)
        t.slots;
      match !found with
      | Some i -> Ok i
      | None ->
          Error
            (Printf.sprintf "kernel %s not served (this daemon serves %s)"
               (Waco.Kernel.name k)
               (String.concat ", "
                  (Array.to_list
                     (Array.map
                        (fun s -> Waco.Kernel.name s.kernel)
                        t.slots)))))

let answer_of_result ~cache_hit ~span (r : Waco.Tuner.result) : Protocol.answer =
  {
    Protocol.schedule = Schedule.Sched_io.serialize r.Waco.Tuner.best;
    predicted = r.Waco.Tuner.best_predicted;
    measured = r.Waco.Tuner.best_measured;
    cache_hit;
    degraded = r.Waco.Tuner.degraded;
    degraded_reason = r.Waco.Tuner.degraded_reason;
    spans = span;
  }

let answer_of_entry ~span (e : Cache.entry) : Protocol.answer =
  {
    Protocol.schedule = e.Cache.schedule;
    predicted = e.Cache.predicted;
    measured = e.Cache.measured;
    cache_hit = true;
    degraded = e.Cache.degraded;
    degraded_reason = None;
    spans = span;
  }

(* [deadline_ms] on the wire -> an absolute expiry instant, from the moment
   the daemon first saw the request (frame decode), not batch dispatch — the
   budget covers queue wait too. *)
let deadline_at_of (q : Protocol.query) ~arrival =
  if q.Protocol.deadline_ms > 0 then
    Some (arrival +. (float_of_int q.Protocol.deadline_ms /. 1000.0))
  else None

let expired = function
  | None -> false
  | Some d -> Robust.mono_now () >= d

(* Merge two members' deadlines for one deduplicated computation: the group
   runs under the laxest member (None = no deadline at all), so a tight
   straggler can never degrade a relaxed client's answer. *)
let merge_deadline a b =
  match (a, b) with Some x, Some y -> Some (Float.max x y) | _ -> None

(* Fold one computed result's spend into the cumulative counters. *)
let note_result t (r : Waco.Tuner.result) =
  Metrics.bump t.metrics (fun m ->
      m.measured_runs <- m.measured_runs + r.Waco.Tuner.measured_runs;
      m.measure_failures <- m.measure_failures + r.Waco.Tuner.measure_failures;
      m.retries_absorbed <- m.retries_absorbed + r.Waco.Tuner.measure_retries;
      m.asym_pruned <- m.asym_pruned + r.Waco.Tuner.asym_pruned;
      m.extractor_forwards <-
        m.extractor_forwards + r.Waco.Tuner.extractor_forwards;
      m.traversals <- m.traversals + 1);
  if r.Waco.Tuner.degraded then
    Metrics.bump t.metrics (fun m -> m.degraded <- m.degraded + 1)

(* Phase B: answer each distinct miss with [Tuner.query] on its slot, in
   first-appearance order, so the cache-insertion order of phase C is
   unchanged.  The feature memo dedupes a pattern across answer modes and
   batches; [tune] re-checks the miss's deadline before its forward, so a
   miss that expires behind a slow earlier one extracts nothing; and each
   miss's top-k measurements spread over the pool.  Returns key -> result. *)
let compute t miss_keys misses =
  let computed = Hashtbl.create 8 in
  Array.iter
    (fun key ->
      let si, pkey, m, measure, deadline_at = Hashtbl.find misses key in
      let slot = t.slots.(si) in
      let r =
        Waco.Tuner.query ?pool:t.pool ~k:t.k ~ef:t.ef ~measure ?deadline_at
          slot.model t.machine ~id:pkey m slot.index
      in
      note_result t r;
      Hashtbl.replace computed key r)
    miss_keys;
  computed

(* The expired-before-compute answer: the asymptotic analyzer's
   guaranteed-not-terrible pick, unmeasured — there is no time left for a
   traversal, let alone a simulator run.  Degraded, so never cached. *)
let deadline_fallback t slot ~key ~span m =
  let wl = Workload.of_coo ~id:key m in
  let algo = slot.model.Waco.Costmodel.algo in
  let r =
    Waco.Tuner.degraded ~measure:false t.machine wl algo ~reason:"deadline"
  in
  Metrics.bump t.metrics (fun m ->
      m.cache_misses <- m.cache_misses + 1;
      m.degraded <- m.degraded + 1;
      m.answers <- m.answers + 1);
  Metrics.record_span t.metrics span;
  Protocol.Answer (answer_of_result ~cache_hit:false ~span r)

(* Process one micro-batch of arrival-stamped queries.  Returns each query's
   response in input order. *)
let process_stamped t (batch : (Protocol.query * float) list) :
    Protocol.response list =
  Metrics.record_batch t.metrics (List.length batch);
  (* Phase A (sequential, cheap): parse + fingerprint + cache probe. *)
  let parsed =
    List.map
      (fun ((q : Protocol.query), arrival) ->
        let span = Metrics.span_create () in
        let t0 = Robust.mono_now () in
        let outcome =
          match slot_for t q.Protocol.kernel with
          | Error e -> `Err e
          | Ok si -> (
              match coo_of_source q.Protocol.source with
              | Error e -> `Err e
              | Ok m ->
                  let pkey =
                    pattern_key_of ~kernel:t.slots.(si).kernel
                      (Fingerprint.of_coo m)
                  in
                  `Parsed
                    (si, pkey, cache_key_of ~measure:q.Protocol.measure pkey, m))
        in
        span.Metrics.parse_s <- Robust.mono_now () -. t0;
        (q, deadline_at_of q ~arrival, span, outcome))
      batch
  in
  (* Distinct cache misses, in first-appearance order (kept stable so every
     pool size computes the same work list).  A miss whose deadline
     has already expired is not computed at all — it answers from the
     fallback below. *)
  let miss_order = ref [] in
  let misses = Hashtbl.create 8 in
  List.iter
    (fun (q, dl, _, outcome) ->
      match outcome with
      | `Err _ -> ()
      | `Parsed (si, pkey, key, m) ->
          if Cache.find t.cache key = None then begin
            match Hashtbl.find_opt misses key with
            | Some (si0, pkey0, m0, measure0, dl0) ->
                (* Another member already claims this key: relax the group
                   deadline to the laxest member. *)
                Hashtbl.replace misses key
                  (si0, pkey0, m0, measure0, merge_deadline dl0 dl)
            | None ->
                if not (expired dl) then begin
                  Hashtbl.add misses key (si, pkey, m, q.Protocol.measure, dl);
                  miss_order := key :: !miss_order
                end
          end)
    parsed;
  let miss_keys = Array.of_list (List.rev !miss_order) in
  (* Phase B: compute the distinct misses, one observability record per
     dispatch. *)
  Metrics.record_phase_b t.metrics (Array.length miss_keys);
  let computed = compute t miss_keys misses in
  (* Phase C (sequential): cache insertion in deterministic order, one
     write-through persist per batch, answers in input order.  Degraded
     answers — including every deadline-truncated one — never enter the
     cache. *)
  let fresh = ref false in
  Array.iter
    (fun key ->
      let r = Hashtbl.find computed key in
      if not r.Waco.Tuner.degraded then begin
        Cache.add t.cache key
          {
            Cache.schedule = Schedule.Sched_io.serialize r.Waco.Tuner.best;
            predicted = r.Waco.Tuner.best_predicted;
            measured = r.Waco.Tuner.best_measured;
            degraded = false;
          };
        fresh := true
      end)
    miss_keys;
  (if !fresh then
     match t.cache_file with
     | Some file -> (
         try Cache.persist t.cache file
         with e ->
           Metrics.bump t.metrics (fun m ->
               m.cache_persist_failures <- m.cache_persist_failures + 1);
           t.io.log
             (Printf.sprintf "cache: persist to %s failed: %s" file
                (Printexc.to_string e)))
     | None -> ());
  let note_deadline_miss dl (resp : Protocol.response) =
    let reason_is_deadline =
      match resp with
      | Protocol.Answer a -> a.Protocol.degraded_reason = Some "deadline"
      | _ -> false
    in
    if reason_is_deadline || expired dl then
      Metrics.bump t.metrics (fun m ->
          m.deadline_misses <- m.deadline_misses + 1);
    resp
  in
  List.map
    (fun ((_q : Protocol.query), dl, span, outcome) ->
      match outcome with
      | `Err e ->
          Metrics.bump t.metrics (fun m ->
              m.request_errors <- m.request_errors + 1);
          Metrics.record_span t.metrics span;
          Protocol.Error_msg e
      | `Parsed (si, _, key, m) -> (
          match Hashtbl.find_opt computed key with
          | Some r ->
              span.Metrics.extract_s <- r.Waco.Tuner.feature_seconds;
              span.Metrics.traverse_s <- r.Waco.Tuner.search_seconds;
              span.Metrics.measure_s <- r.Waco.Tuner.measure_seconds;
              Metrics.bump t.metrics (fun m ->
                  m.cache_misses <- m.cache_misses + 1;
                  m.answers <- m.answers + 1);
              Metrics.record_span t.metrics span;
              note_deadline_miss dl
                (Protocol.Answer (answer_of_result ~cache_hit:false ~span r))
          | None -> (
              (* Not computed this batch: a cache hit at probe time, or a
                 miss whose deadline expired before compute. *)
              match Cache.find t.cache key with
              | Some entry ->
                  Metrics.bump t.metrics (fun m ->
                      m.cache_hits <- m.cache_hits + 1;
                      m.answers <- m.answers + 1);
                  Metrics.record_span t.metrics span;
                  note_deadline_miss dl
                    (Protocol.Answer (answer_of_entry ~span entry))
              | None ->
                  if expired dl then
                    note_deadline_miss dl
                      (deadline_fallback t t.slots.(si) ~key ~span m)
                  else begin
                    Metrics.bump t.metrics (fun m ->
                        m.request_errors <- m.request_errors + 1);
                    Protocol.Error_msg
                      "internal: answer neither cached nor computed"
                  end)))
    parsed

(* Process one micro-batch of decoded queries, all stamped as arriving now.
   The socket path stamps arrival at frame decode instead, so a queued
   query's deadline budget includes its queue wait. *)
let process_batch t (batch : Protocol.query list) : Protocol.response list =
  let now = Robust.mono_now () in
  process_stamped t (List.map (fun q -> (q, now)) batch)

(* --- the IO loop ------------------------------------------------------- *)

let stats_json t =
  Metrics.to_json
    ~extra_ints:
      [
        ("cache_size", Cache.size t.cache);
        ("cache_capacity", Cache.capacity t.cache);
        ("cache_evictions", Cache.evictions t.cache);
        ("cache_compactions", Cache.compactions t.cache);
        ("cache_journal_bytes", Cache.journal_bytes t.cache);
        ( "index_size",
          Array.fold_left
            (fun acc s -> acc + Anns.Hnsw.size s.index.Waco.Tuner.hnsw)
            0 t.slots );
        ( "index_lint_rejected",
          Array.fold_left
            (fun acc s -> acc + s.index.Waco.Tuner.lint_rejected)
            0 t.slots );
        ( "index_asym_rejected",
          Array.fold_left
            (fun acc s -> acc + s.index.Waco.Tuner.asym_rejected)
            0 t.slots );
        ( "domains",
          match t.pool with Some p -> Parallel.Pool.domains p | None -> 1 );
        ("pending", t.pending_queries);
        ("max_pending", t.max_pending);
      ]
    ~extra:
      [
        ("socket", t.socket_path);
        ("listen", (match t.bound with Some b -> b | None -> t.socket_path));
        ("machine", t.machine.Machine.name);
        ("cache_status", t.cache_status);
        ( "kernels",
          String.concat "+"
            (Array.to_list
               (Array.map (fun s -> Waco.Kernel.name s.kernel) t.slots)) );
        ("default_kernel", Waco.Kernel.name t.slots.(t.default_slot).kernel);
      ]
    t.metrics

let send t conn (resp : Protocol.response) =
  Loop.send t.io conn (Protocol.response_to_frame resp)

(* The [Busy] hint scales with how deep the backlog already is: a client
   told to come back later should not come back into the same wall. *)
let retry_hint t =
  min 2000 (50 * (1 + (t.pending_queries / t.max_batch)))

(* Drain complete frames out of a connection's buffer; enqueue well-formed
   requests, answer undecodable bodies, kill the connection on framing
   damage.  Past the pending high-water mark a new query answers [Busy]
   instead of queueing — control requests (stats/ping/shutdown) always get
   through, so an overloaded daemon stays observable and stoppable. *)
let drain_frames t (conn : conn) =
  let rec go () =
    match Loop.peel conn.inbuf with
    | `Need -> ()
    | `Bad reason ->
        Metrics.bump t.metrics (fun m ->
            m.protocol_errors <- m.protocol_errors + 1);
        send t conn (Protocol.Error_msg ("protocol: " ^ reason));
        Loop.close conn
    | `Frame (msg, body, _) -> (
        match Protocol.request_of_frame ~msg body with
        | Ok req ->
            Metrics.bump t.metrics (fun m -> m.requests <- m.requests + 1);
            (match req with
            | Protocol.Query _ when t.pending_queries >= t.max_pending ->
                Metrics.bump t.metrics (fun m -> m.shed <- m.shed + 1);
                send t conn (Protocol.Busy { retry_after_ms = retry_hint t })
            | Protocol.Query _ ->
                t.pending_queries <- t.pending_queries + 1;
                Queue.add (conn, req, Robust.mono_now ()) t.queue
            | _ -> Queue.add (conn, req, Robust.mono_now ()) t.queue);
            go ()
        | Error e ->
            Metrics.bump t.metrics (fun m ->
                m.protocol_errors <- m.protocol_errors + 1);
            send t conn (Protocol.Error_msg ("request: " ^ e));
            go ())
  in
  go ()

(* Drain the request FIFO: control requests answer inline, runs of queries
   dispatch as micro-batches of at most [max_batch].  FIFO order per
   connection is preserved — a client that pipelines query;stats sees the
   stats taken after its query. *)
let drain_queue t =
  while not (Queue.is_empty t.queue) do
    match Queue.peek t.queue with
    | _, Protocol.Stats, _ ->
        let conn, _, _ = Queue.pop t.queue in
        send t conn (Protocol.Stats_json (stats_json t))
    | _, Protocol.Ping, _ ->
        let conn, _, _ = Queue.pop t.queue in
        send t conn Protocol.Pong
    | _, Protocol.Shutdown, _ ->
        let conn, _, _ = Queue.pop t.queue in
        t.stopping <- true;
        send t conn Protocol.Bye
    | _, Protocol.Query _, _ ->
        (* Collect the contiguous run of queries at the head. *)
        let conns = ref [] and queries = ref [] in
        let continue = ref true in
        while
          !continue
          && (not (Queue.is_empty t.queue))
          && List.length !queries < t.max_batch
        do
          match Queue.peek t.queue with
          | conn, Protocol.Query q, arrival ->
              ignore (Queue.pop t.queue);
              t.pending_queries <- t.pending_queries - 1;
              conns := conn :: !conns;
              queries := (q, arrival) :: !queries
          | _ -> continue := false
        done;
        let conns = List.rev !conns and queries = List.rev !queries in
        let responses = process_stamped t queries in
        List.iter2 (fun conn resp -> send t conn resp) conns responses
  done

let run t =
  Loop.run t.io ~endpoint:t.socket_path
    ~on_listen:(fun bound ->
      t.bound <- Some bound;
      t.io.log (Printf.sprintf "listening on %s" bound))
    ~stopping:(fun () -> t.stopping)
    ~accept:ignore ~on_bytes:(drain_frames t)
    ~links:(fun () -> [])
    ~after_round:(fun () -> drain_queue t)
    ~on_exit:(fun () ->
      match t.cache_file with
      | Some file -> (
          try Cache.compact t.cache file
          with e ->
            t.io.log
              (Printf.sprintf "cache: final persist failed: %s"
                 (Printexc.to_string e)))
      | None -> ())
