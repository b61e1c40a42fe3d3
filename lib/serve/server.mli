(** The `waco serve` daemon: model + index loaded once, tuning requests
    answered over a Unix-domain or TCP socket ({!Addr} spec) until
    shutdown.  The transport choice is invisible above the fd: framing,
    micro-batching, deadlines, shedding and the reapers behave identically
    on both.

    The shared {!Loop} owns all IO; between IO rounds the request scheduler
    drains decoded queries in micro-batches — per batch, the distinct cache
    misses (deduplicated by sparsity fingerprint) of each kernel take one
    batched feature extraction, their top-k measurements spread over the
    worker pool, then fresh answers enter the LRU cache and are persisted
    write-through: one fsynced {!Cache.persist} journal append per batch.
    FIFO order is preserved
    per connection.

    The daemon degrades under overload and hostile clients instead of
    hanging: per-query [deadline_ms] budgets (expired queries answer from
    the cache or the unmeasured asymptotic fallback, marked degraded and
    never cached), a pending-queue high-water mark past which new queries
    answer [Busy] with a retry hint, timeouts that reap silent and
    mid-frame-stalled (trickle) connections, and a bounded non-blocking
    writer that drops clients who never drain their responses.  Every shed,
    deadline miss, reap and write stall is a {!Metrics} counter. *)

type t

val create :
  ?pool:Parallel.Pool.t ->
  ?cache_capacity:int ->
  ?cache_file:string ->
  ?max_batch:int ->
  ?k:int ->
  ?ef:int ->
  ?max_pending:int ->
  ?idle_timeout_s:float ->
  ?frame_timeout_s:float ->
  ?log:(string -> unit) ->
  ?extra:(Waco.Costmodel.t * Waco.Tuner.index * string) list ->
  model:Waco.Costmodel.t ->
  index:Waco.Tuner.index ->
  index_file:string ->
  machine:Machine_model.Machine.t ->
  socket:string ->
  unit ->
  t
(** Validates model/index compatibility ({!Waco.Tuner.validate_compat} —
    raises [Robust.Load_error] on an embedding-dimension mismatch, citing
    [index_file]) and loads [cache_file] when it exists: a snapshot whose
    model digest, index fingerprint and machine name all match comes back
    warm; anything else (stale stamp, damaged envelope, a pre-kernel
    un-namespaced entry) starts cold — never garbage.

    [extra] adds one serving slot per additional [(model, index,
    index_file)] triple: the daemon then answers [kernel=] queries from the
    matching slot, with cache keys namespaced by kernel name so answers can
    never cross kernels.  Each model serves the kernel of its own algorithm;
    serving the same kernel twice, or MTTKRP (whose operand is a 3-D tensor
    the wire protocol cannot carry), raises [Invalid_argument].  A query
    naming no kernel is served by the SpMV slot when present, else the
    primary [model] slot — so a single-kernel daemon behaves exactly as
    before this field existed.

    [max_batch] (default 32) bounds one micro-batch; [k]/[ef] are the
    tuner's search knobs, fixed at daemon start so cached and fresh answers
    are comparable.

    [max_pending] (default 256) is the queued-query high-water mark: past
    it, new queries answer [Busy {retry_after_ms}] instead of queueing
    (control requests always get through, so an overloaded daemon stays
    observable and stoppable).  [idle_timeout_s] (default 60) reaps a
    connection that has sent nothing at all; [frame_timeout_s] (default 10)
    reaps one stalled in the middle of a frame — a trickler feeding a byte
    per tick never completes a frame and dies here.  One response write
    waits at most 5 s for the client to drain before the connection is
    dropped. *)

val process_batch : t -> Protocol.query list -> Protocol.response list
(** One micro-batch through the request scheduler, bypassing the socket —
    exactly what {!run} does for a contiguous run of queued queries
    (parse, fingerprint, dedup, cache probe, batched compute of the
    distinct misses, write-through persist).  Responses come back in input
    order.  Exposed so tests and the bench harness can drive batches
    deterministically.  Every query is stamped as arriving now, so a
    [deadline_ms] budget starts at this call; the socket path stamps
    arrival at frame decode instead, charging queue wait to the budget. *)

val run : t -> unit
(** Bind the endpoint (removing a stale socket file first for Unix paths)
    and serve until a [Shutdown] request arrives.  On
    exit: cache persisted, connections closed, Unix socket unlinked — also
    on exceptional exit.  SIGPIPE is ignored from the bind on ({!Addr}), so
    dying clients surface as [EPIPE] on their own connection, not a daemon
    kill. *)

val bound_endpoint : t -> string option
(** The endpoint {!run} actually bound — [Some] once listening.  Differs
    from the [~socket] spec only for [tcp:HOST:0], where it carries the
    kernel-chosen port; in-process tests poll it instead of racing on a
    fixed port. *)

val metrics : t -> Metrics.t
val cache : t -> Cache.t

val cache_status : t -> string
(** ["cold"], ["warm(<n>)"], ["invalidated"] or ["damaged"] — how the
    persistent cache came up at daemon start. *)

val stats_json : t -> string
(** The same JSON object a [Stats] request returns. *)
