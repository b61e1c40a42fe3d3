(** Blocking client for the serving daemon's framed protocol, over a Unix
    or TCP socket ({!Addr} spec strings everywhere a socket path was).

    One {!t} is one connection.  The convenience wrappers ({!query}, {!stats},
    {!ping}, {!shutdown}) are strict request/response; the lower-level
    {!send}/{!recv} pair lets tests pipeline many requests on one connection
    before reading any responses — the shape that exercises the daemon's
    micro-batching.  Not thread-safe; use one [t] per domain.

    Failure is bounded everywhere: {!connect} waits at most its timeout,
    {!recv} can take one, and {!query_with_retry} adds capped exponential
    backoff with deterministic qid-seeded jitter over fresh connections. *)

type t

val connect : ?timeout_s:float -> string -> t
(** Connect to the daemon's endpoint — a bare Unix-socket path,
    [unix:PATH], or [tcp:HOST:PORT] — waiting at most [timeout_s]
    (default 5 s) via a non-blocking connect + select — never an unbounded
    hang.  Raises [Unix.Unix_error] (e.g. [ENOENT]/[ECONNREFUSED]) when no
    daemon is listening, [Failure] on timeout. *)

val close : t -> unit
(** Idempotent. *)

val send : t -> Protocol.request -> unit
(** Write one request frame.  Does not wait for the response. *)

val recv : ?timeout_s:float -> t -> Protocol.response
(** Block until one complete response frame arrives, or [timeout_s] of wall
    clock passes (no timeout by default).  Responses come back in request
    order (the daemon preserves FIFO order per connection).  Raises
    [Failure] if the daemon hangs up mid-frame, sends damaged framing, or
    the timeout expires — after a timeout the connection is in an unknown
    state and must not be reused. *)

val request : ?timeout_s:float -> t -> Protocol.request -> Protocol.response
(** [send] then [recv]. *)

val query :
  ?measure:bool -> ?deadline_ms:int -> ?kernel:Waco.Kernel.t -> ?qid:string ->
  ?timeout_s:float ->
  t -> Protocol.source ->
  (Protocol.answer, string) result
(** One tuning request.  The source is a daemon-side [Path] or an inline
    matrix, normally a [Matrix] ({!Protocol.source}); either inline form
    goes out as the same entry lines.  [measure] (default [true]) [false]
    asks for the
    predict-only fast path.  [deadline_ms] > 0 gives the daemon an answer
    budget; a blown budget comes back as a degraded answer with reason
    ["deadline"], not an error.  [kernel] names the daemon slot (and cache
    namespace) that answers; omitted, the daemon's default slot does — a
    kernel the daemon does not serve is an [Error _].  [Error _] carries the
    daemon's error message for this request — including a [Busy] shed,
    rendered as ["busy: retry after <n> ms"] (the connection stays
    usable). *)

val query_with_retry :
  ?attempts:int -> ?base_s:float -> ?max_s:float -> ?connect_timeout_s:float ->
  ?timeout_s:float -> ?measure:bool -> ?deadline_ms:int ->
  ?kernel:Waco.Kernel.t -> ?qid:string ->
  socket:string -> Protocol.source ->
  (Protocol.answer, string) result
(** The resilient round trip: connect, query, close — retried up to
    [attempts] (default 3) times on transport failure (connect/receive
    timeout, torn frame, daemon restart mid-request) or a [Busy] shed,
    sleeping {!Robust.backoff_delay} between attempts (exponential from
    [base_s] = 50 ms, capped at [max_s] = 1 s) with jitter seeded by [qid];
    a [Busy] retry honors the daemon's [retry_after_ms] hint in full even
    past [max_s] (bounded only by a 30 s ceiling against a broken hint),
    and identically whether the shed was answered directly or relayed
    verbatim through a {!Router}.  Each
    attempt uses a fresh connection (a torn one is never reused) and the
    same [qid]: answers are keyed by sparsity fingerprint in the daemon's
    cache, so a retry after a half-processed attempt re-answers idempotently
    instead of recomputing.  A daemon [Error_msg] is a definitive answer
    about the request and returns immediately, never retried. *)

val stats : t -> (string, string) result
(** The daemon's metrics as a JSON object string. *)

val ping : t -> bool

val shutdown : t -> bool
(** Ask the daemon to exit after persisting its cache.  [true] on [Bye]. *)
