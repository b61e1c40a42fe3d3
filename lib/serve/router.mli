(** The `waco route` daemon: a consistent-hash front tier that spreads
    tuning queries over N shard daemons by sparsity fingerprint.

    Clients speak the unchanged {!Protocol} to the router; the router
    relays each query's frame bytes verbatim to the shard that owns its
    [fp1:] fingerprint on the hash ring, and relays the shard's response
    frame verbatim back — including a [Busy] shed, whose [retry_after_ms]
    hint reaches the client exactly as the shard computed it.  Per-client
    FIFO order is preserved end to end even when one client's queries fan
    out to different shards.  Control requests bypass hashing: [ping]
    answers locally, [stats] fans out to every live shard and aggregates,
    [shutdown] stops the router (shards have their own lifecycles).

    A dead shard is removed from the ring and its in-flight predict-only
    queries are retried on their new ring owner (bounded by
    [failover_hops]); measured queries answer an honest [error] — a
    measurement may have half-run, and silently re-running it elsewhere
    would hide that.  Dead shards are redialed with capped backoff and
    re-admitted to the ring on reconnect, warm from their own persistent
    caches. *)

(** The consistent-hash ring, exposed for property tests and for callers
    that want to predict placement: FNV-1a over the fingerprint's sketch
    hex, 64 virtual points per shard, successor-point lookup.
    Ring membership changes remap only the departed (or joined) shard's
    arcs — every other key keeps its owner. *)
module Ring : sig
  type t

  val create : string list -> t
  (** Raises [Invalid_argument] on an empty member list. *)

  val members : t -> string list

  val lookup : t -> string -> string
  (** [lookup ring key] is the member owning [key]'s successor point.
      [key] is a routing key — see {!routing_key}. *)

  val routing_key : string -> string
  (** The hashed portion of a cache/fingerprint key: the sketch hex of an
      [fp1:…] key (shape and nnz stripped, so routing sees only the
      density layout); any other string routes as itself. *)
end

type t

val create :
  ?max_pending:int ->
  ?failover_hops:int ->
  ?log:(string -> unit) ->
  listen:string ->
  shards:string list ->
  unit ->
  t
(** [listen] and each shard endpoint are {!Addr} specs.  [max_pending]
    (default 1024) is the high-water mark on queries awaiting a shard
    answer: past it the router sheds with its own queue-depth hint (a
    shard's relayed [Busy] always carries the shard's hint, never a
    synthesized one).  [failover_hops] (default 1) bounds how many
    {e additional} shards a predict-only query may be retried on after a
    shard death.  Client connections are reaped after 60 s of silence or
    10 s stalled mid-frame, and a write waits at most 5 s for its peer to
    drain, as {!Server.create}'s defaults.  A shard dial times out after
    2 s, and dead shards are redialed with backoff from 0.05 s capped at
    2 s.  Raises [Invalid_argument]
    on an empty or duplicate-laden shard list or a malformed spec. *)

val run : t -> unit
(** Bind, dial every shard once (a shard down at startup is logged and
    redialed, not fatal), then route until [shutdown].  On
    exit every connection is closed and a Unix listen socket unlinked. *)

val bound_endpoint : t -> string option
(** The endpoint actually bound once listening ([tcp:HOST:0] resolved). *)

val stats_json : t -> string
(** The router-local counters (routed/relayed/failovers/sheds/deaths…) as
    a JSON object — the ["router"] section of the aggregated [stats]
    answer, without the shard fan-out. *)
