(** The daemon's schedule cache: {!Fingerprint.key} -> chosen schedule, LRU
    bounded in memory, persisted as a snapshot in the [Robust] artifact
    envelope (kind [waco-serve-cache]) plus an append-only journal beside
    it ([<file>.journal]) so a restarted daemon is warm.

    Consistency: the snapshot header is stamped with the model-weight
    digest, index fingerprint and machine name it was computed under; a
    snapshot whose stamps disagree with the loading daemon's is discarded
    wholesale ([`Invalidated]), never partially reused.  Structural damage
    is a typed [Robust.load_error] — the crash-at-every-write sweeps in
    [test/test_serve.ml] prove a crash mid-save or mid-persist leaves the
    previous state, the new one, or a clean error. *)

type entry = {
  schedule : string;  (** dataset-encoded SuperSchedule *)
  predicted : float;
  measured : float;
  degraded : bool;
}

type t

val create :
  ?capacity:int -> model_digest:string -> index_digest:string ->
  machine:string -> unit -> t
(** [capacity] defaults to 512 entries.  Digests and machine name must be
    whitespace-free (they live in the snapshot's header line). *)

val size : t -> int

val capacity : t -> int

val evictions : t -> int
(** Entries dropped by the LRU bound since creation (or since load). *)

val find : t -> string -> entry option
(** Bumps the entry's recency. *)

val add : t -> string -> entry -> unit
(** Inserts (or replaces) the entry as most-recent, evicting the
    least-recently-used entry when the cache is full. *)

val save : t -> string -> unit
(** Atomic checksummed snapshot (entries in recency order).  Saving over
    the snapshot of an attached journal detaches it: the next {!persist}
    compacts. *)

val persist : t -> string -> unit
(** [persist t file] makes every change since the previous persist durable:
    it appends one checksummed record to [file ^ ".journal"] — each touched
    key's latest tick, then each inserted entry, in tick order — and
    fsyncs it.  It compacts instead ({!compact}) when no journal for [file]
    is attached yet (a daemon's first persist, or after a failed one) or
    when the journal's bytes exceed twice the snapshot's payload bytes.
    Raises on IO failure, after which the next persist compacts. *)

val compact : t -> string -> unit
(** Rewrite the snapshot ({!save}), then start a fresh journal whose first
    record names it by the CRC32 of its payload, and attach it. *)

val compactions : t -> int
(** Compactions since creation. *)

val journal_bytes : t -> int
(** Bytes in the attached journal; 0 when none is attached. *)

type loaded = { cache : t; status : [ `Warm of int | `Invalidated of string ] }

val load :
  ?capacity:int -> ?namespaces:string list -> model_digest:string ->
  index_digest:string -> machine:string -> string ->
  (loaded, Robust.load_error) result
(** Replays the snapshot, then [<file>.journal] if it names this snapshot
    (a journal naming another one predates the snapshot, which already
    holds its records).  A torn final journal record — a crash mid-append —
    is dropped; a damaged record anywhere else is [Malformed].

    [`Warm n] restores [n] entries with their recency order intact;
    [`Invalidated reason] returns an empty cache because the snapshot was
    computed under different model/index/machine identities.  [Error] is
    envelope or record damage — the caller starts cold.

    With [namespaces] (the kernel-partitioned daemon passes its served
    kernel names), every persisted key must start with [<ns>/] for some
    listed namespace; a key without one comes from a pre-kernel snapshot
    and invalidates the {e whole} snapshot — the same wholesale policy as a
    digest-stamp mismatch, so an SpMV-era entry can never be served to an
    SDDMM query. *)
