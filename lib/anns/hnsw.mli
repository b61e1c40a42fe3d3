(** Hierarchical Navigable Small World graphs (Malkov & Yashunin) — the
    graph-based approximate nearest-neighbour index WACO's search runs on
    (§4.2.2).

    The graph is built under the L2 metric over program embeddings;
    [search_by] then traverses the same graph under an arbitrary scoring
    function — WACO's predicted runtime — exploiting the property that an
    L2-built KNN graph supports retrieval under generic measures. *)

type 'a node = {
  vec : float array;
  payload : 'a;
  level : int;
  neighbors : int list array;  (** adjacency per level, 0..level *)
}

type 'a t = {
  dim : int;
  m : int;
  m0 : int;
  ef_construction : int;
  ml : float;
  rng : Sptensor.Rng.t;
  mutable nodes : 'a node array;
  mutable count : int;
  mutable entry : int;
  mutable max_level : int;
}

val create : ?m:int -> ?ef_construction:int -> dim:int -> Sptensor.Rng.t -> 'a t
(** [m] is the target out-degree on upper levels (level 0 gets [2m]). *)

val size : 'a t -> int

val get_payload : 'a t -> int -> 'a

val l2 : float array -> float array -> float
(** Squared Euclidean distance. *)

val insert : 'a t -> float array -> 'a -> unit
(** Raises [Invalid_argument] on dimension mismatch. *)

val search : 'a t -> query:float array -> k:int -> ?ef:int -> unit -> (float * int) list
(** Approximate k-NN under L2: [(distance, node id)] pairs sorted ascending. *)

val search_by :
  'a t -> score_batch:(int array -> float array) -> k:int -> ?ef:int -> unit ->
  (float * int) list * int
(** Generic-measure search: greedy traversal minimizing a score over node
    ids.  [score_batch ids] returns the score of [ids.(j)] in slot [j]
    (longer results are fine; only the first [Array.length ids] slots are
    read).  Scores are memoized per query, and each expanded node's
    unscored neighbours reach [score_batch] in one call, so the walk, its
    result and its evaluation count are those of scoring one node at a
    time.  Returns the top-k [(score, id)] pairs and the number of ids
    scored. *)

val brute_force : 'a t -> query:float array -> k:int -> (float * int) list
(** Exact k-NN by linear scan — for recall measurements in tests. *)

(** {2 Snapshots} *)

val dump : 'a t -> payload:('a -> string) -> string
(** Text serialization of the whole graph (structure, vectors, payloads) so a
    built index can be reused across processes.  [payload] must be
    single-line; raises [Invalid_argument] otherwise. *)

val fingerprint : 'a t -> payload:('a -> string) -> string
(** A short stable identity of the graph (16 hex chars, FNV-1a over
    {!dump}) — the serving layer stamps its persistent schedule cache with
    it so cached answers are invalidated when the index changes. *)

exception Restore_error of string

val restore : Sptensor.Rng.t -> payload:(string -> 'a) -> string -> 'a t
(** Rebuilds a graph serialized by {!dump}.  [rng] seeds future level draws
    (further inserts remain possible).  Raises {!Restore_error} on any
    structural damage — callers wrap it into their typed load errors. *)
