(** The `waco serve` wire protocol: length-prefixed, versioned frames over a
    Unix-domain socket.  Every frame is a 10-byte header — magic ["WSRV"],
    one version byte, one message-type byte, big-endian 32-bit payload
    length — followed by the payload, a line-oriented key=value body.

    The decoder is {e total}: any byte sequence yields [`Frame]/[`Need]/
    [`Bad], never an exception (the fuzz suite in [test/test_serve.ml]
    enforces this), so damaged or hostile input can at worst get its own
    connection dropped. *)

val magic : string

val version : int

val max_payload : int
(** Hard bound on a frame's declared payload length, checked before any
    allocation. *)

val header_bytes : int

(** {2 Message type bytes} *)

val msg_query : int
val msg_stats : int
val msg_ping : int
val msg_shutdown : int
val msg_answer : int
val msg_stats_json : int
val msg_pong : int
val msg_bye : int
val msg_busy : int
val msg_error : int

(** {2 Framing} *)

val encode_frame : msg:int -> string -> string
(** Raises [Invalid_argument] when the body exceeds {!max_payload}. *)

type progress =
  [ `Frame of int * string * int  (** (msg type, body, bytes consumed) *)
  | `Need of int  (** incomplete; at least this many more bytes *)
  | `Bad of string  (** unrecoverable framing damage; drop the connection *)
  ]

val decode_frame : string -> progress
(** Examines the accumulated bytes of one connection.  A wrong magic or
    version, an unknown length field or an over-limit payload is [`Bad]
    as soon as it is detectable. *)

(** {2 Requests} *)

type source =
  | Path of string  (** a MatrixMarket file the daemon can read *)
  | Inline of { nrows : int; ncols : int; entries : (int * int * float) array }
      (** inline triplets in any order, duplicates summed by the daemon;
          kept for callers that build triplets.  It never comes out of the
          decoder: on the wire it is the same [source=inline] block as
          {!Matrix} and decodes as one. *)
  | Matrix of Sptensor.Coo.t
      (** an inline matrix: what every decoded [source=inline] body is.
          Encoded as the same entry lines an [Inline] of the matrix's
          triplets in storage order encodes to, byte for byte. *)

type query = {
  qid : string;  (** client-chosen label, echoed in traces; not a cache key *)
  source : source;
  measure : bool;  (** run the top-k simulator measurements (default) *)
  deadline_ms : int;
      (** answer budget in milliseconds from the daemon's first sight of the
          request; 0 (the default, omitted on the wire) means no deadline.
          On expiry the daemon answers immediately from the cache or the
          asymptotic fallback, marked [degraded_reason = "deadline"]. *)
  kernel : Waco.Kernel.t option;
      (** which kernel's model/index/cache-namespace answers this query;
          [None] (omitted on the wire — every pre-kernel client) is served
          the daemon's default slot.  An {e unrecognized} kernel name on the
          wire is a decode [Error], never a silent default. *)
}

type request = Query of query | Stats | Ping | Shutdown

val max_inline_nnz : int

val max_deadline_ms : int
(** Hard bound on a declared [deadline_ms] (one hour). *)

val request_to_frame : request -> string

val request_of_frame : msg:int -> string -> (request, string) result
(** Total: structural damage (bad dims, out-of-range coordinates,
    non-finite values, entry-count mismatch) is an [Error], never an
    exception.  An inline body decodes in one pass straight into the
    columns of a {!Matrix} (sorted and summed only when the lines are not
    already in row-major order); columns are sized by what the body can
    hold, so a short body declaring a huge [nnz] allocates nothing large.
    The router and the daemon decode with this same function. *)

(** {2 Responses} *)

(** One request's trace: seconds per phase, in phase order.  The daemon
    fills it while it answers ({!Metrics.span} is this type); on the wire
    it is one [span.NAME=%h] line per phase — [parse], [extract],
    [traverse], [measure] — and a phase missing from a decoded body reads
    0. *)
type span = {
  mutable parse_s : float;
  mutable extract_s : float;
  mutable traverse_s : float;
  mutable measure_s : float;
}

type answer = {
  schedule : string;  (** dataset-encoded SuperSchedule ([Sched_io]) *)
  predicted : float;
  measured : float;  (** simulator seconds; NaN when measurement was off *)
  cache_hit : bool;
  degraded : bool;
  degraded_reason : string option;
  spans : span;  (** per-request trace *)
}

type response =
  | Answer of answer
  | Stats_json of string
  | Pong
  | Bye
  | Busy of { retry_after_ms : int }
      (** load shed: the daemon's pending queue is past its high-water mark;
          retry after the hinted delay instead of hanging *)
  | Error_msg of string

val response_to_frame : response -> string

val response_of_frame : msg:int -> string -> (response, string) result
