(** The serving IO core under {!Server} and {!Router}: one [select] loop
    that listens, accepts, reads client connections in 64 KiB chunks, peels
    complete {!Protocol} frames off each connection incrementally, writes
    through one bounded non-blocking writer, and reaps idle and mid-frame
    stalled connections.  The daemons supply handlers; everything below the
    frame is here.

    [Robust.Faults] network hooks fire before every client read (drop, then
    cap) and before every chunk of {!write_bounded}; {!pump} itself, used
    directly for a router's shard links, is hook-free. *)

(** {2 Incremental frame peeling} *)

type inbuf
(** A connection's unconsumed input bytes. *)

val inbuf : unit -> inbuf
val buffered : inbuf -> int

val feed : inbuf -> Bytes.t -> int -> int -> unit
(** [feed ib src pos n] appends [n] bytes of [src] from [pos], compacting
    already-peeled bytes away first. *)

val peel : inbuf -> [ `Frame of int * string * string | `Need | `Bad of string ]
(** The next complete frame off the front of the buffer as [(msg type,
    body, raw frame bytes)], consuming it — exactly what folding
    {!Protocol.decode_frame} over the buffered bytes yields, without copying
    the unconsumed tail.  [`Need] leaves the buffer untouched; after [`Bad]
    the connection is beyond repair. *)

(** {2 Connections} *)

type 'a conn = {
  fd : Unix.file_descr;
  inbuf : inbuf;
  mutable alive : bool;
  mutable last_byte : float;  (** when the last byte arrived (or accept time) *)
  mutable partial_since : float;
      (** when the current incomplete frame started; 0.0 at a boundary *)
  data : 'a;  (** the daemon's per-connection state *)
}

val conn : Unix.file_descr -> 'a -> 'a conn
val close : 'a conn -> unit

val selectable : Unix.file_descr -> bool
(** False for an fd at or past FD_SETSIZE (1024), which [Unix.select]
    rejects with EINVAL for the whole set: such an fd must never be
    watched. *)

type event =
  | Stalled  (** a client dropped for not draining its responses *)
  | Reaped_idle  (** a connection closed for total silence *)
  | Reaped_trickle  (** a connection closed for stalling mid-frame *)
  | Refused_fdset  (** an accepted fd past FD_SETSIZE, closed at once *)

type io = private {
  idle_timeout_s : float;
  frame_timeout_s : float;
  log : string -> unit;
  count : event -> unit;
  chunk : Bytes.t;
}
(** One daemon's IO settings, its event counter and its read buffer. *)

val io :
  idle_timeout_s:float ->
  frame_timeout_s:float ->
  log:(string -> unit) ->
  count:(event -> unit) ->
  io

val pump : io -> cap:int -> 'a conn -> ('a conn -> unit) -> bool
(** One chunked read of at most [cap] bytes; the callback peels what
    arrived, then the partial-frame clock is updated.  False on end of
    stream or reset; a spurious wakeup is true. *)

val write_bounded : Unix.file_descr -> string -> unit
(** The whole string goes out within 5 s, or it raises: a
    private exception when the peer stops draining, [Unix_error (EPIPE |
    ECONNRESET)] when it is gone. *)

val send : io -> 'a conn -> string -> unit
(** {!write_bounded} to a live client; a stalled client is counted
    ({!Stalled}) and dropped, a gone one dropped. *)

(** {2 The loop} *)

val run :
  io ->
  endpoint:string ->
  on_listen:(string -> unit) ->
  stopping:(unit -> bool) ->
  accept:(unit -> 'a) ->
  on_bytes:('a conn -> unit) ->
  links:(unit -> (Unix.file_descr * (unit -> unit)) list) ->
  after_round:(unit -> unit) ->
  on_exit:(unit -> unit) ->
  unit
(** Bind [endpoint] ({!Addr} spec), call [on_listen] with the endpoint
    actually bound, and loop until [stopping ()].  Each round: accept (a
    new connection's state from [accept]), run the readable [links]' own
    callbacks, read readable clients ([on_bytes] peels), [after_round],
    then reap.  On any exit the listen socket closes (a Unix socket file is
    unlinked), every client closes, then [on_exit] runs.  SIGPIPE stays
    ignored after the bind ({!Addr.listen}). *)
