(** Endpoint specs shared by every serving-tier flag: a bare path or
    [unix:PATH] is a Unix-domain socket, [tcp:HOST:PORT] a TCP endpoint
    ([PORT] 0 = kernel-chosen ephemeral port).  The wire protocol and every
    robustness property above the fd are transport-blind.

    {!listen} and {!connect} set SIGPIPE to ignored for the whole process,
    and nothing restores it: a write to a peer that has gone raises
    [Unix_error (EPIPE, _, _)] on that connection instead of killing the
    process. *)

type t = Unix_path of string | Tcp of { host : string; port : int }

val parse : string -> (t, string) result
(** Total.  A bare string with no [unix:]/[tcp:] prefix is a Unix path —
    every pre-TCP spec keeps its meaning. *)

val of_string : string -> t
(** Raises [Invalid_argument] where {!parse} errors. *)

val to_string : t -> string
(** Canonical spec: the bare path for [Unix_path], [tcp:HOST:PORT] else. *)

val family : t -> Unix.socket_domain

val nodelay : Unix.file_descr -> unit
(** [TCP_NODELAY] where the transport has it; a no-op on Unix sockets. *)

val listen : ?backlog:int -> t -> Unix.file_descr
(** Bound, listening, non-blocking.  A [Unix_path] removes a stale socket
    file and creates parent directories first; [Tcp] sets [SO_REUSEADDR]. *)

val resolve_bound : t -> Unix.file_descr -> t
(** The endpoint actually bound: substitutes the kernel-chosen port when a
    [Tcp] spec asked for port 0.  Identity otherwise. *)

val cleanup : t -> unit
(** Unlink a [Unix_path] socket file; nothing for [Tcp]. *)

val connect : ?timeout_s:float -> t -> Unix.file_descr
(** Bounded non-blocking connect (default 5 s) with [TCP_NODELAY] applied;
    raises [Unix.Unix_error] when nobody listens, [Failure] on timeout. *)
