(* Listen/connect endpoint specs for the serving tier.  One string syntax is
   shared by every daemon-facing flag: a bare path or [unix:PATH] is a
   Unix-domain socket (the default, and the only transport before the shard
   tier existed); [tcp:HOST:PORT] is a TCP endpoint, with [PORT] 0 asking
   the kernel for an ephemeral port (tests read the bound port back with
   {!resolve_bound}).  Everything above the fd — framing, reapers,
   backpressure, deadlines — is transport-blind, so both transports share
   every robustness property. *)

type t = Unix_path of string | Tcp of { host : string; port : int }

let parse spec =
  let tcp rest =
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp endpoint %S: want tcp:HOST:PORT" rest)
    | Some i -> (
        let host = String.sub rest 0 i in
        let host = if host = "" then "0.0.0.0" else host in
        match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
        | Some p when p >= 0 && p <= 65535 -> Ok (Tcp { host; port = p })
        | _ -> Error (Printf.sprintf "tcp endpoint %S: bad port" rest))
  in
  if spec = "" then Error "empty endpoint spec"
  else if String.length spec >= 4 && String.sub spec 0 4 = "tcp:" then
    tcp (String.sub spec 4 (String.length spec - 4))
  else if String.length spec >= 5 && String.sub spec 0 5 = "unix:" then
    Ok (Unix_path (String.sub spec 5 (String.length spec - 5)))
  else Ok (Unix_path spec)

let of_string spec =
  match parse spec with
  | Ok a -> a
  | Error e -> invalid_arg ("Addr.of_string: " ^ e)

let to_string = function
  | Unix_path p -> p
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let inet_addr_of host =
  match Unix.inet_addr_of_string host with
  | a -> a
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith (Printf.sprintf "Addr: host %s resolves to nothing" host)
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found ->
          failwith (Printf.sprintf "Addr: unknown host %s" host))

(* Raises [Failure] on an unknown [Tcp] host. *)
let sockaddr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp { host; port } -> Unix.ADDR_INET (inet_addr_of host, port)

let family = function
  | Unix_path _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

(* Nagle off where it applies: the protocol is small request/response frames
   and the router pipelines them, so coalescing delay is pure added latency.
   A Unix-domain socket has no such option; the EOPNOTSUPP is expected. *)
let nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

(* A write to a peer that has gone must surface as [Unix_error EPIPE] on
   that one connection, not kill the whole process with SIGPIPE.  Every
   socket the serving tier opens comes from [listen] or [connect], so both
   set the process-wide disposition, and nothing restores it: a daemon
   leaving its loop must not re-arm the signal under a client still
   writing in the same process. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let listen ?(backlog = 64) t =
  ignore_sigpipe ();
  (match t with
  | Unix_path p ->
      (try if Sys.file_exists p then Sys.remove p with Sys_error _ -> ());
      Robust.mkdir_p (Filename.dirname p)
  | Tcp _ -> ());
  let fd = Unix.socket (family t) Unix.SOCK_STREAM 0 in
  try
    (match t with
    | Unix_path _ -> ()
    | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
    Unix.bind fd (sockaddr t);
    Unix.listen fd backlog;
    Unix.set_nonblock fd;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let resolve_bound t fd =
  match t with
  | Unix_path _ -> t
  | Tcp { host; port } -> (
      if port <> 0 then t
      else
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Tcp { host; port = p }
        | _ -> t)

let cleanup = function
  | Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
  | Tcp _ -> ()

(* Bounded non-blocking connect, shared by the query client and the router's
   shard links: never an unbounded hang on a dead or unreachable peer. *)
let connect ?(timeout_s = 5.0) t =
  ignore_sigpipe ();
  let fd = Unix.socket (family t) Unix.SOCK_STREAM 0 in
  try
    Unix.set_nonblock fd;
    (match Unix.connect fd (sockaddr t) with
    | () -> ()
    | exception
        Unix.Unix_error
          ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ fd ] [] (Float.max 0.0 timeout_s) with
        | _, [ _ ], _ -> (
            match Unix.getsockopt_error fd with
            | None -> ()
            | Some err -> raise (Unix.Unix_error (err, "connect", to_string t)))
        | _ ->
            failwith
              (Printf.sprintf "Addr.connect: %s: no answer in %.1fs"
                 (to_string t) timeout_s)));
    Unix.clear_nonblock fd;
    nodelay fd;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e
