(* The serving IO core shared by [Server] and [Router]: one thread of control
   owns a listening socket and its client connections.  A [select] tick
   accepts, reads each readable connection in chunks, peels complete frames
   off its input buffer with the total [Protocol] decoder and hands them to
   the daemon's handler; between rounds the daemon's own work runs, then the
   reaper closes connections that went silent or stalled mid-frame.  Writes
   go through one bounded non-blocking writer.

   The [Robust.Faults] network hooks fire in exactly two places: before
   every client read (drop, then cap) and before every chunk of a bounded
   write.  Reads off a router's shard links ([pump] called directly) are
   hook-free.

   Clocks: [Robust.mono_now] only (DESIGN.md §12; lint-enforced). *)

(* --- incremental frame peeling ------------------------------------------ *)

(* Unconsumed input is [buf.[off .. len)].  Peeling advances [off]; the
   consumed prefix is compacted away once per append, so a large frame
   arriving in many chunks costs linear copying, not quadratic. *)
type inbuf = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let inbuf () = { buf = Bytes.create 1024; off = 0; len = 0 }
let buffered ib = ib.len - ib.off

let feed ib src pos n =
  let live = buffered ib in
  if ib.off > 0 then begin
    Bytes.blit ib.buf ib.off ib.buf 0 live;
    ib.off <- 0;
    ib.len <- live
  end;
  if live + n > Bytes.length ib.buf then begin
    let cap = ref (Bytes.length ib.buf) in
    while !cap < live + n do cap := 2 * !cap done;
    let b = Bytes.create !cap in
    Bytes.blit ib.buf 0 b 0 live;
    ib.buf <- b
  end;
  Bytes.blit src pos ib.buf ib.len n;
  ib.len <- ib.len + n

(* The next complete frame as [(msg, body, raw frame bytes)].  Only the
   header is decoded in place; the frame bytes are copied out once whole. *)
let peel ib =
  let have = buffered ib in
  let head = Bytes.sub_string ib.buf ib.off (min have Protocol.header_bytes) in
  let take n =
    let raw = Bytes.sub_string ib.buf ib.off n in
    ib.off <- ib.off + n;
    match Protocol.decode_frame raw with
    | `Frame (msg, body, _) -> `Frame (msg, body, raw)
    | `Need _ | `Bad _ -> assert false
  in
  match Protocol.decode_frame head with
  | `Bad reason -> `Bad reason
  | `Frame (_, _, n) -> take n
  | `Need more ->
      let n = String.length head + more in
      if have >= n then take n else `Need

(* --- connections ---------------------------------------------------------- *)

type 'a conn = {
  fd : Unix.file_descr;
  inbuf : inbuf;
  mutable alive : bool;
  mutable last_byte : float;  (* when the last byte arrived (or accept time) *)
  mutable partial_since : float;
      (* when the current incomplete frame started accumulating; 0.0 at a
         frame boundary (empty input buffer) *)
  data : 'a;  (* the daemon's per-connection state *)
}

let conn fd data =
  {
    fd;
    inbuf = inbuf ();
    alive = true;
    last_byte = Robust.mono_now ();
    partial_since = 0.0;
    data;
  }

let close c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* [select] takes fd_set bitmaps of FD_SETSIZE bits: an fd at or past it
   makes the call fail with EINVAL for the whole set, so such an fd must
   never join the watched set. *)
let fd_setsize = 1024
let selectable (fd : Unix.file_descr) = (Obj.magic fd : int) < fd_setsize

type event = Stalled | Reaped_idle | Reaped_trickle | Refused_fdset

type io = {
  idle_timeout_s : float;
  frame_timeout_s : float;
  log : string -> unit;
  count : event -> unit;
  chunk : Bytes.t;  (* the one read buffer of this loop *)
}

let io ~idle_timeout_s ~frame_timeout_s ~log ~count =
  {
    idle_timeout_s;
    frame_timeout_s;
    log;
    count;
    chunk = Bytes.create 65536;
  }

(* One chunked read of at most [cap] bytes into [c]'s buffer; [on_bytes]
   peels what arrived, then the partial-frame clock is updated for the
   reaper.  False on end of stream. *)
let pump io ~cap c on_bytes =
  match Unix.read c.fd io.chunk 0 (min cap (Bytes.length io.chunk)) with
  | 0 -> false
  | n ->
      c.last_byte <- Robust.mono_now ();
      feed c.inbuf io.chunk 0 n;
      on_bytes c;
      if buffered c.inbuf = 0 then c.partial_since <- 0.0
      else if c.partial_since = 0.0 then c.partial_since <- Robust.mono_now ();
      true
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true

(* A client read: the [Faults] hooks simulate a hostile network — a drop
   before the read, a capped (partial) read. *)
let read_client io c on_bytes =
  if Robust.Faults.net_drop_tick () then close c
  else
    let cap =
      match Robust.Faults.net_io_cap () with
      | Some cap -> cap
      | None -> Bytes.length io.chunk
    in
    if not (pump io ~cap c on_bytes) then close c

exception Write_stall

(* Bounded non-blocking write: the whole frame goes out, or the peer is
   declared stalled after 5 s of not draining.  Connection
   fds are permanently non-blocking, so a full socket buffer surfaces as
   EAGAIN and we wait for writability with the remaining budget — never
   for longer.  The [Faults] hooks simulate capped partial writes and a
   drop mid-frame. *)
let write_bounded fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let deadline = Robust.mono_now () +. 5.0 in
  let rec go off =
    if off < n then begin
      if Robust.Faults.net_drop_tick () then
        raise (Unix.Unix_error (Unix.EPIPE, "write", "injected drop"));
      let len = n - off in
      let len =
        match Robust.Faults.net_io_cap () with
        | Some cap -> min cap len
        | None -> len
      in
      match Unix.write fd b off len with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          let remaining = deadline -. Robust.mono_now () in
          if remaining <= 0.0 then raise Write_stall;
          (match Unix.select [] [ fd ] [] remaining with
          | _, [], _ -> raise Write_stall
          | _ -> ());
          go off
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0

(* A whole frame to a client, or the client is dropped: one that never
   drains is counted as a write stall, one that went away is just gone. *)
let send io c frame =
  if c.alive then
    match write_bounded c.fd frame with
    | () -> ()
    | exception Write_stall ->
        io.count Stalled;
        io.log "client not draining responses; dropping connection";
        close c
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        io.log "client went away mid-response";
        close c

(* Connection reaper: a connection stalled mid-frame (a trickler feeding a
   byte per tick, or a drop that left half a header) dies after
   [frame_timeout_s]; one that has sent nothing at all for [idle_timeout_s]
   dies too.  Both free their fd — neither can pin the fd set forever. *)
let reap io conns =
  let now = Robust.mono_now () in
  List.iter
    (fun c ->
      if c.alive then
        if c.partial_since > 0.0 && now -. c.partial_since > io.frame_timeout_s
        then begin
          io.count Reaped_trickle;
          io.log "reaped connection stalled mid-frame";
          close c
        end
        else if now -. c.last_byte > io.idle_timeout_s then begin
          io.count Reaped_idle;
          io.log "reaped idle connection";
          close c
        end)
    conns

(* Drain the listen backlog.  Connection fds stay non-blocking for their
   whole life: reads can spuriously EAGAIN and writes go through the
   bounded writer.  An fd [select] cannot watch is refused at once. *)
let accept_all io listen_fd data conns =
  let rec go acc =
    match Unix.accept listen_fd with
    | fd, _ when not (selectable fd) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        io.count Refused_fdset;
        io.log "refused a connection: fd past FD_SETSIZE";
        go acc
    | fd, _ ->
        Unix.set_nonblock fd;
        Addr.nodelay fd;
        go (conn fd (data ()) :: acc)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> acc
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc
  in
  go conns

let run io ~endpoint ~on_listen ~stopping ~accept ~on_bytes ~links
    ~after_round ~on_exit =
  let addr = Addr.of_string endpoint in
  let listen_fd = Addr.listen addr in
  let addr = Addr.resolve_bound addr listen_fd in
  on_listen (Addr.to_string addr);
  let conns = ref [] in
  let finally () =
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Addr.cleanup addr;
    List.iter close !conns;
    on_exit ()
  in
  (* The select timeout doubles as the reaper tick: fine-grained enough to
     honor short test timeouts, never busier than once per 20 ms. *)
  let tick =
    Float.max 0.02
      (Float.min 1.0 (Float.min io.idle_timeout_s io.frame_timeout_s /. 4.0))
  in
  Fun.protect ~finally (fun () ->
      while not (stopping ()) do
        conns := List.filter (fun c -> c.alive) !conns;
        let links = links () in
        let fds =
          (listen_fd :: List.map (fun c -> c.fd) !conns) @ List.map fst links
        in
        match Unix.select fds [] [] tick with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
            if List.mem listen_fd readable then
              conns := accept_all io listen_fd accept !conns;
            (* Links first: on a router they settle slots and free pending
               budget before new client queries are considered. *)
            List.iter
              (fun (fd, on_readable) ->
                if List.mem fd readable then on_readable ())
              links;
            List.iter
              (fun c ->
                if c.alive && List.mem c.fd readable then
                  read_client io c on_bytes)
              !conns;
            after_round ();
            reap io !conns
      done)
