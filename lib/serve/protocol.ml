(* The `waco serve` wire protocol: length-prefixed, versioned frames over a
   Unix-domain socket.

   Every frame is a 10-byte header followed by the payload:

     offset 0..3   magic "WSRV"
     offset 4      protocol version (this build speaks 1)
     offset 5      message type
     offset 6..9   payload length, big-endian unsigned 32-bit

   The decoder is total: any byte sequence yields [`Frame]/[`Need]/[`Bad],
   never an exception, so a malicious or truncated client can at worst get
   its own connection dropped.  Payload bodies are line-oriented key=value
   text (the repo's house style for artifacts), parsed with the same
   no-exceptions discipline. *)

let magic = "WSRV"
let version = 1

(* Largest payload a peer may send: bounds a hostile length field before any
   allocation happens.  16 MiB fits an inline matrix of ~500k nonzeros. *)
let max_payload = 16 * 1024 * 1024

let header_bytes = 10

(* --- message types (one byte on the wire) --- *)

let msg_query = 1
let msg_stats = 2
let msg_ping = 3
let msg_shutdown = 4
let msg_answer = 129
let msg_stats_json = 130
let msg_pong = 131
let msg_bye = 132
let msg_busy = 133
let msg_error = 192

(* --- framing --- *)

let encode_frame ~msg body =
  let n = String.length body in
  if n > max_payload then invalid_arg "Protocol.encode_frame: payload too large";
  let b = Bytes.create (header_bytes + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set b 5 (Char.chr (msg land 0xFF));
  Bytes.set b 6 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 7 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 8 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 9 (Char.chr (n land 0xFF));
  Bytes.blit_string body 0 b header_bytes n;
  Bytes.unsafe_to_string b

type progress =
  [ `Frame of int * string * int  (** (msg type, body, bytes consumed) *)
  | `Need of int  (** incomplete; at least this many more bytes *)
  | `Bad of string  (** unrecoverable framing damage; drop the connection *)
  ]

let decode_frame (buf : string) : progress =
  let have = String.length buf in
  if have < header_bytes then
    (* Reject a wrong magic as soon as the prefix can't match, so garbage
       connections die on their first bytes rather than stalling forever. *)
    if have > 0 && not (String.starts_with ~prefix:(String.sub buf 0 (min have 4)) magic)
    then `Bad "bad magic"
    else `Need (header_bytes - have)
  else if String.sub buf 0 4 <> magic then `Bad "bad magic"
  else
    let v = Char.code buf.[4] in
    if v <> version then `Bad (Printf.sprintf "protocol version %d (this build speaks %d)" v version)
    else
      let msg = Char.code buf.[5] in
      let len =
        (Char.code buf.[6] lsl 24)
        lor (Char.code buf.[7] lsl 16)
        lor (Char.code buf.[8] lsl 8)
        lor Char.code buf.[9]
      in
      if len > max_payload then
        `Bad (Printf.sprintf "declared payload of %d bytes exceeds the %d limit" len max_payload)
      else if have < header_bytes + len then `Need (header_bytes + len - have)
      else `Frame (msg, String.sub buf header_bytes len, header_bytes + len)

(* --- request bodies --- *)

type source =
  | Path of string  (** a MatrixMarket file the daemon can read *)
  | Inline of { nrows : int; ncols : int; entries : (int * int * float) array }
  | Matrix of Sptensor.Coo.t

type query = {
  qid : string;
  source : source;
  measure : bool;
  deadline_ms : int;  (* 0 = no deadline; omitted on the wire when 0 *)
  kernel : Waco.Kernel.t option;
      (* None = omitted on the wire: a pre-kernel client, served the daemon's
         default slot.  An unrecognized kernel name is a decode Error, never
         a silent default. *)
}

type request = Query of query | Stats | Ping | Shutdown

(* Bound on inline entries independent of byte size, so a tiny frame cannot
   declare a huge entry count and stall the parser. *)
let max_inline_nnz = 1_000_000

(* Bound on a declared deadline so arithmetic on arrival + deadline can
   never overflow or go absurd: one hour. *)
let max_deadline_ms = 3_600_000

(* One entry line: [string_of_int] coordinates and a "%h" hex-float value —
   bit-exact like the old "%.17g" (the decoder's [float_of_string] accepts
   both grammars) but formatted by mantissa bit manipulation instead of a
   ~600ns decimal conversion. *)
let add_entry buf r c v =
  Buffer.add_string buf (string_of_int r);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int c);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Printf.sprintf "%h" v);
  Buffer.add_char buf '\n'

let encode_query (q : query) =
  let buf =
    Buffer.create
      (match q.source with
      (* Entry lines run ~26 bytes ("r c " plus a %h float); sizing the
         buffer up front keeps the encoder from doubling-and-copying its way
         through a large inline matrix. *)
      | Inline { entries; _ } -> 64 + (32 * Array.length entries)
      | Matrix m -> 64 + (32 * Sptensor.Coo.nnz m)
      | Path _ -> 256)
  in
  if String.contains q.qid '\n' then invalid_arg "Protocol.encode_query: id with newline";
  Printf.bprintf buf "id=%s\n" q.qid;
  Printf.bprintf buf "measure=%d\n" (if q.measure then 1 else 0);
  (match q.kernel with
  | Some k -> Printf.bprintf buf "kernel=%s\n" (Waco.Kernel.name k)
  | None -> ());
  if q.deadline_ms > 0 then Printf.bprintf buf "deadline_ms=%d\n" q.deadline_ms;
  let inline_header nrows ncols nnz =
    Printf.bprintf buf "source=inline\ndims=%d %d\nnnz=%d\n" nrows ncols nnz
  in
  (match q.source with
  | Path p ->
      if String.contains p '\n' then invalid_arg "Protocol.encode_query: path with newline";
      Printf.bprintf buf "source=path\npath=%s\n" p
  | Inline { nrows; ncols; entries } ->
      inline_header nrows ncols (Array.length entries);
      Array.iter (fun (r, c, v) -> add_entry buf r c v) entries
  | Matrix m ->
      inline_header m.Sptensor.Coo.nrows m.Sptensor.Coo.ncols (Sptensor.Coo.nnz m);
      for k = 0 to Sptensor.Coo.nnz m - 1 do
        add_entry buf m.Sptensor.Coo.rows.(k) m.Sptensor.Coo.cols.(k)
          m.Sptensor.Coo.vals.(k)
      done);
  Buffer.contents buf

let request_to_frame = function
  | Query q -> encode_frame ~msg:msg_query (encode_query q)
  | Stats -> encode_frame ~msg:msg_stats ""
  | Ping -> encode_frame ~msg:msg_ping ""
  | Shutdown -> encode_frame ~msg:msg_shutdown ""

(* key=value line split; Error for a line without '='. *)
let kv line =
  match String.index_opt line '=' with
  | Some i ->
      Ok (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  | None -> Error (Printf.sprintf "malformed line %S (expected key=value)" line)

let ( let* ) r f = Result.bind r f

(* A query body is scanned in one forward pass over the raw string: the
   header's key=value lines, then the entry lines straight into the
   columns of the decoded matrix.  Empty lines are skipped (and not counted
   against nnz), the header ends at the first non-empty line without '=',
   duplicate header keys resolve to the last occurrence, and entry lines
   are strict single-space three-field records. *)

(* End of the line starting at [i]: the next '\n', or the end of the body. *)
let line_end body i =
  match String.index_from_opt body i '\n' with
  | Some j -> j
  | None -> String.length body

(* Count the non-empty lines from [i] to the end of the body. *)
let count_lines body i =
  let n = String.length body in
  let rec go acc i =
    if i >= n then acc
    else
      let j = line_end body i in
      go (if j = i then acc else acc + 1) (j + 1)
  in
  go 0 i

(* Coordinate token [i, j) through [int_of_string_opt] on the substring, so
   the accepted grammar ("0x1f", "1_000", "+3"...) is exactly the stdlib's
   (the encoder's plain digit runs parse in place in [decode_entries]).
   Returns a negative sentinel on failure: the caller's [>= 0] bounds check
   rejects it just as it rejects a parsed negative. *)
let parse_coord body i j =
  match int_of_string_opt (String.sub body i (j - i)) with
  | Some v -> v
  | None -> min_int

(* Parse one entry line [i, j): "r c v", exactly two spaces, the same field
   boundaries [String.split_on_char ' '] produced (so "1  2 3" and trailing
   spaces fail identically); the value goes through [float_of_string_opt] on
   the substring (exact stdlib rounding and grammar).  [store] receives the
   validated triple; any malformation answers the old "bad entry" message. *)
let parse_entry body i j ~nrows ~ncols ~store =
  let bad () = Error (Printf.sprintf "bad entry %S" (String.sub body i (j - i))) in
  match String.index_from_opt body i ' ' with
  | Some s1 when s1 < j -> (
      match String.index_from_opt body (s1 + 1) ' ' with
      | Some s2 when s2 < j -> (
          match String.index_from_opt body (s2 + 1) ' ' with
          | Some s3 when s3 < j -> bad ()
          | _ ->
              let r = parse_coord body i s1 in
              let c = parse_coord body (s1 + 1) s2 in
              if r >= 0 && r < nrows && c >= 0 && c < ncols then
                match
                  float_of_string_opt (String.sub body (s2 + 1) (j - s2 - 1))
                with
                | Some v when Float.is_finite v ->
                    store r c v;
                    Ok ()
                | _ -> bad ()
              else bad ())
      | _ -> bad ())
  | _ -> bad ()

(* Shortest entry line: "r c v" and its newline. *)
let min_entry_bytes = 6

(* Decode the entry block from [off] into the columns of a [Matrix]: one
   pass, no line count first and no triplet array.  Lines in the encoder's
   own shape — decimal coordinates of at most 18 digits, single spaces, one
   value with no spaces — parse in place, the value through
   [float_of_string_opt] on its substring; every other line goes through
   [parse_entry], so the accepted grammar and every error string are the
   line-by-line ones.  As when lines were counted before parsing, a wrong
   entry count beats a malformed line: on the first bad line the rest of
   the body is counted, and the count error wins if there is one.

   The columns are sized by what the body can hold, never by the claim
   alone: [nnz] lines take at least [min_entry_bytes * nnz - 1] bytes, so a
   tiny body declaring a huge [nnz] allocates a few words, and a line that
   parses always finds a free slot.  The bound-checked stores below cannot
   fail for the same reason. *)
let decode_entries body off ~nrows ~ncols ~nnz =
  let n = String.length body in
  let cap = min nnz ((n - off + 1) / min_entry_bytes) in
  let rows = Array.make cap 0 and cols = Array.make cap 0 in
  let vals = Array.make cap 0.0 in
  let count_error have = Error (Printf.sprintf "nnz=%d but %d entry lines" nnz have) in
  (* The verdict once line [k] (starting at [i]) is malformed with [err]. *)
  let fail k i err =
    let have = k + count_lines body i in
    if have <> nnz then count_error have else err
  in
  let is_digit c = c >= '0' && c <= '9' in
  let rec scan k i =
    if i >= n then
      if k = nnz then Ok (Matrix (Sptensor.Coo.of_columns ~nrows ~ncols rows cols vals))
      else count_error k
    else if String.unsafe_get body i = '\n' then scan k (i + 1)
    else if k >= cap then
      (* More lines than declared (the count error wins), or than the body
         can hold, where this line cannot parse and its error is the
         verdict if the count is right. *)
      fail k i
        (match parse_entry body i (line_end body i) ~nrows ~ncols ~store:(fun _ _ _ -> ()) with
        | Error _ as e -> e
        | Ok () -> count_error (k + count_lines body i))
    else begin
      (* Fast path: the encoder's own line shape.  Coordinates of at most
         18 digits cannot overflow the accumulators. *)
      let p = ref i and r = ref 0 and c = ref 0 in
      while !p < n && is_digit (String.unsafe_get body !p) do
        r := (!r * 10) + (Char.code (String.unsafe_get body !p) - 48);
        incr p
      done;
      let rlen = !p - i and cs = !p + 1 in
      let fast = ref (rlen >= 1 && rlen <= 18 && !p < n && String.unsafe_get body !p = ' ') in
      if !fast then begin
        p := cs;
        while !p < n && is_digit (String.unsafe_get body !p) do
          c := (!c * 10) + (Char.code (String.unsafe_get body !p) - 48);
          incr p
        done;
        fast :=
          !p - cs >= 1 && !p - cs <= 18 && !p < n
          && String.unsafe_get body !p = ' '
          && !r < nrows && !c < ncols
      end;
      let vs = !p + 1 in
      if !fast then begin
        p := vs;
        while
          !p < n
          && (let ch = String.unsafe_get body !p in
              ch <> '\n' && ch <> ' ')
        do
          incr p
        done;
        fast := !p > vs && (!p = n || String.unsafe_get body !p = '\n')
      end;
      match if !fast then float_of_string_opt (String.sub body vs (!p - vs)) else None with
      | Some v when Float.is_finite v ->
          rows.(k) <- !r;
          cols.(k) <- !c;
          vals.(k) <- v;
          scan (k + 1) (!p + 1)
      | _ -> (
          let j = line_end body i in
          match
            parse_entry body i j ~nrows ~ncols ~store:(fun r c v ->
                rows.(k) <- r;
                cols.(k) <- c;
                vals.(k) <- v)
          with
          | Ok () -> scan (k + 1) (j + 1)
          | Error _ as e -> fail k i e)
    end
  in
  scan 0 off

let decode_query body : (query, string) result =
  let n = String.length body in
  (* Header phase: key=value lines until the first non-empty line without
     '=' (where the entry lines start).  Fields accumulate most-recent
     first, so [List.assoc_opt] resolves duplicates to the last occurrence
     exactly as before. *)
  let rec header acc i =
    if i >= n then Ok (acc, n)
    else
      let j = line_end body i in
      if j = i then header acc (j + 1)
      else
        match String.index_from_opt body i '=' with
        | Some e when e < j ->
            header
              ((String.sub body i (e - i), String.sub body (e + 1) (j - e - 1))
              :: acc)
              (j + 1)
        | _ -> Ok (acc, i)
  in
  let* fields, entry_off = header [] 0 in
  let field k = List.assoc_opt k fields in
  let qid = Option.value ~default:"" (field "id") in
  let* measure =
    match field "measure" with
    | None | Some "1" -> Ok true
    | Some "0" -> Ok false
    | Some other -> Error (Printf.sprintf "measure=%s (expected 0 or 1)" other)
  in
  let* kernel =
    match field "kernel" with
    | None -> Ok None
    | Some s -> (
        match Waco.Kernel.of_name s with
        | Some k -> Ok (Some k)
        | None ->
            Error
              (Printf.sprintf
                 "kernel=%s (expected one of %s)" s
                 (String.concat ", " (List.map Waco.Kernel.name Waco.Kernel.all))))
  in
  let* deadline_ms =
    match field "deadline_ms" with
    | None -> Ok 0
    | Some s -> (
        match int_of_string_opt s with
        | Some d when d >= 0 && d <= max_deadline_ms -> Ok d
        | _ ->
            Error
              (Printf.sprintf "deadline_ms=%s (expected 0..%d)" s max_deadline_ms))
  in
  let* source =
    match field "source" with
    | Some "path" -> (
        match field "path" with
        | Some p when p <> "" -> Ok (Path p)
        | _ -> Error "source=path without a path field")
    | Some "inline" -> (
        match (field "dims", field "nnz") with
        | Some dims, Some nnz_s -> (
            let* nrows, ncols =
              match String.split_on_char ' ' dims with
              | [ r; c ] -> (
                  match (int_of_string_opt r, int_of_string_opt c) with
                  | Some r, Some c when r >= 1 && c >= 1 -> Ok (r, c)
                  | _ -> Error (Printf.sprintf "bad dims %S" dims))
              | _ -> Error (Printf.sprintf "bad dims %S" dims)
            in
            match int_of_string_opt nnz_s with
            | Some nnz when nnz >= 0 && nnz <= max_inline_nnz ->
                decode_entries body entry_off ~nrows ~ncols ~nnz
            | _ -> Error (Printf.sprintf "bad nnz %S" nnz_s))
        | _ -> Error "source=inline needs dims and nnz fields")
    | Some other -> Error (Printf.sprintf "unknown source %S" other)
    | None -> Error "missing source field"
  in
  Ok { qid; source; measure; deadline_ms; kernel }

let request_of_frame ~msg body : (request, string) result =
  if msg = msg_query then
    let* q = decode_query body in
    Ok (Query q)
  else if msg = msg_stats then Ok Stats
  else if msg = msg_ping then Ok Ping
  else if msg = msg_shutdown then Ok Shutdown
  else Error (Printf.sprintf "unknown request type %d" msg)

(* --- response bodies --- *)

(* One request's trace in seconds per phase.  An all-float record is one
   flat block of four unboxed floats: a client that keeps every answer
   keeps 5 words of trace per answer, not a list of named pairs. *)
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
  spans : span;
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

let encode_answer (a : answer) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "schedule=%s\n" a.schedule;
  (* Hex floats, like the query entry lines: bit-exact and cheap to format;
     [decode_answer]'s [float_of_string_opt] reads either grammar. *)
  Printf.bprintf buf "predicted=%h\n" a.predicted;
  Printf.bprintf buf "measured=%h\n" a.measured;
  Printf.bprintf buf "cache=%s\n" (if a.cache_hit then "hit" else "miss");
  Printf.bprintf buf "degraded=%d\n" (if a.degraded then 1 else 0);
  (match a.degraded_reason with
  | Some r -> Printf.bprintf buf "reason=%s\n" (String.map (fun c -> if c = '\n' then ' ' else c) r)
  | None -> ());
  (* The wire keeps one named line per phase, in phase order. *)
  let s = a.spans in
  Printf.bprintf buf "span.parse=%h\nspan.extract=%h\nspan.traverse=%h\nspan.measure=%h\n"
    s.parse_s s.extract_s s.traverse_s s.measure_s;
  Buffer.contents buf

let response_to_frame = function
  | Answer a -> encode_frame ~msg:msg_answer (encode_answer a)
  | Stats_json j -> encode_frame ~msg:msg_stats_json j
  | Pong -> encode_frame ~msg:msg_pong ""
  | Bye -> encode_frame ~msg:msg_bye ""
  | Busy { retry_after_ms } ->
      encode_frame ~msg:msg_busy
        (Printf.sprintf "retry_after_ms=%d\n" retry_after_ms)
  | Error_msg m -> encode_frame ~msg:msg_error m

let decode_answer body : (answer, string) result =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  let* fields =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let* p = kv line in
        Ok (p :: acc))
      (Ok []) lines
  in
  let fields = List.rev fields in
  let field k = List.assoc_opt k fields in
  let* schedule =
    match field "schedule" with
    | Some s -> Ok s
    | None -> Error "answer without a schedule"
  in
  let fget k default =
    match field k with
    | Some s -> ( match float_of_string_opt s with Some v -> v | None -> default)
    | None -> default
  in
  (* A phase missing from the body, or unreadable, reads 0 seconds. *)
  let spans =
    {
      parse_s = fget "span.parse" 0.0;
      extract_s = fget "span.extract" 0.0;
      traverse_s = fget "span.traverse" 0.0;
      measure_s = fget "span.measure" 0.0;
    }
  in
  Ok
    {
      schedule;
      predicted = fget "predicted" Float.nan;
      measured = fget "measured" Float.nan;
      cache_hit = field "cache" = Some "hit";
      degraded = field "degraded" = Some "1";
      degraded_reason = field "reason";
      spans;
    }

let decode_busy body : (response, string) result =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  let* fields =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let* p = kv line in
        Ok (p :: acc))
      (Ok []) lines
  in
  match List.assoc_opt "retry_after_ms" fields with
  | Some s -> (
      match int_of_string_opt s with
      | Some r when r >= 0 -> Ok (Busy { retry_after_ms = r })
      | _ -> Error (Printf.sprintf "bad retry_after_ms %S" s))
  | None -> Error "busy response without retry_after_ms"

let response_of_frame ~msg body : (response, string) result =
  if msg = msg_answer then
    let* a = decode_answer body in
    Ok (Answer a)
  else if msg = msg_stats_json then Ok (Stats_json body)
  else if msg = msg_pong then Ok Pong
  else if msg = msg_bye then Ok Bye
  else if msg = msg_busy then decode_busy body
  else if msg = msg_error then Ok (Error_msg body)
  else Error (Printf.sprintf "unknown response type %d" msg)
