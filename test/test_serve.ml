(* Serving-daemon tests: the wire protocol's total decoder (fuzzed), the
   sparsity fingerprint, the LRU schedule cache and its crash-safe
   persistence, the request scheduler's dedup/batching, model/index
   compatibility validation (load-time and lint-time, WACO-A008), and a
   forked end-to-end daemon: concurrent clients get identical schedules, a
   second round answers from cache, and a SIGKILLed daemon restarts warm
   from the persisted snapshot without a single index traversal. *)

open Sptensor
open Schedule
open Machine_model

let algo = Algorithm.Spmm 256
let machine = Machine.intel_like

(* --- tmp-dir helpers -------------------------------------------------- *)

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Robust.mkdir_p d;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Transport parametrization: WACO_TEST_TRANSPORT=tcp (the @tcp alias)
   reruns this whole suite with every daemon listening on 127.0.0.1
   instead of a Unix socket — the two transports must satisfy the same
   contract.  The port is derived from the would-be socket path's hash:
   subprocess daemons cannot report a kernel-chosen port back to the
   test, and the path already carries a per-test random tmpdir. *)
let tcp_transport = Sys.getenv_opt "WACO_TEST_TRANSPORT" = Some "tcp"

let endpoint_of_path path =
  if tcp_transport then
    Printf.sprintf "tcp:127.0.0.1:%d" (20000 + (Hashtbl.hash path mod 20000))
  else path

let endpoint_in dir name = endpoint_of_path (Filename.concat dir name)

(* Transport-blind "nothing is listening there anymore": the Unix socket
   file is gone, or the TCP connect is refused. *)
let endpoint_unbound ep =
  if tcp_transport then
    match Serve.Client.connect ~timeout_s:0.5 ep with
    | c ->
        Serve.Client.close c;
        false
    | exception (Unix.Unix_error _ | Failure _) -> true
  else not (Sys.file_exists ep)

(* A raw connected fd on either transport, for the hostile-bytes tests. *)
let raw_connect ep = Serve.Addr.connect (Serve.Addr.of_string ep)

(* --- shared fixture: an untrained (but deterministic) model + index ---- *)

let fixture =
  lazy
    (let model = Waco.Costmodel.create (Rng.create 11) algo in
     let rng = Rng.create 3 in
     let corpus =
       Array.init 64 (fun _ -> Space.sample rng algo ~dims:[| 48; 48 |])
     in
     let index = Waco.Tuner.build_index (Rng.create 7) model corpus in
     (model, index))

let small_matrix seed = Gen.uniform (Rng.create seed) ~nrows:48 ~ncols:48 ~nnz:220

let mk_server ?pool ?cache_capacity ?cache_file ?(socket = "unused.sock") () =
  let model, index = Lazy.force fixture in
  Serve.Server.create ?pool ?cache_capacity ?cache_file ~k:4 ~ef:16 ~model
    ~index ~index_file:"<fixture>" ~machine ~socket ()

(* Daemon trampoline: OCaml 5 forbids [Unix.fork] once any domain has ever
   been spawned (and the pool tests spawn some), so the e2e daemons are
   fresh processes of this same executable, selected by env var before
   Alcotest takes over.  The fixture is rebuilt from fixed seeds, so every
   incarnation carries identical model/index identity stamps. *)
let () =
  match Sys.getenv_opt "WACO_TEST_SERVE_SOCKET" with
  | None -> ()
  | Some socket ->
      (try
         let cache_file = Sys.getenv_opt "WACO_TEST_SERVE_CACHE" in
         let server = mk_server ?cache_file ~socket () in
         Serve.Server.run server
       with _ -> exit 1);
      exit 0

(* ====================================================================== *)
(* Protocol                                                               *)
(* ====================================================================== *)

let decode_request frame =
  match Serve.Protocol.decode_frame frame with
  | `Frame (msg, body, consumed) ->
      Alcotest.(check int) "whole frame consumed" (String.length frame) consumed;
      Serve.Protocol.request_of_frame ~msg body
  | `Need _ | `Bad _ -> Alcotest.fail "complete frame did not decode"

let test_request_roundtrip () =
  let reqs =
    [
      Serve.Protocol.Query
        {
          qid = "q1";
          source = Serve.Protocol.Path "/tmp/m.mtx";
          measure = true;
          deadline_ms = 0;
          kernel = None;
        };
      Serve.Protocol.Query
        {
          qid = "";
          source =
            Serve.Protocol.Inline
              {
                nrows = 3;
                ncols = 4;
                entries = [| (0, 0, 1.5); (2, 3, -2.25); (1, 1, 1e-30) |];
              };
          measure = false;
          deadline_ms = 250;
          kernel = None;
        };
      Serve.Protocol.Stats;
      Serve.Protocol.Ping;
      Serve.Protocol.Shutdown;
    ]
  in
  (* An inline body always decodes into a [Matrix]: an [Inline] request
     comes back as the matrix of its triplets, and a [Matrix] as itself. *)
  let decoded = function
    | Serve.Protocol.Query
        ({ source = Serve.Protocol.Inline { nrows; ncols; entries }; _ } as q) ->
        Serve.Protocol.Query
          {
            q with
            source = Serve.Protocol.Matrix (Coo.of_triplet_array ~nrows ~ncols entries);
          }
    | req -> req
  in
  List.iter
    (fun req ->
      match decode_request (Serve.Protocol.request_to_frame req) with
      | Ok req' ->
          Alcotest.(check bool) "request roundtrips" true (decoded req = req');
          Alcotest.(check bool) "decoded request re-encodes to a fixed point" true
            (decode_request (Serve.Protocol.request_to_frame req') = Ok req')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    reqs

let test_response_roundtrip () =
  let a =
    {
      Serve.Protocol.schedule = "algo=SpMM;splits=1,8";
      predicted = -1.25;
      measured = 3.5e-5;
      cache_hit = true;
      degraded = true;
      degraded_reason = Some "index was empty";
      spans = { parse_s = 0.25; extract_s = 0.5; traverse_s = 0.0; measure_s = 1e-7 };
    }
  in
  (match
     Serve.Protocol.decode_frame
       (Serve.Protocol.response_to_frame (Serve.Protocol.Answer a))
   with
  | `Frame (msg, body, _) -> (
      match Serve.Protocol.response_of_frame ~msg body with
      | Ok (Serve.Protocol.Answer a') ->
          Alcotest.(check bool) "answer roundtrips" true (a = a')
      | _ -> Alcotest.fail "answer did not decode")
  | _ -> Alcotest.fail "answer frame did not decode");
  (* A client may keep every answer it decodes: with a full schedule string
     and no reason, a decoded answer takes at most 31 heap words, 5 of them
     its trace (a list of named pairs made it 67). *)
  (match
     Serve.Protocol.decode_frame
       (Serve.Protocol.response_to_frame
          (Serve.Protocol.Answer
             {
               a with
               schedule =
                 "algo=SpMM;splits=1,8;order=0,2,1,3;par=0;threads=full;chunk=4;aorder=0,2,1,3;afmt=UCUU";
               degraded_reason = None;
             }))
   with
  | `Frame (msg, body, _) -> (
      match Serve.Protocol.response_of_frame ~msg body with
      | Ok (Serve.Protocol.Answer a') ->
          let words = Obj.reachable_words (Obj.repr a') in
          if words > 31 then Alcotest.failf "decoded answer takes %d heap words" words
      | _ -> Alcotest.fail "answer did not decode")
  | _ -> Alcotest.fail "answer frame did not decode");
  (* NaN measured (the predict-only path) survives the wire. *)
  let a_nan = { a with Serve.Protocol.measured = Float.nan } in
  (match
     Serve.Protocol.decode_frame
       (Serve.Protocol.response_to_frame (Serve.Protocol.Answer a_nan))
   with
  | `Frame (msg, body, _) -> (
      match Serve.Protocol.response_of_frame ~msg body with
      | Ok (Serve.Protocol.Answer a') ->
          Alcotest.(check bool) "NaN measured" true
            (Float.is_nan a'.Serve.Protocol.measured)
      | _ -> Alcotest.fail "NaN answer did not decode")
  | _ -> Alcotest.fail "NaN answer frame did not decode");
  List.iter
    (fun resp ->
      match
        Serve.Protocol.decode_frame (Serve.Protocol.response_to_frame resp)
      with
      | `Frame (msg, body, _) -> (
          match Serve.Protocol.response_of_frame ~msg body with
          | Ok resp' ->
              Alcotest.(check bool) "response roundtrips" true (resp = resp')
          | Error e -> Alcotest.failf "response decode: %s" e)
      | _ -> Alcotest.fail "response frame did not decode")
    [
      Serve.Protocol.Stats_json "{}";
      Serve.Protocol.Pong;
      Serve.Protocol.Bye;
      Serve.Protocol.Busy { retry_after_ms = 120 };
      Serve.Protocol.Error_msg "nope";
    ]

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.to_string b

let raw_header ?(magic = "WSRV") ?(version = Serve.Protocol.version) ~msg len =
  magic ^ String.make 1 (Char.chr version) ^ String.make 1 (Char.chr msg) ^ be32 len

let test_framing_damage () =
  let frame =
    Serve.Protocol.request_to_frame
      (Serve.Protocol.Query
         {
           qid = "t";
           source = Serve.Protocol.Path "m.mtx";
           measure = true;
           deadline_ms = 0;
           kernel = None;
         })
  in
  (* Every strict prefix of a valid frame is [`Need], never [`Bad] or a
     bogus [`Frame]. *)
  for i = 0 to String.length frame - 1 do
    match Serve.Protocol.decode_frame (String.sub frame 0 i) with
    | `Need n -> Alcotest.(check bool) "positive need" true (n > 0)
    | `Bad e -> Alcotest.failf "prefix %d rejected: %s" i e
    | `Frame _ -> Alcotest.failf "prefix %d produced a frame" i
  done;
  (* Wrong magic dies on the very first byte. *)
  (match Serve.Protocol.decode_frame "X" with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "bad magic byte 0 not rejected");
  (match Serve.Protocol.decode_frame (raw_header ~magic:"WSRX" ~msg:1 0) with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "bad magic not rejected");
  (* Wrong version. *)
  (match
     Serve.Protocol.decode_frame
       (raw_header ~version:(Serve.Protocol.version + 1) ~msg:1 0)
   with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "wrong version not rejected");
  (* A hostile length field is rejected before any allocation. *)
  (match
     Serve.Protocol.decode_frame
       (raw_header ~msg:1 (Serve.Protocol.max_payload + 1))
   with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "oversized payload not rejected");
  (* Unknown message type in a well-formed frame: a body-level error, not a
     crash. *)
  (match Serve.Protocol.request_of_frame ~msg:99 "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown request type accepted");
  (* The encoder refuses to build an over-limit frame. *)
  match
    Serve.Protocol.encode_frame ~msg:1
      (String.make (Serve.Protocol.max_payload + 1) 'x')
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized encode accepted"

(* The loop's incremental peeler against the reference: random request and
   response frames, concatenated, cut at random points (1-byte trickles,
   mid-header cuts, several frames per chunk) and fed piece by piece, must
   yield exactly the (msg, body, raw bytes) sequence of folding
   [Protocol.decode_frame] over the whole string — and, with a bad magic
   injected at a frame boundary, [`Bad] at exactly that frame. *)
let qcheck_peeler_matches_decoder =
  QCheck.Test.make ~name:"loop peeler = decode_frame fold (prop)" ~count:60
    QCheck.(pair small_nat (int_range 0 3))
    (fun (seed, mode) ->
      let rng = Rng.create (seed + 7) in
      let inline n =
        Serve.Protocol.Matrix
          (Coo.of_triplet_array ~nrows:64 ~ncols:64
             (Array.init n (fun i -> (i mod 64, (i * 7) mod 64, float_of_int i))))
      in
      let query source =
        Serve.Protocol.Query
          { qid = "p"; source; measure = true; deadline_ms = 0; kernel = None }
      in
      let random_frame () =
        match Rng.int rng 9 with
        | 0 -> Serve.Protocol.request_to_frame Serve.Protocol.Ping
        | 1 -> Serve.Protocol.request_to_frame Serve.Protocol.Stats
        | 2 -> Serve.Protocol.request_to_frame (query (Serve.Protocol.Path "m.mtx"))
        | 3 | 4 ->
            Serve.Protocol.request_to_frame (query (inline (Rng.int rng 600)))
        | 5 -> Serve.Protocol.response_to_frame Serve.Protocol.Pong
        | 6 ->
            Serve.Protocol.response_to_frame
              (Serve.Protocol.Busy { retry_after_ms = Rng.int rng 2000 })
        | 7 ->
            Serve.Protocol.response_to_frame
              (Serve.Protocol.Stats_json (String.make (Rng.int rng 3000) 'x'))
        | _ -> Serve.Protocol.response_to_frame (Serve.Protocol.Error_msg "e")
      in
      let frames = List.init (1 + Rng.int rng 8) (fun _ -> random_frame ()) in
      (* Mode 3 injects a bad magic at a random frame boundary. *)
      let bad_at =
        if mode = 3 then Some (Rng.int rng (List.length frames + 1)) else None
      in
      let bad =
        [| "XSRV"; "WSRX"; "WS\000V" |].(Rng.int rng 3)
        ^ "\001\001\000\000\000\000"
      in
      let parts =
        List.concat
          (List.mapi
             (fun i f -> if bad_at = Some i then [ bad; f ] else [ f ])
             frames)
        @ if bad_at = Some (List.length frames) then [ bad ] else []
      in
      let whole = String.concat "" parts in
      let rec reference s acc =
        match Serve.Protocol.decode_frame s with
        | `Frame (msg, body, n) ->
            reference
              (String.sub s n (String.length s - n))
              ((msg, body, String.sub s 0 n) :: acc)
        | `Need _ -> (List.rev acc, false)
        | `Bad _ -> (List.rev acc, true)
      in
      (* Cut points: a 1-byte trickle, small chunks that split headers, or
         chunks spanning several frames. *)
      let pieces =
        let n = String.length whole in
        let rec cut pos acc =
          if pos >= n then List.rev acc
          else
            let len =
              match mode with
              | 0 -> 1
              | 1 -> 1 + Rng.int rng 16
              | _ -> 1 + Rng.int rng 8192
            in
            let len = min len (n - pos) in
            cut (pos + len) (String.sub whole pos len :: acc)
        in
        cut 0 []
      in
      let ib = Serve.Loop.inbuf () in
      let got = ref [] and failed = ref false in
      List.iter
        (fun piece ->
          if not !failed then begin
            Serve.Loop.feed ib (Bytes.of_string piece) 0 (String.length piece);
            let rec go () =
              match Serve.Loop.peel ib with
              | `Frame f ->
                  got := f :: !got;
                  go ()
              | `Need -> ()
              | `Bad _ -> failed := true
            in
            go ()
          end)
        pieces;
      let expect_frames, expect_bad = reference whole [] in
      let n_before_bad =
        match bad_at with Some k -> k | None -> List.length frames
      in
      List.rev !got = expect_frames
      && !failed = expect_bad
      && expect_bad = (bad_at <> None)
      && List.length expect_frames = n_before_bad
      && (!failed || Serve.Loop.buffered ib = 0))

let test_inline_validation () =
  let decode_body body = Serve.Protocol.request_of_frame ~msg:Serve.Protocol.msg_query body in
  let expect_error label body =
    match decode_body body with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  expect_error "out-of-range coordinate"
    "source=inline\ndims=2 2\nnnz=1\n5 0 1.0\n";
  expect_error "non-finite value" "source=inline\ndims=2 2\nnnz=1\n0 0 nan\n";
  expect_error "entry count mismatch"
    "source=inline\ndims=2 2\nnnz=2\n0 0 1.0\n";
  expect_error "nonsense dims" "source=inline\ndims=0 2\nnnz=0\n";
  expect_error "huge nnz declaration"
    (Printf.sprintf "source=inline\ndims=2 2\nnnz=%d\n"
       (Serve.Protocol.max_inline_nnz + 1));
  expect_error "missing source" "id=x\n";
  expect_error "negative deadline"
    "source=path\npath=m.mtx\ndeadline_ms=-5\n";
  expect_error "non-numeric deadline"
    "source=path\npath=m.mtx\ndeadline_ms=soon\n";
  expect_error "over-limit deadline"
    (Printf.sprintf "source=path\npath=m.mtx\ndeadline_ms=%d\n"
       (Serve.Protocol.max_deadline_ms + 1));
  (match decode_body "source=path\npath=m.mtx\ndeadline_ms=250\n" with
  | Ok (Serve.Protocol.Query q) ->
      Alcotest.(check int) "deadline parsed" 250 q.Serve.Protocol.deadline_ms
  | _ -> Alcotest.fail "valid deadline rejected");
  match decode_body "source=inline\ndims=2 2\nnnz=1\n1 1 2.5\n" with
  | Ok (Serve.Protocol.Query { source = Serve.Protocol.Matrix m; _ }) ->
      Alcotest.(check int) "entries parsed" 1 (Coo.nnz m)
  | _ -> Alcotest.fail "valid inline body rejected"

(* The kernel= field: parsed into the typed option, round-tripped on the
   wire, and an unrecognized value is a decode error — never a silent
   default (a typo'd kernel must not be served an SpMV schedule). *)
let test_kernel_field () =
  let has s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let decode_body body =
    Serve.Protocol.request_of_frame ~msg:Serve.Protocol.msg_query body
  in
  (match decode_body "source=path\npath=m.mtx\nkernel=sddmm\n" with
  | Ok (Serve.Protocol.Query q) ->
      Alcotest.(check bool) "kernel parsed" true
        (q.Serve.Protocol.kernel = Some Waco.Kernel.Sddmm)
  | _ -> Alcotest.fail "valid kernel= rejected");
  (* Absent kernel= decodes to None — the old-client path. *)
  (match decode_body "source=path\npath=m.mtx\n" with
  | Ok (Serve.Protocol.Query q) ->
      Alcotest.(check bool) "absent kernel is None" true
        (q.Serve.Protocol.kernel = None)
  | _ -> Alcotest.fail "kernel-free query rejected");
  (* Unknown kernel name: an error naming the valid spellings. *)
  (match decode_body "source=path\npath=m.mtx\nkernel=conv2d\n" with
  | Error e ->
      Alcotest.(check bool) "error names the bad value" true (has e "conv2d");
      Alcotest.(check bool) "error lists valid kernels" true (has e "sddmm")
  | Ok _ -> Alcotest.fail "unknown kernel= silently accepted");
  (* Full wire roundtrip with a kernel set. *)
  let q =
    Serve.Protocol.Query
      {
        qid = "k";
        source = Serve.Protocol.Path "m.mtx";
        measure = true;
        deadline_ms = 0;
        kernel = Some Waco.Kernel.Spmv;
      }
  in
  match decode_request (Serve.Protocol.request_to_frame q) with
  | Ok q' -> Alcotest.(check bool) "kernel roundtrips" true (q = q')
  | Error e -> Alcotest.failf "kernel roundtrip failed: %s" e

(* The inline decoder's verdicts, body by body: every Ok matrix and every
   error string as recorded when entries were counted first and parsed into
   a triplet array.  The table covers the encoder's fast shape and each way
   out of it (double and trailing spaces, "0x1f"/"+3"/"1_000" coordinates,
   decimal, hex, inf and nan values, out-of-range coordinates, wrong entry
   counts, blank lines, unsorted and duplicate entries, CR line ends). *)
let render_coo (m : Coo.t) =
  let b = Buffer.create 64 in
  Printf.bprintf b "Ok %dx%d" m.Coo.nrows m.Coo.ncols;
  Coo.iter (fun i j v -> Printf.bprintf b " %d,%d,%h" i j v) m;
  Buffer.contents b

let verdict body =
  match Serve.Protocol.request_of_frame ~msg:Serve.Protocol.msg_query body with
  | Error e -> "Error " ^ e
  | Ok (Serve.Protocol.Query { source = Serve.Protocol.Matrix m; _ }) -> render_coo m
  | Ok _ -> "Ok other"

let decoder_verdicts =
  [
    ("source=inline\ndims=4 5\nnnz=3\n0 1 0x1.8p+0\n1 0 -0x1p-2\n3 4 0x1p+10\n",
     "Ok 4x5 0,1,0x1.8p+0 1,0,-0x1p-2 3,4,0x1p+10");
    ("source=inline\ndims=4 4\nnnz=1\n1  2 3\n",
     "Error bad entry \"1  2 3\"");
    ("source=inline\ndims=4 4\nnnz=1\n1 2 3 \n",
     "Error bad entry \"1 2 3 \"");
    ("source=inline\ndims=40 40\nnnz=1\n0x1f 2 1.0\n",
     "Ok 40x40 31,2,0x1p+0");
    ("source=inline\ndims=4 4\nnnz=1\n+3 2 1.0\n",
     "Ok 4x4 3,2,0x1p+0");
    ("source=inline\ndims=2000 2000\nnnz=1\n1_000 7 1.0\n",
     "Ok 2000x2000 1000,7,0x1p+0");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 1.25e-3\n",
     "Ok 2x2 0,0,0x1.47ae147ae147bp-10");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 -0x1.fffffffffffffp+1023\n",
     "Ok 2x2 0,0,-0x1.fffffffffffffp+1023");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 inf\n",
     "Error bad entry \"0 0 inf\"");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 nan\n",
     "Error bad entry \"0 0 nan\"");
    ("source=inline\ndims=2 2\nnnz=1\n2 0 1.0\n",
     "Error bad entry \"2 0 1.0\"");
    ("source=inline\ndims=2 2\nnnz=1\n0 -1 1.0\n",
     "Error bad entry \"0 -1 1.0\"");
    ("source=inline\ndims=2 2\nnnz=3\n0 0 1.0\n1 1 2.0\n",
     "Error nnz=3 but 2 entry lines");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 1.0\n1 1 2.0\n",
     "Error nnz=1 but 2 entry lines");
    ("source=inline\ndims=2 2\nnnz=2\n\n0 0 1.0\n\n\n1 1 2.0\n\n",
     "Ok 2x2 0,0,0x1p+0 1,1,0x1p+1");
    ("source=inline\ndims=3 3\nnnz=3\n2 2 1.0\n0 1 2.0\n1 0 3.0\n",
     "Ok 3x3 0,1,0x1p+1 1,0,0x1.8p+1 2,2,0x1p+0");
    ("source=inline\ndims=3 3\nnnz=3\n1 1 0.1\n0 0 1.0\n1 1 0.2\n",
     "Ok 3x3 0,0,0x1p+0 1,1,0x1.3333333333334p-2");
    ("source=inline\ndims=2 2\nnnz=1_000_000\n0 0 1.0\n",
     "Error nnz=1000000 but 1 entry lines");
    ("source=inline\ndims=2 2\nnnz=1\n0 0\n",
     "Error bad entry \"0 0\"");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 1.0 2.0\n",
     "Error bad entry \"0 0 1.0 2.0\"");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 1.0\r\n",
     "Error bad entry \"0 0 1.0\\r\"");
    ("source=inline\ndims=2 2\nnnz=1\n0000000000000000001 0 1.0\n",
     "Ok 2x2 1,0,0x1p+0");
    ("source=inline\ndims=2 2\nnnz=1\n999999999999999999999 0 1.0\n",
     "Error bad entry \"999999999999999999999 0 1.0\"");
    ("source=inline\ndims=2 2\nnnz=3\nx y z\n0 0 1\n",
     "Error nnz=3 but 2 entry lines");
    ("source=inline\ndims=2 2\nnnz=2\n0 0 1\nx y z\n",
     "Error bad entry \"x y z\"");
    ("source=inline\ndims=2 2\nnnz=0\n",
     "Ok 2x2");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 1",
     "Ok 2x2 0,0,0x1p+0");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 1_0.5\n",
     "Ok 2x2 0,0,0x1.5p+3");
    ("source=inline\ndims=2 2\nnnz=-1\n",
     "Error bad nnz \"-1\"");
    ("source=inline\ndims=2 2\nnnz=2\n0 0 1\nid=x\n",
     "Error bad entry \"id=x\"");
    ("source=inline\ndims=2 2\nnnz=1\n 0 0 1.0\n",
     "Error bad entry \" 0 0 1.0\"");
    ("source=inline\ndims=2 2\nnnz=1\n  \n",
     "Error bad entry \"  \"");
    ("source=inline\ndims=2 2\nnnz=2\n0 0 1\n0 1 1",
     "Ok 2x2 0,0,0x1p+0 0,1,0x1p+0");
    ("source=inline\ndims=2 2\nnnz=1\n0 0 \n",
     "Error bad entry \"0 0 \"");
    ("source=inline\ndims=0 2\nnnz=0\n",
     "Error bad dims \"0 2\"");
    ("source=inline\ndims=2 2\n0 0 1.0\n",
     "Error source=inline needs dims and nnz fields");
  ]

let test_decoder_verdicts () =
  List.iter
    (fun (body, want) -> Alcotest.(check string) (String.escaped body) want (verdict body))
    decoder_verdicts

(* A seeded query: random dims, up to 400 entries in any order with
   duplicates, values across normal, subnormal, huge and zero, and random
   header fields.  [query source] wraps a source in the seed's header. *)
let seeded_query seed =
  let rng = Rng.create seed in
  let nrows = 1 + Rng.int rng 300 in
  let ncols = 1 + Rng.int rng 300 in
  let n = Rng.int rng 400 in
  let value () =
    match Rng.int rng 5 with
    | 0 -> Rng.gaussian rng
    | 1 -> Rng.float rng *. 1e-310
    | 2 -> -.(Rng.float rng *. 1e300)
    | 3 -> float_of_int (Rng.int rng 100)
    | _ -> 0.0
  in
  let entries =
    Array.init n (fun _ ->
        let r = Rng.int rng nrows in
        let c = Rng.int rng ncols in
        let v = value () in
        (r, c, v))
  in
  let qid = Printf.sprintf "q%d" seed in
  let measure = Rng.bool rng in
  let deadline_ms = if Rng.bool rng then Rng.int rng 10000 else 0 in
  let kernel =
    match Rng.int rng 4 with
    | 0 -> None
    | _ -> Some (Rng.choose rng (Array.of_list Waco.Kernel.all))
  in
  ( nrows,
    ncols,
    entries,
    fun source ->
      Serve.Protocol.Query { qid; source; measure; deadline_ms; kernel } )

let seeded_answer seed =
  let rng = Rng.create seed in
  let schedule =
    Printf.sprintf "algo=SpMM;splits=%d,%d" (Rng.int rng 64) (Rng.int rng 64)
  in
  let predicted = Rng.gaussian rng in
  let measured = if Rng.bool rng then Float.nan else Rng.float rng *. 1e-3 in
  let cache_hit = Rng.bool rng in
  let degraded = Rng.bool rng in
  let degraded_reason = if Rng.bool rng then Some "deadline" else None in
  let parse_s = Rng.float rng in
  let extract_s = Rng.float rng in
  let traverse_s = Rng.float rng in
  let measure_s = Rng.float rng in
  {
    Serve.Protocol.schedule;
    predicted;
    measured;
    cache_hit;
    degraded;
    degraded_reason;
    spans = { parse_s; extract_s; traverse_s; measure_s };
  }

let frames_digest n frame_of =
  let b = Buffer.create 65536 in
  for seed = 1 to n do
    Buffer.add_string b (frame_of seed)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The wire is unchanged: seeded request frames of [Inline] triplets (in
   any order) and of [Matrix] sources, and seeded answer frames, hash to
   the digests recorded when answers carried their spans as a list of
   named pairs.  An [Inline] of a matrix's storage-order triplets and the
   [Matrix] itself encode to the very same bytes. *)
let test_frames_pinned () =
  let req_frame seed source_of =
    let nrows, ncols, entries, query = seeded_query seed in
    Serve.Protocol.request_to_frame (query (source_of ~nrows ~ncols entries))
  in
  let matrix ~nrows ~ncols entries = Coo.of_triplet_array ~nrows ~ncols entries in
  Alcotest.(check string) "Inline frames" "0bf29719b412ac9c2cd282a87d4b7655"
    (frames_digest 40 (fun seed ->
         req_frame seed (fun ~nrows ~ncols entries ->
             Serve.Protocol.Inline { nrows; ncols; entries })));
  Alcotest.(check string) "Matrix frames" "9dc6b41339b4dc068e7df4c5be7d320b"
    (frames_digest 40 (fun seed ->
         req_frame seed (fun ~nrows ~ncols entries ->
             Serve.Protocol.Matrix (matrix ~nrows ~ncols entries))));
  Alcotest.(check string) "Inline frames of a matrix's triplets"
    "9dc6b41339b4dc068e7df4c5be7d320b"
    (frames_digest 40 (fun seed ->
         req_frame seed (fun ~nrows ~ncols entries ->
             let m = matrix ~nrows ~ncols entries in
             Serve.Protocol.Inline
               { nrows; ncols; entries = Array.of_list (Coo.to_triplets m) })));
  Alcotest.(check string) "answer frames" "94f9bcf3ecd6e65fbc215a366d5f6466"
    (frames_digest 40 (fun seed ->
         Serve.Protocol.response_to_frame (Serve.Protocol.Answer (seeded_answer seed))))

(* Round trip: random triplets sent as [Inline] decode to the matrix
   [Coo.of_triplet_array] builds from them — sorted, duplicates summed in
   the same order — with every value equal bit for bit. *)
let qcheck_inline_decodes_to_matrix =
  QCheck.Test.make ~name:"Inline entries decode to their Matrix (prop)" ~count:200
    QCheck.small_nat (fun seed ->
      let nrows, ncols, entries, query = seeded_query (1000 + seed) in
      let want = Coo.of_triplet_array ~nrows ~ncols entries in
      match
        decode_request
          (Serve.Protocol.request_to_frame
             (query (Serve.Protocol.Inline { nrows; ncols; entries })))
      with
      | Ok (Serve.Protocol.Query { source = Serve.Protocol.Matrix m; _ }) ->
          let bits = Array.map Int64.bits_of_float in
          m.Coo.nrows = want.Coo.nrows && m.Coo.ncols = want.Coo.ncols
          && m.Coo.rows = want.Coo.rows && m.Coo.cols = want.Coo.cols
          && bits m.Coo.vals = bits want.Coo.vals
      | _ -> false)

(* Decoding holds no state between calls: two domains decoding the same
   bodies at once get the single-domain verdicts.  In a benchmark process
   the router and its shards decode on separate domains. *)
let test_decode_two_domains () =
  let bodies =
    Array.of_list
      (List.map fst decoder_verdicts
      @ List.init 30 (fun seed ->
            let nrows, ncols, entries, query = seeded_query (500 + seed) in
            match
              Serve.Protocol.decode_frame
                (Serve.Protocol.request_to_frame
                   (query (Serve.Protocol.Inline { nrows; ncols; entries })))
            with
            | `Frame (_, body, _) -> body
            | _ -> Alcotest.fail "seeded frame did not decode"))
  in
  let decode body =
    Serve.Protocol.request_of_frame ~msg:Serve.Protocol.msg_query body
  in
  let want = Array.map decode bodies in
  let run () =
    let same = ref true in
    for _ = 1 to 20 do
      Array.iteri (fun i b -> if decode b <> want.(i) then same := false) bodies
    done;
    !same
  in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 = single domain" true ok1;
  Alcotest.(check bool) "domain 2 = single domain" true ok2

(* A tiny body claiming a huge entry count is refused with the entry-count
   error, and no column sized by the claim is allocated first. *)
let test_decode_huge_nnz_claim () =
  let body = "id=big\nsource=inline\ndims=2 2\nnnz=1_000_000\n0 0 1.0\n0 1 2.0\n" in
  let before = Gc.allocated_bytes () in
  let got = verdict body in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check string) "entry-count error" "Error nnz=1000000 but 2 entry lines" got;
  if allocated >= 65536.0 then
    Alcotest.failf "decoding a %d-byte body allocated %.0f bytes" (String.length body)
      allocated

(* The decoder and body parsers must be total: random bytes can produce any
   verdict but never an exception. *)
let test_fuzz_total () =
  let rng = Rng.create 1234 in
  for _ = 1 to 4000 do
    let len = Rng.int rng 80 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    (match Serve.Protocol.decode_frame s with
    | `Frame _ | `Need _ | `Bad _ -> ());
    ignore (Serve.Protocol.request_of_frame ~msg:(Rng.int rng 256) s);
    ignore (Serve.Protocol.response_of_frame ~msg:(Rng.int rng 256) s)
  done;
  (* Mutated valid frames, too: flip one byte anywhere in a real frame. *)
  let frame =
    Serve.Protocol.request_to_frame
      (Serve.Protocol.Query
         {
           qid = "fuzz";
           source =
             Serve.Protocol.Matrix
               (Coo.of_triplet_array ~nrows:4 ~ncols:4 [| (1, 2, 0.5) |]);
           measure = true;
           deadline_ms = 0;
           kernel = None;
         })
  in
  for _ = 1 to 2000 do
    let b = Bytes.of_string frame in
    let i = Rng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Rng.int rng 256));
    match Serve.Protocol.decode_frame (Bytes.to_string b) with
    | `Frame (msg, body, _) -> ignore (Serve.Protocol.request_of_frame ~msg body)
    | `Need _ | `Bad _ -> ()
  done;
  (* Mutated entry blocks: bytes replaced, inserted or deleted, drawn from
     the characters the entry grammar turns on, under a declared count that
     is right, one off, or far too large.  The decoder must give exactly
     the verdict of a line-list reference: count the non-empty lines, then
     split each on ' ' into an in-range int, int and finite float. *)
  let reference ~nrows ~ncols ~nnz block =
    let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' block) in
    let have = List.length lines in
    if have <> nnz then Printf.sprintf "Error nnz=%d but %d entry lines" nnz have
    else
      let entry line =
        match String.split_on_char ' ' line with
        | [ r; c; v ] -> (
            match (int_of_string_opt r, int_of_string_opt c, float_of_string_opt v) with
            | Some r, Some c, Some v
              when r >= 0 && r < nrows && c >= 0 && c < ncols && Float.is_finite v ->
                Ok (r, c, v)
            | _ -> Error line)
        | _ -> Error line
      in
      let rec go acc = function
        | [] -> render_coo (Coo.of_triplet_array ~nrows ~ncols (Array.of_list (List.rev acc)))
        | l :: rest -> (
            match entry l with
            | Ok e -> go (e :: acc) rest
            | Error l -> Printf.sprintf "Error bad entry %S" l)
      in
      go [] lines
  in
  let alphabet = "0123456789  \n\n-+_xXp.eE\r\tinfa" in
  for _ = 1 to 3000 do
    let nrows = 1 + Rng.int rng 40 and ncols = 1 + Rng.int rng 40 in
    let n = Rng.int rng 6 in
    let block =
      Bytes.of_string
        (String.concat ""
           (List.init n (fun _ ->
                Printf.sprintf "%d %d %h\n" (Rng.int rng nrows) (Rng.int rng ncols)
                  (Rng.gaussian rng))))
    in
    let block = ref (Bytes.to_string block) in
    for _ = 0 to Rng.int rng 3 do
      let len = String.length !block in
      let at = Rng.int rng (len + 1) in
      let ch = String.make 1 alphabet.[Rng.int rng (String.length alphabet)] in
      block :=
        match Rng.int rng 3 with
        | 0 when at < len -> String.sub !block 0 at ^ ch ^ String.sub !block (at + 1) (len - at - 1)
        | 1 when at < len -> String.sub !block 0 at ^ String.sub !block (at + 1) (len - at - 1)
        | _ -> String.sub !block 0 at ^ ch ^ String.sub !block at (len - at)
    done;
    let nnz =
      match Rng.int rng 4 with
      | 0 -> n - 1
      | 1 -> n + 1
      | 2 -> 1 + Rng.int rng Serve.Protocol.max_inline_nnz
      | _ -> n
    in
    if nnz >= 0 then begin
      let body =
        Printf.sprintf "id=m\nsource=inline\ndims=%d %d\nnnz=%d\n%s" nrows ncols nnz !block
      in
      Alcotest.(check string) (String.escaped body)
        (reference ~nrows ~ncols ~nnz !block)
        (verdict body)
    end
  done

(* ====================================================================== *)
(* Fingerprint                                                            *)
(* ====================================================================== *)

(* Cache files and the router ring are keyed by these strings: fixed
   fingerprints keep the keys recorded when every sketch byte went through
   "%02x". *)
let test_fingerprint_keys_pinned () =
  let fp nrows ncols nnz sketch = { Serve.Fingerprint.nrows; ncols; nnz; sketch } in
  List.iter
    (fun (fp, want) ->
      Alcotest.(check string) "pinned key" want (Serve.Fingerprint.key fp);
      Alcotest.(check bool) "of_key inverts" true
        (Option.equal Serve.Fingerprint.equal (Some fp)
           (Serve.Fingerprint.of_key want)))
    [
      ( fp 1 1 0 (Array.make 64 0),
        "fp1:1x1:0:00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
      );
      ( fp 128 96 1000 (Array.init 64 (fun i -> ((i * 37) + 11) mod 256)),
        "fp1:128x96:1000:0b30557a9fc4e90e33587da2c7ec11365b80a5caef14395e83a8cdf2173c6186abd0f51a3f6489aed3f81d42678cb1d6fb20456a8fb4d9fe23486d92b7dc0126"
      );
      ( fp 70000 3 123456 (Array.init 64 (fun i -> if i mod 3 = 0 then 255 else i)),
        "fp1:70000x3:123456:ff0102ff0405ff0708ff0a0bff0d0eff1011ff1314ff1617ff191aff1c1dff1f20ff2223ff2526ff2829ff2b2cff2e2fff3132ff3435ff3738ff3a3bff3d3eff"
      );
      ( Serve.Fingerprint.of_coo (small_matrix 1),
        "fp1:48x48:220:07020200070509030506010707030302060302020100030502030203060105030602070908030202020502070503030601050202070105030202060506060205"
      );
    ]

let test_fingerprint () =
  let m = small_matrix 1 in
  let fp = Serve.Fingerprint.of_coo m in
  let fp2 = Serve.Fingerprint.of_coo m in
  Alcotest.(check bool) "deterministic" true (Serve.Fingerprint.equal fp fp2);
  Alcotest.(check string) "key deterministic" (Serve.Fingerprint.key fp)
    (Serve.Fingerprint.key fp2);
  let key = Serve.Fingerprint.key fp in
  Alcotest.(check bool) "single line, no spaces" false
    (String.contains key '\n' || String.contains key ' ');
  (* key <-> fingerprint roundtrip *)
  (match Serve.Fingerprint.of_key key with
  | Some fp' -> Alcotest.(check bool) "of_key inverts key" true (fp = fp')
  | None -> Alcotest.fail "of_key rejected its own key");
  Alcotest.(check (option reject)) "damaged key rejected" None
    (Serve.Fingerprint.of_key (key ^ "zz"));
  Alcotest.(check (option reject)) "garbage key rejected" None
    (Serve.Fingerprint.of_key "fp1:whatever");
  (* Different patterns at identical shape/nnz must separate via the
     sketch: a band matrix vs a uniform one. *)
  let banded =
    Coo.of_triplets ~nrows:48 ~ncols:48
      (List.init 220 (fun i -> (i mod 48, (i * 7) mod 3, 1.0)))
  in
  let uniform = small_matrix 9 in
  Alcotest.(check bool) "distinct patterns -> distinct keys" false
    (Serve.Fingerprint.key (Serve.Fingerprint.of_coo banded)
    = Serve.Fingerprint.key (Serve.Fingerprint.of_coo uniform))

(* ====================================================================== *)
(* Cache                                                                  *)
(* ====================================================================== *)

let entry i =
  {
    Serve.Cache.schedule = Printf.sprintf "sched-%d" i;
    predicted = float_of_int i;
    measured = float_of_int i *. 1e-6;
    degraded = false;
  }

let mk_cache ?(capacity = 3) () =
  Serve.Cache.create ~capacity ~model_digest:"mdig" ~index_digest:"idig"
    ~machine:"intel-like" ()

let test_cache_lru () =
  let c = mk_cache () in
  Serve.Cache.add c "a" (entry 1);
  Serve.Cache.add c "b" (entry 2);
  Serve.Cache.add c "c" (entry 3);
  (* Touch "a" so "b" is now the least recently used... *)
  ignore (Serve.Cache.find c "a");
  Serve.Cache.add c "d" (entry 4);
  Alcotest.(check int) "bounded" 3 (Serve.Cache.size c);
  Alcotest.(check int) "one eviction" 1 (Serve.Cache.evictions c);
  Alcotest.(check bool) "LRU victim evicted" true (Serve.Cache.find c "b" = None);
  Alcotest.(check bool) "recently-used survivor" true
    (Serve.Cache.find c "a" <> None);
  (* Replacement of an existing key does not evict. *)
  Serve.Cache.add c "a" (entry 9);
  Alcotest.(check int) "replace keeps size" 3 (Serve.Cache.size c);
  match Serve.Cache.find c "a" with
  | Some e -> Alcotest.(check string) "replaced" "sched-9" e.Serve.Cache.schedule
  | None -> Alcotest.fail "replaced entry missing"

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let test_cache_persistence () =
  let dir = tmpdir "waco-serve-cache" in
  let path = Filename.concat dir "cache.waco" in
  let c = mk_cache ~capacity:8 () in
  Serve.Cache.add c "k1" (entry 1);
  Serve.Cache.add c "k2" (entry 2);
  Serve.Cache.add c "k3" (entry 3);
  ignore (Serve.Cache.find c "k1");
  Serve.Cache.save c path;
  (* Warm reload with matching identity, recency order intact: adding one
     entry to a full cache must evict k2 (the LRU after k1's touch). *)
  (match
     Serve.Cache.load ~capacity:3 ~model_digest:"mdig" ~index_digest:"idig"
       ~machine:"intel-like" path
   with
  | Ok { cache; status = `Warm n } ->
      Alcotest.(check int) "entries restored" 3 n;
      (* This probe bumps k2, so the LRU entry is now k3 (restored order
         was k2 < k3 < k1 after k1's pre-save touch). *)
      (match Serve.Cache.find cache "k2" with
      | Some e -> Alcotest.(check string) "payload" "sched-2" e.Serve.Cache.schedule
      | None -> Alcotest.fail "restored entry missing");
      Serve.Cache.add cache "k4" (entry 4);
      (* Had the load come back in plain insertion order (k1 < k2 < k3),
         the victim here would be k1, not k3. *)
      Alcotest.(check bool) "recency survived the roundtrip" true
        (Serve.Cache.find cache "k3" = None && Serve.Cache.find cache "k1" <> None)
  | Ok { status = `Invalidated why; _ } -> Alcotest.failf "invalidated: %s" why
  | Error e -> Alcotest.failf "load: %s" (Robust.load_error_to_string e));
  (* A different model digest invalidates wholesale. *)
  (match
     Serve.Cache.load ~model_digest:"OTHER" ~index_digest:"idig"
       ~machine:"intel-like" path
   with
  | Ok { cache; status = `Invalidated _ } ->
      Alcotest.(check int) "invalidated cache is empty" 0 (Serve.Cache.size cache)
  | Ok { status = `Warm _; _ } -> Alcotest.fail "stale snapshot reused"
  | Error e -> Alcotest.failf "load: %s" (Robust.load_error_to_string e));
  (* Flipping a payload byte is a typed checksum error. *)
  let raw = read_raw path in
  let pos = String.length raw - 3 in
  write_raw path
    (String.mapi (fun i c -> if i = pos then (if c = 'x' then 'y' else 'x') else c) raw);
  (match
     Serve.Cache.load ~model_digest:"mdig" ~index_digest:"idig"
       ~machine:"intel-like" path
   with
  | Error (Robust.Bad_checksum _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Robust.load_error_to_string e)
  | Ok _ -> Alcotest.fail "corrupt snapshot loaded");
  rm_rf dir

(* Crash at every write point during a cache save: loading must yield the
   previous complete snapshot or a clean typed error — never garbage. *)
let test_cache_crash_sweep () =
  let dir = tmpdir "waco-serve-sweep" in
  let path = Filename.concat dir "cache.waco" in
  let load () =
    Serve.Cache.load ~model_digest:"mdig" ~index_digest:"idig"
      ~machine:"intel-like" path
  in
  let crash_sweep ~save ~check =
    Robust.Faults.reset ();
    let n = ref 1 in
    let finished = ref false in
    while not !finished do
      Robust.Faults.arm_fail_nth_write !n;
      (match save () with
      | () -> finished := true
      | exception Robust.Faults.Injected _ -> ());
      Robust.Faults.reset ();
      if not !finished then begin
        check !n;
        incr n;
        if !n > 16 then Alcotest.fail "sweep did not terminate"
      end
    done;
    !n - 1
  in
  let c1 = mk_cache ~capacity:8 () in
  Serve.Cache.add c1 "k1" (entry 1);
  (* Phase 1: no previous snapshot — a crash must never leave a loadable
     partial file. *)
  let points =
    crash_sweep
      ~save:(fun () -> Serve.Cache.save c1 path)
      ~check:(fun n ->
        match load () with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "crash %d left a loadable partial cache" n)
  in
  Alcotest.(check int) "three write points per atomic save" 3 points;
  (* Phase 2: snapshot with 1 entry on disk; crashes while saving 2 entries
     must preserve the 1-entry snapshot exactly. *)
  Serve.Cache.add c1 "k2" (entry 2);
  ignore
    (crash_sweep
       ~save:(fun () -> Serve.Cache.save c1 path)
       ~check:(fun n ->
         match load () with
         | Ok { status = `Warm 1; _ } -> ()
         | Ok { status = `Warm k; _ } ->
             Alcotest.failf "crash %d: %d entries (want previous snapshot's 1)" n k
         | Ok { status = `Invalidated why; _ } ->
             Alcotest.failf "crash %d invalidated: %s" n why
         | Error e ->
             Alcotest.failf "crash %d lost the previous snapshot: %s" n
               (Robust.load_error_to_string e)));
  (* The sweep's final iteration completed cleanly. *)
  (match load () with
  | Ok { status = `Warm 2; _ } -> ()
  | _ -> Alcotest.fail "clean save did not land");
  rm_rf dir

(* --- snapshot + journal ------------------------------------------------ *)

(* A cache's canonical bytes: its snapshot, written beside [path]. *)
let canon ~path c =
  let f = path ^ ".canon" in
  Serve.Cache.save c f;
  let s = read_raw f in
  Sys.remove f;
  s

let load_canon ?(capacity = 3) path =
  match
    Serve.Cache.load ~capacity ~model_digest:"mdig" ~index_digest:"idig"
      ~machine:"intel-like" path
  with
  | Ok { cache; status = `Warm _ } -> Ok (canon ~path cache)
  | Ok { status = `Invalidated why; _ } -> Error ("invalidated: " ^ why)
  | Error e -> Error (Robust.load_error_to_string e)

let remove_cache_files path =
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ path; path ^ ".journal" ]

(* Crash at every write point of [persist] — a journal append and a
   compaction: loading must give exactly the state of the previous persist
   or of the current one, compared through canonical snapshot bytes — never
   a mix, never garbage.  [setup] rebuilds disk and live cache as of the
   previous persist; [step] mutates and persists. *)
let test_cache_journal_crash_sweep () =
  let dir = tmpdir "waco-serve-journal" in
  let path = Filename.concat dir "cache.waco" in
  let sweep ~setup ~step =
    remove_cache_files path;
    let c = setup () in
    let prev = canon ~path c in
    step c;
    let cur = canon ~path c in
    Alcotest.(check bool) "the step changes the state" false (prev = cur);
    let n = ref 1 and finished = ref false in
    while not !finished do
      remove_cache_files path;
      let c = setup () in
      Robust.Faults.arm_fail_nth_write !n;
      (match step c with
      | () -> finished := true
      | exception Robust.Faults.Injected _ -> ());
      Robust.Faults.reset ();
      (match load_canon path with
      | Ok s when s = cur -> ()
      | Ok s when s = prev && not !finished -> ()
      | Ok _ -> Alcotest.failf "crash %d: loaded a state that was never persisted" !n
      | Error e -> Alcotest.failf "crash %d: %s" !n e);
      incr n;
      if !n > 16 then Alcotest.fail "sweep did not terminate"
    done;
    !n - 2
  in
  (* The previous persist: a compaction, then an append with a touch. *)
  let setup () =
    let c = mk_cache () in
    Serve.Cache.add c "k1" (entry 1);
    Serve.Cache.add c "k2" (entry 2);
    Serve.Cache.persist c path;
    ignore (Serve.Cache.find c "k1");
    Serve.Cache.add c "k3" (entry 3);
    Serve.Cache.persist c path;
    c
  in
  (* Append: a touch and an insert that evicts, in one record. *)
  let append_points =
    sweep ~setup ~step:(fun c ->
        ignore (Serve.Cache.find c "k2");
        Serve.Cache.add c "k4" (entry 4);
        Serve.Cache.persist c path)
  in
  Alcotest.(check int) "one write point per append" 1 append_points;
  (* Compaction: a restarted daemon's first persist. *)
  let compact_points =
    sweep
      ~setup:(fun () ->
        ignore (setup ());
        match
          Serve.Cache.load ~capacity:3 ~model_digest:"mdig" ~index_digest:"idig"
            ~machine:"intel-like" path
        with
        | Ok { cache; status = `Warm 3 } -> cache
        | _ -> Alcotest.fail "setup did not reload warm")
      ~step:(fun c ->
        Serve.Cache.add c "k5" (entry 5);
        Serve.Cache.persist c path)
  in
  Alcotest.(check int) "snapshot's three write points + journal reset" 4
    compact_points;
  rm_rf dir

(* Damage to the journal: a torn final record (a crash mid-append) is
   dropped and the load stays warm; a checksum failure anywhere else is a
   typed error; a journal naming another snapshot is ignored. *)
let test_cache_journal_damage () =
  let dir = tmpdir "waco-serve-jdamage" in
  let path = Filename.concat dir "cache.waco" in
  let jpath = path ^ ".journal" in
  let c = mk_cache () in
  Serve.Cache.add c "k1" (entry 1);
  Serve.Cache.persist c path;
  Serve.Cache.add c "k2" (entry 2);
  Serve.Cache.persist c path;
  let prev = canon ~path c in
  (* Torn tail: the next record is cut mid-write. *)
  Serve.Cache.add c "k3" (entry 3);
  Robust.Faults.arm_truncate_at 20;
  Serve.Cache.persist c path;
  Robust.Faults.reset ();
  (match load_canon path with
  | Ok s -> Alcotest.(check string) "torn record dropped, load warm" prev s
  | Error e -> Alcotest.failf "torn tail: %s" e);
  (* Interior damage: flip a byte of the first record, which has a
     complete successor. *)
  let raw = read_raw jpath in
  let pos = String.index raw '\n' + 12 in
  write_raw jpath
    (String.mapi (fun i ch -> if i = pos then (if ch = 'x' then 'y' else 'x') else ch) raw);
  (match
     Serve.Cache.load ~model_digest:"mdig" ~index_digest:"idig"
       ~machine:"intel-like" path
   with
  | Error (Robust.Malformed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Robust.load_error_to_string e)
  | Ok _ -> Alcotest.fail "interior journal damage loaded");
  (* Stale journal: a newer snapshot beside a journal that names the old
     one (a crash between snapshot rename and journal reset).  Replaying
     it would add k2 back. *)
  remove_cache_files path;
  let c = mk_cache () in
  Serve.Cache.add c "k1" (entry 1);
  Serve.Cache.persist c path;
  Serve.Cache.add c "k2" (entry 2);
  Serve.Cache.persist c path;
  let stale = read_raw jpath in
  let other = mk_cache () in
  Serve.Cache.add other "k9" (entry 9);
  Serve.Cache.persist other path;
  write_raw jpath stale;
  (match load_canon path with
  | Ok s -> Alcotest.(check string) "stale journal ignored" (canon ~path other) s
  | Error e -> Alcotest.failf "stale journal: %s" e);
  rm_rf dir

(* The journal triggers its own compaction once it outgrows twice the
   snapshot, and the stats see both. *)
let test_cache_journal_compacts () =
  let dir = tmpdir "waco-serve-jcompact" in
  let path = Filename.concat dir "cache.waco" in
  let c = mk_cache ~capacity:4 () in
  Serve.Cache.add c "k0" (entry 0);
  Serve.Cache.persist c path;
  Alcotest.(check int) "first persist compacts" 1 (Serve.Cache.compactions c);
  let header = Serve.Cache.journal_bytes c in
  Serve.Cache.add c "k1" (entry 1);
  Serve.Cache.persist c path;
  Alcotest.(check bool) "then appends" true
    (Serve.Cache.compactions c = 1 && Serve.Cache.journal_bytes c > header);
  let i = ref 2 in
  while Serve.Cache.compactions c = 1 && !i < 100 do
    Serve.Cache.add c (Printf.sprintf "k%d" !i) (entry !i);
    Serve.Cache.persist c path;
    incr i
  done;
  Alcotest.(check int) "journal growth compacts" 2 (Serve.Cache.compactions c);
  Alcotest.(check int) "fresh journal holds only its header" header
    (Serve.Cache.journal_bytes c);
  (match load_canon ~capacity:4 path with
  | Ok s -> Alcotest.(check string) "compacted state loads" (canon ~path c) s
  | Error e -> Alcotest.failf "load: %s" e);
  rm_rf dir

(* Replay equivalence: after every [persist] of a random find/add/persist
   sequence, snapshot + journal reload to the live cache's exact bytes —
   entries and recency ticks, through evictions that follow touches and
   compactions alike. *)
let qcheck_journal_replay =
  QCheck.Test.make ~name:"journal replay = live cache (prop)" ~count:12
    QCheck.(
      pair (int_range 3 8)
        (list_of_size Gen.(int_range 1 30) (pair (int_range 0 3) (int_range 0 11))))
    (fun (capacity, ops) ->
      let dir = tmpdir "waco-serve-jprop" in
      let path = Filename.concat dir "cache.waco" in
      let c = mk_cache ~capacity () in
      let ok = ref true in
      List.iteri
        (fun i (op, k) ->
          let key = Printf.sprintf "k%d" k in
          match op with
          | 0 | 1 -> ignore (Serve.Cache.find c key)
          | 2 -> Serve.Cache.add c key (entry i)
          | _ ->
              Serve.Cache.persist c path;
              if load_canon ~capacity path <> Ok (canon ~path c) then ok := false)
        ops;
      rm_rf dir;
      !ok)

(* Kernel namespaces: a namespaced load accepts only keys under the served
   kernels' prefixes; a persisted entry with no namespace (a pre-kernel
   snapshot) invalidates the whole snapshot — the digest-stamp policy, so a
   legacy SpMV entry can never answer an SDDMM query. *)
let test_cache_namespaces () =
  let dir = tmpdir "waco-serve-ns" in
  let path = Filename.concat dir "cache.waco" in
  let load ?namespaces () =
    Serve.Cache.load ?namespaces ~model_digest:"mdig" ~index_digest:"idig"
      ~machine:"intel-like" path
  in
  let c = mk_cache ~capacity:8 () in
  Serve.Cache.add c "spmm/fp1:aaaa" (entry 1);
  Serve.Cache.add c "sddmm/fp1:aaaa" (entry 2);
  Serve.Cache.save c path;
  (* Every key namespaced under a served kernel: warm. *)
  (match load ~namespaces:[ "spmm"; "sddmm" ] () with
  | Ok { cache; status = `Warm 2 } ->
      Alcotest.(check bool) "namespaced entries restored" true
        (Serve.Cache.find cache "spmm/fp1:aaaa" <> None
        && Serve.Cache.find cache "sddmm/fp1:aaaa" <> None)
  | Ok { status = `Warm n; _ } -> Alcotest.failf "restored %d of 2" n
  | Ok { status = `Invalidated why; _ } -> Alcotest.failf "invalidated: %s" why
  | Error e -> Alcotest.failf "load: %s" (Robust.load_error_to_string e));
  (* A namespace the daemon no longer serves: wholesale invalidation. *)
  (match load ~namespaces:[ "spmm" ] () with
  | Ok { cache; status = `Invalidated _ } ->
      Alcotest.(check int) "foreign namespace empties the cache" 0
        (Serve.Cache.size cache)
  | Ok { status = `Warm _; _ } -> Alcotest.fail "foreign-namespace entry reused"
  | Error e -> Alcotest.failf "load: %s" (Robust.load_error_to_string e));
  (* No namespace check requested: the raw snapshot loads as before. *)
  (match load () with
  | Ok { status = `Warm 2; _ } -> ()
  | _ -> Alcotest.fail "namespace-free load changed behavior");
  (* A legacy un-namespaced entry among namespaced ones: wholesale
     invalidation, empty cache. *)
  let legacy = mk_cache ~capacity:8 () in
  Serve.Cache.add legacy "spmm/fp1:bbbb" (entry 3);
  Serve.Cache.add legacy "fp1:cccc" (entry 4);
  Serve.Cache.save legacy path;
  (match load ~namespaces:[ "spmm"; "sddmm" ] () with
  | Ok { cache; status = `Invalidated why } ->
      Alcotest.(check int) "pre-kernel snapshot starts cold" 0
        (Serve.Cache.size cache);
      Alcotest.(check bool) "reason cites the orphan key" true
        (let n = String.length why in
         let rec go i =
           i + 8 <= n && (String.sub why i 8 = "fp1:cccc" || go (i + 1))
         in
         go 0)
  | Ok { status = `Warm _; _ } -> Alcotest.fail "pre-kernel snapshot reused"
  | Error e -> Alcotest.failf "load: %s" (Robust.load_error_to_string e));
  rm_rf dir

(* ====================================================================== *)
(* Request scheduler (batch level, no socket)                             *)
(* ====================================================================== *)

let inline_source m = Serve.Protocol.Matrix m

let query_of ?(measure = true) ?(qid = "q") ?(deadline_ms = 0) ?kernel m =
  { Serve.Protocol.qid; source = inline_source m; measure; deadline_ms; kernel }

let schedule_of = function
  | Serve.Protocol.Answer a -> a.Serve.Protocol.schedule
  | Serve.Protocol.Error_msg e -> Alcotest.failf "query failed: %s" e
  | _ -> Alcotest.fail "non-answer response"

let test_batch_dedup_and_hits () =
  let server = mk_server () in
  let m = small_matrix 1 in
  let metrics = Serve.Server.metrics server in
  (* Four identical queries in one micro-batch: one extractor forward, one
     traversal, four identical answers. *)
  let responses =
    Serve.Server.process_batch server (List.init 4 (fun i -> query_of ~qid:(string_of_int i) m))
  in
  Alcotest.(check int) "four answers" 4 (List.length responses);
  let scheds = List.map schedule_of responses in
  List.iter
    (fun s -> Alcotest.(check string) "identical schedules" (List.hd scheds) s)
    scheds;
  Alcotest.(check (option int)) "one forward for four queries" (Some 1)
    (Serve.Metrics.counter metrics "extractor_forwards");
  Alcotest.(check (option int)) "one traversal" (Some 1)
    (Serve.Metrics.counter metrics "traversals");
  Alcotest.(check (option int)) "four misses" (Some 4)
    (Serve.Metrics.counter metrics "cache_misses");
  List.iter
    (function
      | Serve.Protocol.Answer a ->
          Alcotest.(check bool) "first round: miss" false a.Serve.Protocol.cache_hit
      | _ -> Alcotest.fail "non-answer")
    responses;
  (* Second round: all hits, no new forwards. *)
  let responses2 = Serve.Server.process_batch server [ query_of m; query_of m ] in
  List.iter
    (function
      | Serve.Protocol.Answer a ->
          Alcotest.(check bool) "second round: hit" true a.Serve.Protocol.cache_hit;
          Alcotest.(check string) "same schedule from cache" (List.hd scheds)
            a.Serve.Protocol.schedule
      | _ -> Alcotest.fail "non-answer")
    responses2;
  Alcotest.(check (option int)) "still one forward" (Some 1)
    (Serve.Metrics.counter metrics "extractor_forwards");
  Alcotest.(check (option int)) "two hits" (Some 2)
    (Serve.Metrics.counter metrics "cache_hits");
  (* Distinct matrices in one batch compute separately. *)
  let m2 = small_matrix 2 in
  ignore (Serve.Server.process_batch server [ query_of m; query_of m2 ]);
  Alcotest.(check (option int)) "new pattern -> one more forward" (Some 2)
    (Serve.Metrics.counter metrics "extractor_forwards")

let test_batch_measure_modes_and_errors () =
  let server = mk_server () in
  let m = small_matrix 1 in
  (* measure=false returns NaN measured and caches under a separate key. *)
  (match Serve.Server.process_batch server [ query_of ~measure:false m ] with
  | [ Serve.Protocol.Answer a ] ->
      Alcotest.(check bool) "predict-only: NaN measured" true
        (Float.is_nan a.Serve.Protocol.measured);
      Alcotest.(check bool) "predict-only: miss" false a.Serve.Protocol.cache_hit
  | _ -> Alcotest.fail "predict-only query failed");
  (match Serve.Server.process_batch server [ query_of ~measure:true m ] with
  | [ Serve.Protocol.Answer a ] ->
      Alcotest.(check bool) "measured run is a separate cache key" false
        a.Serve.Protocol.cache_hit;
      Alcotest.(check bool) "measured is finite" true
        (Float.is_finite a.Serve.Protocol.measured)
  | _ -> Alcotest.fail "measured query failed");
  (* A request with an unreadable path errors on its own; the rest of the
     batch still answers. *)
  let bad =
    {
      Serve.Protocol.qid = "bad";
      source = Serve.Protocol.Path "/nonexistent/missing.mtx";
      measure = true;
      deadline_ms = 0;
      kernel = None;
    }
  in
  (match Serve.Server.process_batch server [ bad; query_of m ] with
  | [ Serve.Protocol.Error_msg _; Serve.Protocol.Answer a ] ->
      Alcotest.(check bool) "good request unaffected" true
        a.Serve.Protocol.cache_hit
  | _ -> Alcotest.fail "mixed batch misbehaved");
  Alcotest.(check (option int)) "request error counted" (Some 1)
    (Serve.Metrics.counter (Serve.Server.metrics server) "request_errors")

(* One feature per pattern, not per answer key: a predict-only and then a
   measured query on one pattern compute one feature between them, and only
   the query that computed it is charged extractor time. *)
let test_feature_per_pattern () =
  let server = mk_server () in
  let metrics = Serve.Server.metrics server in
  (* A pattern no other test sends: the fixture model's memo is shared. *)
  let m = Gen.uniform (Rng.create 4711) ~nrows:40 ~ncols:40 ~nnz:150 in
  let extract_s resp =
    match resp with
    | [ Serve.Protocol.Answer a ] -> a.Serve.Protocol.spans.Serve.Protocol.extract_s
    | _ -> Alcotest.fail "query failed"
  in
  let first = Serve.Server.process_batch server [ query_of ~measure:false m ] in
  let second = Serve.Server.process_batch server [ query_of m ] in
  Alcotest.(check (option int)) "two answer-cache misses" (Some 2)
    (Serve.Metrics.counter metrics "cache_misses");
  Alcotest.(check (option int)) "one forward for both modes" (Some 1)
    (Serve.Metrics.counter metrics "extractor_forwards");
  Alcotest.(check bool) "computing query charged" true (extract_s first > 0.0);
  Alcotest.(check (float 0.0)) "memo hit charged nothing" 0.0 (extract_s second)

(* Bounded daemon state: distinct patterns through the scheduler leave
   their answers and features behind, not their coordinate pyramids. *)
let test_live_heap_per_pattern () =
  let server = mk_server () in
  let send seed =
    let m = Gen.uniform (Rng.create seed) ~nrows:256 ~ncols:256 ~nnz:3000 in
    ignore (Serve.Server.process_batch server [ query_of ~measure:false m ])
  in
  let live_mb () =
    Gc.compact ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
  in
  (* Warm-up: scratch grown before the baseline. *)
  send 9000;
  let before = live_mb () in
  let n = 32 in
  for i = 1 to n do
    send (9000 + i)
  done;
  let per_pattern = (live_mb () -. before) /. float_of_int n in
  if per_pattern >= 0.1 then
    Alcotest.failf "live heap grows %.3f MB per pattern (bound 0.1)" per_pattern

(* Deadline semantics, bottom-up: a pre-expired deadline at the tuner gives
   the unmeasured fallback with reason "deadline"; a lax one changes
   nothing; at the scheduler a blown [deadline_ms] answers degraded and is
   never cached, and the same pattern without a deadline then computes and
   caches normally. *)
let test_deadlines () =
  let model, index = Lazy.force fixture in
  let m = small_matrix 21 in
  (* Already expired before phase 1: unmeasured asymptotic fallback. *)
  let r =
    Waco.Tuner.query model machine ~k:4 ~ef:16 ~measure:true
      ~deadline_at:(Robust.mono_now () -. 1.0) ~id:"dl-past" m index
  in
  Alcotest.(check bool) "expired: degraded" true r.Waco.Tuner.degraded;
  Alcotest.(check (option string)) "expired: reason" (Some "deadline")
    r.Waco.Tuner.degraded_reason;
  Alcotest.(check int) "expired: nothing measured" 0 r.Waco.Tuner.measured_runs;
  Alcotest.(check bool) "expired: NaN measured" true
    (Float.is_nan r.Waco.Tuner.best_measured);
  (* A lax deadline leaves the full pipeline untouched. *)
  let r2 =
    Waco.Tuner.query model machine ~k:4 ~ef:16 ~measure:true
      ~deadline_at:(Robust.mono_now () +. 3600.0) ~id:"dl-lax" m index
  in
  Alcotest.(check bool) "lax: not degraded" false r2.Waco.Tuner.degraded;
  Alcotest.(check bool) "lax: measured" true (r2.Waco.Tuner.measured_runs > 0);
  (* Scheduler level: a 1 ms budget cannot survive the pipeline (stalled
     measurements make sure of it), so the answer is degraded, counted as a
     deadline miss, and never cached. *)
  let server = mk_server () in
  Robust.Faults.reset ();
  Robust.Faults.arm_stuck_measures ~seconds:0.05 8;
  let responses =
    Serve.Server.process_batch server [ query_of ~deadline_ms:1 ~qid:"dl" m ]
  in
  Robust.Faults.reset ();
  (match responses with
  | [ Serve.Protocol.Answer a ] ->
      Alcotest.(check bool) "blown deadline: degraded" true
        a.Serve.Protocol.degraded;
      Alcotest.(check (option string)) "blown deadline: reason"
        (Some "deadline") a.Serve.Protocol.degraded_reason
  | _ -> Alcotest.fail "deadline query did not answer");
  Alcotest.(check (option int)) "deadline miss counted" (Some 1)
    (Serve.Metrics.counter (Serve.Server.metrics server) "deadline_misses");
  Alcotest.(check int) "degraded answer never cached" 0
    (Serve.Cache.size (Serve.Server.cache server));
  (* The same pattern without a deadline computes and caches normally. *)
  (match Serve.Server.process_batch server [ query_of ~qid:"free" m ] with
  | [ Serve.Protocol.Answer a ] ->
      Alcotest.(check bool) "no deadline: full answer" false
        a.Serve.Protocol.degraded;
      Alcotest.(check bool) "no deadline: measured" true
        (Float.is_finite a.Serve.Protocol.measured)
  | _ -> Alcotest.fail "deadline-free query failed");
  Alcotest.(check int) "full answer cached" 1
    (Serve.Cache.size (Serve.Server.cache server))

(* Worker-pool answers must be byte-identical to the sequential ones. *)
let test_batch_pool_determinism () =
  let seq = mk_server () in
  let pool = Parallel.Pool.create ~domains:2 in
  let par = mk_server ~pool () in
  let batch = List.init 3 (fun i -> query_of (small_matrix (40 + i))) in
  let s1 = List.map schedule_of (Serve.Server.process_batch seq batch) in
  let s2 = List.map schedule_of (Serve.Server.process_batch par batch) in
  Parallel.Pool.shutdown pool;
  List.iter2 (Alcotest.(check string) "pool-invariant schedule") s1 s2

(* ====================================================================== *)
(* Multi-kernel serving: slot routing, cache isolation, checkpoints       *)
(* ====================================================================== *)

let sddmm_algo = Algorithm.Sddmm 256

let sddmm_fixture =
  lazy
    (let model = Waco.Costmodel.create (Rng.create 13) sddmm_algo in
     let rng = Rng.create 5 in
     let corpus =
       Array.init 64 (fun _ -> Space.sample rng sddmm_algo ~dims:[| 48; 48 |])
     in
     let index = Waco.Tuner.build_index (Rng.create 9) model corpus in
     (model, index))

(* Same matrix, two kernels: each answer computes on its own slot, lands in
   its own cache namespace, and the schedules are distinct — an SpMM entry
   can never be handed to an SDDMM query.  A kernel the daemon doesn't
   serve errors instead of silently defaulting. *)
let test_cross_kernel_isolation () =
  let model, index = Lazy.force fixture in
  let smodel, sindex = Lazy.force sddmm_fixture in
  let server =
    Serve.Server.create ~k:4 ~ef:16
      ~extra:[ (smodel, sindex, "<sddmm-fixture>") ]
      ~model ~index ~index_file:"<fixture>" ~machine ~socket:"unused.sock" ()
  in
  let m = small_matrix 51 in
  let sched_for ?kernel qid =
    match Serve.Server.process_batch server [ query_of ?kernel ~qid m ] with
    | [ r ] -> schedule_of r
    | _ -> Alcotest.failf "%s: wrong response count" qid
  in
  let spmm_sched = sched_for "spmm-q" in
  let sddmm_sched = sched_for ~kernel:Waco.Kernel.Sddmm "sddmm-q" in
  Alcotest.(check bool) "distinct schedules across kernels" false
    (spmm_sched = sddmm_sched);
  (* Both landed in the shared cache, each under its kernel's namespace. *)
  let fpk = Serve.Fingerprint.key (Serve.Fingerprint.of_coo m) in
  let cache = Serve.Server.cache server in
  Alcotest.(check int) "two distinct cache entries" 2 (Serve.Cache.size cache);
  (match Serve.Cache.find cache ("spmm/" ^ fpk) with
  | Some e ->
      Alcotest.(check string) "spmm namespace holds the spmm answer"
        spmm_sched e.Serve.Cache.schedule
  | None -> Alcotest.fail "spmm/ entry missing");
  (match Serve.Cache.find cache ("sddmm/" ^ fpk) with
  | Some e ->
      Alcotest.(check string) "sddmm namespace holds the sddmm answer"
        sddmm_sched e.Serve.Cache.schedule
  | None -> Alcotest.fail "sddmm/ entry missing");
  (* Round 2: per-kernel hits, unchanged payloads. *)
  (match
     Serve.Server.process_batch server
       [ query_of ~qid:"spmm-2" m; query_of ~kernel:Waco.Kernel.Sddmm ~qid:"sddmm-2" m ]
   with
  | [ Serve.Protocol.Answer a1; Serve.Protocol.Answer a2 ] ->
      Alcotest.(check bool) "both hit" true
        (a1.Serve.Protocol.cache_hit && a2.Serve.Protocol.cache_hit);
      Alcotest.(check string) "spmm hit unchanged" spmm_sched
        a1.Serve.Protocol.schedule;
      Alcotest.(check string) "sddmm hit unchanged" sddmm_sched
        a2.Serve.Protocol.schedule
  | _ -> Alcotest.fail "round 2 misbehaved");
  (* A kernel with no slot: a per-query error naming what is served. *)
  (match
     Serve.Server.process_batch server
       [ query_of ~kernel:Waco.Kernel.Spmv ~qid:"spmv-q" m ]
   with
  | [ Serve.Protocol.Error_msg e ] ->
      let has s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the unserved kernel" true
        (has e "spmv")
  | _ -> Alcotest.fail "unserved kernel did not error");
  (* Serving the same kernel twice is a configuration error. *)
  match
    Serve.Server.create ~k:4 ~ef:16
      ~extra:[ (model, index, "<dup>") ]
      ~model ~index ~index_file:"<fixture>" ~machine ~socket:"unused.sock" ()
  with
  | _ -> Alcotest.fail "duplicate kernel slots accepted"
  | exception Invalid_argument _ -> ()

(* A kernel-conditioned checkpoint round-trips bit-identically: predictions
   from the restored model match the originals exactly, and the one-hot
   really conditions the head (a different kernel moves the output). *)
let test_kernel_checkpoint_roundtrip () =
  let dir = tmpdir "waco-kernel-ckpt" in
  let path = Filename.concat dir "model.waco" in
  let model = Waco.Costmodel.create (Rng.create 21) sddmm_algo in
  let m = small_matrix 61 in
  let input = Waco.Extractor.input_of_coo ~id:"ckpt" m in
  let rng = Rng.create 22 in
  let scheds =
    Array.init 8 (fun _ -> Space.sample rng sddmm_algo ~dims:[| 48; 48 |])
  in
  let before = Waco.Costmodel.predict model input scheds in
  (* The head is genuinely conditioned: swapping the one-hot changes the
     prediction on the same weights. *)
  let cross = Waco.Costmodel.predict ~kernel:Waco.Kernel.Spmv model input scheds in
  Alcotest.(check bool) "one-hot conditions the head" false (before = cross);
  Waco.Costmodel.save model path;
  let fresh = Waco.Costmodel.create (Rng.create 99) sddmm_algo in
  Waco.Costmodel.load fresh path;
  Alcotest.(check string) "weight digest survives the roundtrip"
    (Waco.Costmodel.digest model) (Waco.Costmodel.digest fresh);
  let after = Waco.Costmodel.predict fresh input scheds in
  Alcotest.(check bool) "bit-identical predictions after reload" true
    (before = after);
  (* The restored model conditions identically too. *)
  let cross' = Waco.Costmodel.predict ~kernel:Waco.Kernel.Spmv fresh input scheds in
  Alcotest.(check bool) "conditioned predictions survive" true (cross = cross');
  rm_rf dir

(* ====================================================================== *)
(* Model/index compatibility (load-time + lint A008)                      *)
(* ====================================================================== *)

let test_validate_compat () =
  let model, index = Lazy.force fixture in
  (* The matched pair passes. *)
  Waco.Tuner.validate_compat model ~index_file:"<fixture>" index;
  (* A mismatched index raises a clear typed error at load time. *)
  let wrong_dim = Waco.Costmodel.embed_dim model + 1 in
  let hnsw = Anns.Hnsw.create ~dim:wrong_dim (Rng.create 5) in
  Anns.Hnsw.insert hnsw (Array.make wrong_dim 0.0)
    (Space.sample (Rng.create 6) algo ~dims:[| 48; 48 |]);
  let bad =
    { index with Waco.Tuner.hnsw; corpus_size = 1; lint_rejected = 0 }
  in
  (match Waco.Tuner.validate_compat model ~index_file:"pair.idx" bad with
  | () -> Alcotest.fail "mismatched pair accepted"
  | exception Robust.Load_error (Robust.Malformed { file; reason }) ->
      Alcotest.(check string) "cites the index file" "pair.idx" file;
      Alcotest.(check bool) "names both dimensions" true
        (let has s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has reason (string_of_int wrong_dim)
         && has reason (string_of_int (Waco.Costmodel.embed_dim model))));
  (* Server.create runs the same validation before binding anything. *)
  match
    Serve.Server.create ~model ~index:bad ~index_file:"pair.idx" ~machine
      ~socket:"unused.sock" ()
  with
  | _ -> Alcotest.fail "server accepted a mismatched pair"
  | exception Robust.Load_error _ -> ()

let test_lint_a008 () =
  let model, index = Lazy.force fixture in
  let dir = tmpdir "waco-a008" in
  let mpath = Filename.concat dir "model.waco" in
  let ipath = Filename.concat dir "index.waco" in
  Waco.Costmodel.save model mpath;
  Waco.Tuner.save_index index ipath;
  (* The matched pair lints clean. *)
  Alcotest.(check int) "A008 silent on a matched pair" 0
    (List.length (Analysis.Model_check.check_index_compat ~model:mpath ~index:ipath));
  Alcotest.(check int) "index artifact lints clean" 0
    (List.length (Analysis.Model_check.check_index ipath));
  (* A doctored index dimension trips A008. *)
  let wrong = Waco.Costmodel.embed_dim model + 3 in
  Robust.write_artifact ~kind:Robust.Kind.index ipath
    (Printf.sprintf "INDEX 1 0\nHNSW %d 8 32 0 -1 0\n" wrong);
  (match Analysis.Model_check.check_index_compat ~model:mpath ~index:ipath with
  | [ d ] ->
      Alcotest.(check string) "code" "WACO-A008" (Diag.code d);
      Alcotest.(check bool) "severity error" true (Diag.severity d = Diag.Error)
  | ds -> Alcotest.failf "expected one A008, got %d diagnostics" (List.length ds));
  (* An unreadable artifact stays silent here (per-artifact passes own it). *)
  Sys.remove mpath;
  Alcotest.(check int) "silent when the model is missing" 0
    (List.length (Analysis.Model_check.check_index_compat ~model:mpath ~index:ipath));
  (* check_index maps envelope damage to the artifact codes. *)
  Robust.write_artifact ~kind:Robust.Kind.model ipath "not an index\n";
  (match Analysis.Model_check.check_index ipath with
  | [ d ] -> Alcotest.(check string) "wrong kind -> A007" "WACO-A007" (Diag.code d)
  | _ -> Alcotest.fail "wrong-kind index artifact not flagged");
  rm_rf dir

(* ====================================================================== *)
(* End-to-end: forked daemon, concurrent clients, kill + warm restart     *)
(* ====================================================================== *)

let wait_connect path =
  let rec go attempts =
    match Serve.Client.connect path with
    | c -> c
    | exception Unix.Unix_error _ when attempts > 0 ->
        Unix.sleepf 0.05;
        go (attempts - 1)
  in
  go 200

let spawn_daemon ~socket ~cache_file () =
  let env =
    Array.append (Unix.environment ())
      [|
        "WACO_TEST_SERVE_SOCKET=" ^ socket; "WACO_TEST_SERVE_CACHE=" ^ cache_file;
      |]
  in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name |]
    env Unix.stdin Unix.stdout Unix.stderr

let json_has json fragment =
  let n = String.length json and m = String.length fragment in
  let rec go i = i + m <= n && (String.sub json i m = fragment || go (i + 1)) in
  go 0

let test_e2e_daemon () =
  let dir = tmpdir "waco-serve-e2e" in
  let socket = endpoint_in dir "waco.sock" in
  let cache_file = Filename.concat dir "cache.waco" in
  let mtx = Filename.concat dir "m.mtx" in
  Mmio.write_coo mtx (small_matrix 1);
  let pid1 = spawn_daemon ~socket ~cache_file () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid1 Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid1) with Unix.Unix_error _ -> ());
      rm_rf dir)
    (fun () ->
      (* Round 1: four concurrent clients, all asking about the same
         matrix, must get identical schedules. *)
      let clients = Array.init 4 (fun _ -> wait_connect socket) in
      Array.iteri
        (fun i c ->
          Serve.Client.send c
            (Serve.Protocol.Query
               {
                 qid = Printf.sprintf "c%d" i;
                 source = Serve.Protocol.Path mtx;
                 measure = true;
                 deadline_ms = 0;
                 kernel = None;
               }))
        clients;
      let answers =
        Array.map
          (fun c ->
            match Serve.Client.recv c with
            | Serve.Protocol.Answer a -> a
            | Serve.Protocol.Error_msg e -> Alcotest.failf "query failed: %s" e
            | _ -> Alcotest.fail "non-answer response")
          clients
      in
      let sched = answers.(0).Serve.Protocol.schedule in
      Array.iter
        (fun (a : Serve.Protocol.answer) ->
          Alcotest.(check string) "identical schedules across clients" sched
            a.Serve.Protocol.schedule)
        answers;
      Alcotest.(check bool) "schedule is non-empty" true (String.length sched > 0);
      let stats1 =
        match Serve.Client.stats clients.(0) with
        | Ok j -> j
        | Error e -> Alcotest.failf "stats: %s" e
      in
      let forwards1 =
        Option.value ~default:(-1)
          (Serve.Metrics.json_counter stats1 "extractor_forwards")
      in
      Alcotest.(check bool) "at least one forward, at most one per client" true
        (forwards1 >= 1 && forwards1 <= 4);
      (* Round 2: same queries again — all cache hits, not one new
         extractor forward. *)
      Array.iter
        (fun c ->
          match
            Serve.Client.query ~qid:"round2" c (Serve.Protocol.Path mtx)
          with
          | Ok a ->
              Alcotest.(check bool) "round 2 hits the cache" true
                a.Serve.Protocol.cache_hit;
              Alcotest.(check string) "round 2 schedule unchanged" sched
                a.Serve.Protocol.schedule
          | Error e -> Alcotest.failf "round 2: %s" e)
        clients;
      let stats2 =
        match Serve.Client.stats clients.(0) with
        | Ok j -> j
        | Error e -> Alcotest.failf "stats: %s" e
      in
      Alcotest.(check (option int)) "no new forwards in round 2"
        (Some forwards1)
        (Serve.Metrics.json_counter stats2 "extractor_forwards");
      Alcotest.(check bool) "hits counted" true
        (match Serve.Metrics.json_counter stats2 "cache_hits" with
        | Some h -> h >= 4
        | None -> false);
      Array.iter Serve.Client.close clients;
      (* Kill the daemon outright: no graceful persist — the write-through
         cache file on disk is all the next incarnation gets. *)
      Unix.kill pid1 Sys.sigkill;
      ignore (Unix.waitpid [] pid1);
      Alcotest.(check bool) "write-through snapshot exists" true
        (Sys.file_exists cache_file);
      (* Restart: answers must come from the persisted cache without a
         single extractor forward or index traversal. *)
      let pid2 = spawn_daemon ~socket ~cache_file () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid2) with Unix.Unix_error _ -> ())
        (fun () ->
          let c = wait_connect socket in
          (match Serve.Client.query ~qid:"warm" c (Serve.Protocol.Path mtx) with
          | Ok a ->
              Alcotest.(check bool) "warm restart answers from cache" true
                a.Serve.Protocol.cache_hit;
              Alcotest.(check string) "schedule survived the restart" sched
                a.Serve.Protocol.schedule
          | Error e -> Alcotest.failf "warm query: %s" e);
          let stats3 =
            match Serve.Client.stats c with
            | Ok j -> j
            | Error e -> Alcotest.failf "stats: %s" e
          in
          Alcotest.(check (option int)) "zero forwards after restart" (Some 0)
            (Serve.Metrics.json_counter stats3 "extractor_forwards");
          Alcotest.(check (option int)) "zero traversals after restart" (Some 0)
            (Serve.Metrics.json_counter stats3 "traversals");
          Alcotest.(check bool) "stats report a warm cache" true
            (json_has stats3 "\"cache_status\": \"warm(");
          (* Graceful shutdown persists and unbinds. *)
          Alcotest.(check bool) "clean shutdown" true (Serve.Client.shutdown c);
          Serve.Client.close c;
          ignore (Unix.waitpid [] pid2);
          Alcotest.(check bool) "endpoint unbound on shutdown" true
            (endpoint_unbound socket)))

(* A client speaking garbage gets an error (or a dropped connection) while
   the daemon keeps serving everyone else. *)
let test_e2e_hostile_client () =
  let dir = tmpdir "waco-serve-hostile" in
  let socket = endpoint_in dir "waco.sock" in
  let pid = spawn_daemon ~socket ~cache_file:(Filename.concat dir "c.waco") () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      rm_rf dir)
    (fun () ->
      let good = wait_connect socket in
      (* Damaged framing: the daemon answers with an error frame and drops
         the connection. *)
      let hostile = wait_connect socket in
      Serve.Client.send hostile Serve.Protocol.Ping;
      (match Serve.Client.recv hostile with
      | Serve.Protocol.Pong -> ()
      | _ -> Alcotest.fail "hostile client's ping failed");
      let fd_writer = raw_connect socket in
      let garbage = Bytes.of_string "XXXXGARBAGEGARBAGE" in
      ignore (Unix.write fd_writer garbage 0 (Bytes.length garbage));
      (* Undecodable body in a valid frame: error response, connection
         stays up. *)
      Serve.Client.send hostile
        (Serve.Protocol.Query
           {
             qid = "x";
             source = Serve.Protocol.Path "";
             measure = true;
             deadline_ms = 0;
             kernel = None;
           });
      (* An empty path field is a body-level decode error. *)
      (match Serve.Client.recv hostile with
      | Serve.Protocol.Error_msg _ -> ()
      | _ -> Alcotest.fail "undecodable body not answered with an error");
      Alcotest.(check bool) "connection survives a body error" true
        (Serve.Client.ping hostile);
      (* The well-behaved client is unaffected throughout. *)
      Alcotest.(check bool) "good client still served" true
        (Serve.Client.ping good);
      (match Serve.Client.stats good with
      | Ok json ->
          Alcotest.(check bool) "protocol errors counted" true
            (match Serve.Metrics.json_counter json "protocol_errors" with
            | Some n -> n >= 1
            | None -> false)
      | Error e -> Alcotest.failf "stats: %s" e);
      Unix.close fd_writer;
      Serve.Client.close hostile;
      Alcotest.(check bool) "shutdown" true (Serve.Client.shutdown good);
      Serve.Client.close good;
      ignore (Unix.waitpid [] pid))

(* ====================================================================== *)
(* Overload, hostile-connection reaping, client-side bounds (in-process)  *)
(* ====================================================================== *)

(* An in-process daemon: the server runs in its own domain, so the test
   holds both ends — real sockets on one side, the live metrics record on
   the other (the forked trampoline can only export stats JSON). *)
let with_inproc_server ?max_pending ?idle_timeout_s ?frame_timeout_s f =
  let dir = tmpdir "waco-serve-inproc" in
  let socket = endpoint_in dir "waco.sock" in
  let model, index = Lazy.force fixture in
  let server =
    Serve.Server.create ?max_pending ?idle_timeout_s ?frame_timeout_s ~k:4
      ~ef:16 ~model ~index ~index_file:"<fixture>" ~machine ~socket ()
  in
  let daemon = Domain.spawn (fun () -> Serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Robust.Faults.reset ();
      (* The daemon must die even when the test body raised before its own
         shutdown (or before the daemon finished binding) — otherwise the
         Domain.join below hangs the whole suite.  Retry briefly: shutting
         down an already-shut daemon just fails to connect. *)
      let rec stop attempts =
        let ok =
          try
            let c = Serve.Client.connect ~timeout_s:1.0 socket in
            ignore (Serve.Client.shutdown c);
            Serve.Client.close c;
            true
          with _ -> endpoint_unbound socket
        in
        if (not ok) && attempts > 0 then begin
          Unix.sleepf 0.05;
          stop (attempts - 1)
        end
      in
      stop 100;
      Domain.join daemon;
      rm_rf dir)
    (fun () ->
      (* Don't hand the socket to the test until the daemon is serving. *)
      let probe = wait_connect socket in
      ignore (Serve.Client.ping probe);
      Serve.Client.close probe;
      f ~socket ~server)

(* Past the pending high-water mark, new queries answer [Busy] immediately
   instead of queueing without bound; every shed is counted; a shed client
   that retries with backoff gets its answer. *)
let test_overload_sheds () =
  with_inproc_server ~max_pending:1 (fun ~socket ~server ->
      let m = small_matrix 31 in
      (* Stall the first (only uncached) computation so the pipelined burst
         arrives while the daemon is busy: the whole burst is then decoded
         in one read round against a full queue. *)
      Robust.Faults.arm_stuck_measures ~seconds:0.4 1;
      let c = wait_connect socket in
      Serve.Client.send c (Serve.Protocol.Query (query_of ~qid:"q0" m));
      Unix.sleepf 0.1 (* let the daemon pick q0 up and hit the stall *);
      for i = 1 to 5 do
        Serve.Client.send c
          (Serve.Protocol.Query (query_of ~qid:(Printf.sprintf "q%d" i) m))
      done;
      let answers = ref 0 and busy = ref 0 in
      for _ = 0 to 5 do
        match Serve.Client.recv ~timeout_s:30.0 c with
        | Serve.Protocol.Answer _ -> incr answers
        | Serve.Protocol.Busy { retry_after_ms } ->
            Alcotest.(check bool) "busy carries a positive hint" true
              (retry_after_ms > 0);
            incr busy
        | Serve.Protocol.Error_msg e -> Alcotest.failf "unexpected error: %s" e
        | _ -> Alcotest.fail "unexpected response under overload"
      done;
      Robust.Faults.reset ();
      Alcotest.(check int) "every request resolved" 6 (!answers + !busy);
      Alcotest.(check bool) "at least one answered" true (!answers >= 1);
      Alcotest.(check bool) "at least one shed" true (!busy >= 1);
      Alcotest.(check (option int)) "every shed counted" (Some !busy)
        (Serve.Metrics.counter (Serve.Server.metrics server) "shed");
      (* The shed client's move: back off and retry.  q0's answer is cached
         by now, so the retry resolves from the cache. *)
      (match
         Serve.Client.query_with_retry ~attempts:5 ~base_s:0.02 ~qid:"retry"
           ~socket (inline_source m)
       with
      | Ok a ->
          Alcotest.(check bool) "retry after shed answers from cache" true
            a.Serve.Protocol.cache_hit
      | Error e -> Alcotest.failf "retry after shed failed: %s" e);
      Serve.Client.close c)

(* Wait until the daemon hangs up on [fd] (reaped -> EOF / reset). *)
let wait_eof ?(timeout_s = 5.0) fd =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Bytes.create 64 in
  let rec go () =
    if Unix.gettimeofday () > deadline then false
    else
      match Unix.select [ fd ] [] [] 0.1 with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd buf 0 64 with
          | 0 -> true
          | _ -> go ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              true)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* A trickler stalled mid-frame and a connection that never says anything
   are both reaped on their timeouts — each closed and counted — while a
   well-behaved client keeps getting served. *)
let test_hostile_connections_reaped () =
  with_inproc_server ~frame_timeout_s:0.3 ~idle_timeout_s:0.8
    (fun ~socket ~server ->
      let raw () = raw_connect socket in
      let trickler = raw () in
      let silent = raw () in
      (* Two bytes of magic, then nothing: a frame that never completes. *)
      ignore (Unix.write_substring trickler "WS" 0 2);
      Alcotest.(check bool) "trickler reaped" true (wait_eof trickler);
      Alcotest.(check bool) "silent connection reaped" true (wait_eof silent);
      Unix.close trickler;
      Unix.close silent;
      let metric name =
        Serve.Metrics.counter (Serve.Server.metrics server) name
      in
      Alcotest.(check (option int)) "mid-frame stall counted" (Some 1)
        (metric "reaped_trickle");
      Alcotest.(check (option int)) "idle reap counted" (Some 1)
        (metric "reaped_idle");
      (* The daemon is unharmed: a fresh, polite client is served. *)
      let c = wait_connect socket in
      Alcotest.(check bool) "daemon survives its hostile guests" true
        (Serve.Client.ping c);
      Serve.Client.close c)

(* [Unix.select] cannot watch an fd at or past FD_SETSIZE (1024): one such
   fd in the set fails the whole call with EINVAL.  A daemon that accepts
   past that line must refuse the connection, not die on its next tick.
   Filler fds take every number below 1023, so the test's own socket lands
   on 1023 (still selectable) and the daemon's accept on 1024. *)
let test_fdset_refusal () =
  with_inproc_server (fun ~socket ~server ->
      let fd_num (fd : Unix.file_descr) : int = Obj.magic fd in
      let fillers = ref [] in
      let free_fillers () =
        List.iter Unix.close !fillers;
        fillers := []
      in
      Fun.protect ~finally:free_fillers (fun () ->
          let filler () =
            let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
            fillers := fd :: !fillers;
            fd_num fd
          in
          (* Fill through 1024 (under a 1024-fd limit the daemon's accept
             would fail instead: skip), then free the top two. *)
          let rec fill () = if filler () < 1024 then fill () in
          (match fill () with
          | () -> ()
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
              Alcotest.skip ());
          (match !fillers with
          | fd1024 :: fd1023 :: rest ->
              Unix.close fd1024;
              Unix.close fd1023;
              fillers := rest
          | _ -> assert false);
          let client = raw_connect socket in
          Alcotest.(check int) "client socket just below the line" 1023
            (fd_num client);
          let refused = wait_eof client in
          Unix.close client;
          Alcotest.(check bool) "connection past FD_SETSIZE refused" true
            refused);
      let c = wait_connect socket in
      Alcotest.(check bool) "daemon still serving" true (Serve.Client.ping c);
      Serve.Client.close c;
      Alcotest.(check (option int)) "refusal counted" (Some 1)
        (Serve.Metrics.counter (Serve.Server.metrics server) "refused_fdset"))

(* Client-side failure is bounded: recv against a mute peer times out,
   connect to a dead path fails fast, and query_with_retry gives up with an
   error after its attempts instead of hanging. *)
let test_client_bounded_failure () =
  let dir = tmpdir "waco-serve-client" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* A listener that accepts (via backlog) and never answers. *)
      let mute_path = endpoint_in dir "mute.sock" in
      let mute = Serve.Addr.listen ~backlog:8 (Serve.Addr.of_string mute_path) in
      let c = Serve.Client.connect ~timeout_s:2.0 mute_path in
      let t0 = Unix.gettimeofday () in
      (match Serve.Client.request ~timeout_s:0.3 c Serve.Protocol.Ping with
      | _ -> Alcotest.fail "recv from a mute daemon returned"
      | exception Failure _ -> ());
      Alcotest.(check bool) "recv timeout is honored" true
        (Unix.gettimeofday () -. t0 < 3.0);
      Serve.Client.close c;
      Unix.close mute;
      (* No socket at all: connect raises instead of hanging... *)
      (* Nobody listening: a never-created socket path, or (tcp) a closed
         low port — both must refuse fast, not hang. *)
      let dead_path =
        if tcp_transport then "tcp:127.0.0.1:9"
        else Filename.concat dir "nobody.sock"
      in
      (match Serve.Client.connect ~timeout_s:0.5 dead_path with
      | _ -> Alcotest.fail "connect to a dead path succeeded"
      | exception (Unix.Unix_error _ | Failure _) -> ());
      (* ...and the retrying client converges to an error, quickly. *)
      let t1 = Unix.gettimeofday () in
      (match
         Serve.Client.query_with_retry ~attempts:3 ~base_s:0.02 ~max_s:0.1
           ~connect_timeout_s:0.5 ~qid:"gone" ~socket:dead_path
           (Serve.Protocol.Path "m.mtx")
       with
      | Ok _ -> Alcotest.fail "query_with_retry to a dead path succeeded"
      | Error _ -> ());
      Alcotest.(check bool) "retry budget is bounded" true
        (Unix.gettimeofday () -. t1 < 5.0))

(* A client writing to a peer that has closed gets [Unix_error] back, the
   transport failure [query_with_retry] retries, instead of the process
   dying of SIGPIPE.  The peer is a raw socket and SIGPIPE starts at its
   default, as in a fresh client process, so only the client's own guard
   can keep the write from killing the test. *)
let test_client_write_to_closed_peer () =
  let dir = tmpdir "waco-serve-epipe" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Sys.set_signal Sys.sigpipe Sys.Signal_default;
      let path = Filename.concat dir "peer.sock" in
      let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listen_fd (Unix.ADDR_UNIX path);
      Unix.listen listen_fd 1;
      let c = Serve.Client.connect path in
      let peer, _ = Unix.accept listen_fd in
      Unix.close peer;
      Unix.close listen_fd;
      (match Serve.Client.send c Serve.Protocol.Ping with
      | () -> Alcotest.fail "write to a closed peer succeeded"
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      Serve.Client.close c)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "framing damage" `Quick test_framing_damage;
          QCheck_alcotest.to_alcotest qcheck_peeler_matches_decoder;
          Alcotest.test_case "inline validation" `Quick test_inline_validation;
          Alcotest.test_case "kernel field" `Quick test_kernel_field;
          Alcotest.test_case "fuzz: decoder is total" `Quick test_fuzz_total;
          Alcotest.test_case "decoder verdicts pinned" `Quick test_decoder_verdicts;
          Alcotest.test_case "frames pinned" `Quick test_frames_pinned;
          QCheck_alcotest.to_alcotest qcheck_inline_decodes_to_matrix;
          Alcotest.test_case "decoding on two domains" `Quick test_decode_two_domains;
          Alcotest.test_case "huge nnz claim" `Quick test_decode_huge_nnz_claim;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "sketch + key" `Quick test_fingerprint;
          Alcotest.test_case "keys pinned" `Quick test_fingerprint_keys_pinned;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru;
          Alcotest.test_case "persistence + invalidation" `Quick
            test_cache_persistence;
          Alcotest.test_case "crash sweep" `Slow test_cache_crash_sweep;
          Alcotest.test_case "journal crash sweep" `Slow
            test_cache_journal_crash_sweep;
          Alcotest.test_case "journal damage" `Quick test_cache_journal_damage;
          Alcotest.test_case "journal compaction" `Quick
            test_cache_journal_compacts;
          QCheck_alcotest.to_alcotest qcheck_journal_replay;
          Alcotest.test_case "kernel namespaces" `Quick test_cache_namespaces;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "dedup + cache hits" `Slow test_batch_dedup_and_hits;
          Alcotest.test_case "measure modes + request errors" `Slow
            test_batch_measure_modes_and_errors;
          Alcotest.test_case "one feature per pattern" `Slow
            test_feature_per_pattern;
          Alcotest.test_case "live heap per pattern" `Slow
            test_live_heap_per_pattern;
          Alcotest.test_case "pool determinism" `Slow test_batch_pool_determinism;
          Alcotest.test_case "deadline budgets" `Slow test_deadlines;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "overload sheds + retry" `Slow test_overload_sheds;
          Alcotest.test_case "trickle + silent connections reaped" `Slow
            test_hostile_connections_reaped;
          Alcotest.test_case "client failure is bounded" `Quick
            test_client_bounded_failure;
          Alcotest.test_case "client write to a closed peer" `Quick
            test_client_write_to_closed_peer;
          Alcotest.test_case "fds past FD_SETSIZE refused" `Quick
            test_fdset_refusal;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "cross-kernel cache isolation" `Slow
            test_cross_kernel_isolation;
          Alcotest.test_case "conditioned checkpoint roundtrip" `Slow
            test_kernel_checkpoint_roundtrip;
        ] );
      ( "compat",
        [
          Alcotest.test_case "validate_compat" `Slow test_validate_compat;
          Alcotest.test_case "lint A008" `Slow test_lint_a008;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "daemon: batch, cache, kill, warm restart" `Slow
            test_e2e_daemon;
          Alcotest.test_case "hostile client" `Slow test_e2e_hostile_client;
        ] );
    ]
