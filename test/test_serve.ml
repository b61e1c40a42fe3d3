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
  List.iter
    (fun req ->
      match decode_request (Serve.Protocol.request_to_frame req) with
      | Ok req' ->
          Alcotest.(check bool) "request roundtrips" true (req = req')
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
      spans = [ ("parse", 0.25); ("extract", 0.5) ];
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
        Serve.Protocol.Inline
          {
            nrows = 64;
            ncols = 64;
            entries =
              Array.init n (fun i -> (i mod 64, (i * 7) mod 64, float_of_int i));
          }
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
  | Ok (Serve.Protocol.Query { source = Serve.Protocol.Inline { entries; _ }; _ })
    ->
      Alcotest.(check int) "entries parsed" 1 (Array.length entries)
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
             Serve.Protocol.Inline
               { nrows = 4; ncols = 4; entries = [| (1, 2, 0.5) |] };
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
  done

(* ====================================================================== *)
(* Fingerprint                                                            *)
(* ====================================================================== *)

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
  let raw =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let pos = String.length raw - 3 in
  let mangled =
    String.mapi (fun i c -> if i = pos then (if c = 'x' then 'y' else 'x') else c) raw
  in
  let oc = open_out_bin path in
  output_string oc mangled;
  close_out oc;
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

let inline_source m =
  let entries =
    Array.init (Coo.nnz m) (fun k ->
        (m.Coo.rows.(k), m.Coo.cols.(k), m.Coo.vals.(k)))
  in
  Serve.Protocol.Inline { nrows = m.Coo.nrows; ncols = m.Coo.ncols; entries }

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
        ] );
      ( "fingerprint",
        [ Alcotest.test_case "sketch + key" `Quick test_fingerprint ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru;
          Alcotest.test_case "persistence + invalidation" `Quick
            test_cache_persistence;
          Alcotest.test_case "crash sweep" `Slow test_cache_crash_sweep;
          Alcotest.test_case "kernel namespaces" `Quick test_cache_namespaces;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "dedup + cache hits" `Slow test_batch_dedup_and_hits;
          Alcotest.test_case "measure modes + request errors" `Slow
            test_batch_measure_modes_and_errors;
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
