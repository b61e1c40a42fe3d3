(* Serving-layer chaos harness: a supervised daemon is killed under load,
   over and over, and every run must end the same way — zero cache
   corruption (the write-through snapshot always re-verifies), zero hung
   clients (every wait is bounded), every in-flight request resolved as an
   answer, a [Busy] shed, an error, or a clean connection drop, and a
   restarted worker comes up warm, answering from the persisted cache
   without a single index traversal.  Alongside the kill loop: unit tests
   for the supervisor's restart/backoff/give-up policy, and deterministic
   serving fault points ([Robust.Faults]) driven in-process — partial
   socket IO, a connection dropped mid-frame, a stuck measurement racing a
   deadline. *)

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

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Transport parametrization, mirroring test_serve: WACO_TEST_TRANSPORT=tcp
   (the @tcp alias) reruns the chaos sweeps with every daemon on
   127.0.0.1, the port derived from the would-be socket path's hash —
   subprocess daemons cannot report a kernel-chosen port back. *)
let tcp_transport = Sys.getenv_opt "WACO_TEST_TRANSPORT" = Some "tcp"

let endpoint_in dir name =
  let path = Filename.concat dir name in
  if tcp_transport then
    Printf.sprintf "tcp:127.0.0.1:%d" (20000 + (Hashtbl.hash path mod 20000))
  else path

let endpoint_unbound ep =
  if tcp_transport then
    match Serve.Client.connect ~timeout_s:0.5 ep with
    | c ->
        Serve.Client.close c;
        false
    | exception (Unix.Unix_error _ | Failure _) -> true
  else not (Sys.file_exists ep)

(* --- shared fixture: an untrained (but deterministic) model + index ---- *)

let fixture =
  lazy
    (let model = Waco.Costmodel.create (Rng.create 11) algo in
     let rng = Rng.create 3 in
     let corpus =
       Array.init 32 (fun _ -> Space.sample rng algo ~dims:[| 48; 48 |])
     in
     let index = Waco.Tuner.build_index (Rng.create 7) model corpus in
     (model, index))

let small_matrix seed = Gen.uniform (Rng.create seed) ~nrows:48 ~ncols:48 ~nnz:220

let inline_source m = Serve.Protocol.Matrix m

(* --- trampolines ------------------------------------------------------ *)
(* OCaml 5 forbids [Unix.fork] once any domain has been spawned, and the
   in-process fault tests below spawn one for their server — so everything
   that forks (the supervisor) runs in a fresh copy of this executable,
   selected by env var before Alcotest takes over. *)

(* Mode 1: a supervised serving daemon.  The supervisor writes each new
   worker's pid to a file; the chaos loop aims its SIGKILLs there. *)
let () =
  match Sys.getenv_opt "WACO_TEST_CHAOS_SOCKET" with
  | None -> ()
  | Some socket ->
      let cache_file = Sys.getenv "WACO_TEST_CHAOS_CACHE" in
      let pidfile = Sys.getenv "WACO_TEST_CHAOS_PIDFILE" in
      let worker () =
        let model, index = Lazy.force fixture in
        let server =
          Serve.Server.create ~cache_file ~k:4 ~ef:16 ~model ~index
            ~index_file:"<fixture>" ~machine ~socket ()
        in
        Serve.Server.run server
      in
      let code =
        match
          Serve.Supervisor.run ~max_restarts:64 ~base_s:0.01 ~max_s:0.05
            ~healthy_s:0.25 ~seed:42
            ~on_spawn:(fun pid ->
              Robust.write_atomic_string pidfile (string_of_int pid))
            worker
        with
        | Serve.Supervisor.Clean | Serve.Supervisor.Stopped -> 0
        | Serve.Supervisor.Gave_up _ -> 3
      in
      exit code

(* Mode 2: supervisor policy unit — a worker that crashes [crashes] times
   (counted in a file across incarnations) before exiting cleanly, under a
   [max_restarts] budget.  Prints the supervisor's verdict. *)
let () =
  match Sys.getenv_opt "WACO_TEST_CHAOS_CRASHER" with
  | None -> ()
  | Some spec ->
      let crashes, max_restarts, counter =
        Scanf.sscanf spec "%d:%d:%s" (fun a b c -> (a, b, c))
      in
      let worker () =
        let n =
          try int_of_string (String.trim (read_file counter)) with _ -> 0
        in
        Robust.write_atomic_string counter (string_of_int (n + 1));
        if n < crashes then failwith "injected crash"
      in
      (match
         Serve.Supervisor.run ~max_restarts ~base_s:0.005 ~max_s:0.02
           ~healthy_s:60.0 ~seed:7 worker
       with
      | Serve.Supervisor.Clean ->
          print_string "clean";
          exit 0
      | Serve.Supervisor.Stopped ->
          print_string "stopped";
          exit 0
      | Serve.Supervisor.Gave_up n ->
          Printf.printf "gave_up %d" n;
          exit 3)

(* --- subprocess plumbing ---------------------------------------------- *)

let spawn_with_env extra =
  let env = Array.append (Unix.environment ()) extra in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name |]
    env Unix.stdin Unix.stdout Unix.stderr

let wait_connect path =
  let rec go attempts =
    match Serve.Client.connect ~timeout_s:1.0 path with
    | c -> c
    | exception (Unix.Unix_error _ | Failure _) when attempts > 0 ->
        Unix.sleepf 0.05;
        go (attempts - 1)
  in
  go 200

(* ====================================================================== *)
(* Supervisor policy                                                      *)
(* ====================================================================== *)

(* A worker that crashes three times is restarted three times (with
   backoff) and then runs to a clean exit: four incarnations total. *)
let test_supervisor_restarts () =
  let dir = tmpdir "waco-chaos-sup" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let counter = Filename.concat dir "count" in
      let out = Filename.concat dir "out" in
      let out_fd =
        Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
      in
      let env =
        Array.append (Unix.environment ())
          [| Printf.sprintf "WACO_TEST_CHAOS_CRASHER=3:10:%s" counter |]
      in
      let pid =
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name |]
          env Unix.stdin out_fd Unix.stderr
      in
      let _, status = Unix.waitpid [] pid in
      Unix.close out_fd;
      Alcotest.(check bool) "supervisor exits 0 after recovery" true
        (status = Unix.WEXITED 0);
      Alcotest.(check string) "verdict is clean" "clean" (read_file out);
      Alcotest.(check string) "3 crashes + 1 clean run" "4"
        (String.trim (read_file counter)))

(* A worker that never stops crashing exhausts the consecutive-crash budget
   and the supervisor gives up instead of flapping forever. *)
let test_supervisor_gives_up () =
  let dir = tmpdir "waco-chaos-sup" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let counter = Filename.concat dir "count" in
      let out = Filename.concat dir "out" in
      let out_fd =
        Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
      in
      let env =
        Array.append (Unix.environment ())
          [| Printf.sprintf "WACO_TEST_CHAOS_CRASHER=1000:2:%s" counter |]
      in
      let pid =
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name |]
          env Unix.stdin out_fd Unix.stderr
      in
      let _, status = Unix.waitpid [] pid in
      Unix.close out_fd;
      Alcotest.(check bool) "supervisor exits nonzero" true
        (status = Unix.WEXITED 3);
      Alcotest.(check string) "verdict carries the crash count" "gave_up 3"
        (read_file out);
      Alcotest.(check string) "budget bounds the incarnations" "3"
        (String.trim (read_file counter)))

(* ====================================================================== *)
(* Kill-under-load: the main chaos loop                                   *)
(* ====================================================================== *)

let kill_iterations = 22

let test_kill_under_load () =
  let dir = tmpdir "waco-chaos-kill" in
  let socket = endpoint_in dir "waco.sock" in
  let cache_file = Filename.concat dir "cache.waco" in
  let pidfile = Filename.concat dir "worker.pid" in
  let read_pid () =
    match int_of_string_opt (String.trim (read_file pidfile)) with
    | Some pid when pid > 0 -> Some pid
    | _ -> None
    | exception Sys_error _ -> None
  in
  let sup =
    spawn_with_env
      [|
        "WACO_TEST_CHAOS_SOCKET=" ^ socket;
        "WACO_TEST_CHAOS_CACHE=" ^ cache_file;
        "WACO_TEST_CHAOS_PIDFILE=" ^ pidfile;
      |]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill sup Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] sup) with Unix.Unix_error _ -> ());
      (* A SIGKILLed supervisor cannot reap its worker; do it here. *)
      (match read_pid () with
      | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | None -> ());
      rm_rf dir)
    (fun () ->
      let m = small_matrix 5 in
      let src = inline_source m in
      (* Seed: one measured answer lands in the write-through cache. *)
      (match
         Serve.Client.query_with_retry ~attempts:10 ~base_s:0.05 ~qid:"seed"
           ~socket src
       with
      | Ok a ->
          Alcotest.(check bool) "seed is a full answer" false
            a.Serve.Protocol.degraded
      | Error e -> Alcotest.failf "seeding the cache failed: %s" e);
      Alcotest.(check bool) "write-through snapshot exists" true
        (Sys.file_exists cache_file);
      for i = 1 to kill_iterations do
        (* The pid on file names the worker that just answered — once the
           supervisor has written it.  It writes the file just after the
           fork, so under load the new worker can answer while the file
           still names its reaped predecessor; wait (bounded) until the
           pid on file is alive. *)
        let alive pid =
          match Unix.kill pid 0 with
          | () -> true
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
        in
        let rec live_pid tries =
          match read_pid () with
          | Some pid when alive pid -> pid
          | _ when tries > 0 ->
              Unix.sleepf 0.01;
              live_pid (tries - 1)
          | Some _ -> Alcotest.failf "iteration %d: pid on file stays dead" i
          | None -> Alcotest.failf "iteration %d: no worker pid on file" i
        in
        let pid = live_pid 500 in
        (* Fire a request and kill the worker while it is in flight.  The
           client must resolve either way — an answer if the response beat
           the kill, or a bounded connection drop — never a hang. *)
        (match Serve.Client.connect ~timeout_s:5.0 socket with
        | c ->
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                Serve.Client.send c
                  (Serve.Protocol.Query
                     { qid = Printf.sprintf "inflight%d" i; source = src;
                       measure = true; deadline_ms = 0; kernel = None });
                Unix.kill pid Sys.sigkill;
                match Serve.Client.recv ~timeout_s:10.0 c with
                | Serve.Protocol.Answer _ | Serve.Protocol.Busy _
                | Serve.Protocol.Error_msg _ ->
                    ()
                | _ -> Alcotest.failf "iteration %d: unexpected response" i
                | exception (Failure _ | Unix.Unix_error (_, _, _) | End_of_file)
                  ->
                    (* Dropped mid-request: resolved, not hung. *)
                    ())
        | exception (Unix.Unix_error (_, _, _) | Failure _) ->
            (* Lost the connect race against the kill; the worker is (or
               will be) dead either way. *)
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
        (* The supervisor must bring a worker back, and the retrying client
           must get its answer from it — bounded attempts, no hang. *)
        (match
           Serve.Client.query_with_retry ~attempts:10 ~base_s:0.02 ~max_s:0.2
             ~qid:(Printf.sprintf "after%d" i) ~socket src
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "iteration %d: no answer after kill: %s" i e);
        (* Zero corruption, every time: the snapshot on disk re-verifies
           (checksummed envelope) no matter where the kill landed. *)
        match Robust.read_artifact ~expected_kind:Robust.Kind.cache cache_file with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "iteration %d: cache snapshot damaged: %s" i
              (Robust.load_error_to_string e)
      done;
      (* The surviving worker restarted warm: the seeded answer comes from
         its persisted cache, with zero traversals and zero forwards. *)
      let c = wait_connect socket in
      (match Serve.Client.query ~qid:"warm" c src with
      | Ok a ->
          Alcotest.(check bool) "post-restart answer is a cache hit" true
            a.Serve.Protocol.cache_hit
      | Error e -> Alcotest.failf "post-restart query: %s" e);
      (match Serve.Client.stats c with
      | Ok json ->
          Alcotest.(check (option int)) "0 traversals after restart" (Some 0)
            (Serve.Metrics.json_counter json "traversals");
          Alcotest.(check (option int)) "0 forwards after restart" (Some 0)
            (Serve.Metrics.json_counter json "extractor_forwards")
      | Error e -> Alcotest.failf "post-restart stats: %s" e);
      (* Clean shutdown rides through the supervisor: worker exit 0 is not
         a crash, so the whole tree exits 0. *)
      Alcotest.(check bool) "shutdown" true (Serve.Client.shutdown c);
      Serve.Client.close c;
      let _, status = Unix.waitpid [] sup in
      Alcotest.(check bool) "supervisor exits 0 on clean shutdown" true
        (status = Unix.WEXITED 0))

(* ====================================================================== *)
(* Serving fault points, in-process                                       *)
(* ====================================================================== *)

(* An in-process daemon (its own domain) so the armed [Robust.Faults]
   globals are shared with the server loop under test. *)
let with_inproc_server f =
  let dir = tmpdir "waco-chaos-inproc" in
  let socket = endpoint_in dir "waco.sock" in
  let model, index = Lazy.force fixture in
  let server =
    Serve.Server.create ~k:4 ~ef:16 ~model ~index ~index_file:"<fixture>"
      ~machine ~socket ()
  in
  let daemon = Domain.spawn (fun () -> Serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Robust.Faults.reset ();
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
      let probe = wait_connect socket in
      ignore (Serve.Client.ping probe);
      Serve.Client.close probe;
      f ~socket ~server)

(* Partial socket IO: with every daemon-side read and write capped at a few
   bytes, requests still decode and answers still arrive — byte-for-byte
   correct, just slower. *)
let test_fault_partial_io () =
  with_inproc_server (fun ~socket ~server:_ ->
      let m = small_matrix 41 in
      let c = wait_connect socket in
      Robust.Faults.arm_partial_net ~cap:7 1_000_000;
      (match Serve.Client.query ~measure:false ~qid:"partial" c (inline_source m) with
      | Ok a ->
          Alcotest.(check bool) "answer survives 7-byte IO" true
            (String.length a.Serve.Protocol.schedule > 0)
      | Error e -> Alcotest.failf "query under partial IO: %s" e);
      Robust.Faults.reset ();
      Serve.Client.close c)

(* A connection dropped mid-frame kills that client's connection, and
   nothing else: the daemon keeps serving. *)
let test_fault_mid_frame_drop () =
  with_inproc_server (fun ~socket ~server:_ ->
      let m = small_matrix 42 in
      let victim = wait_connect socket in
      (* Settle the loop first (the probe's EOF must not eat the armed
         drop): after this ping the victim's next frame is the first socket
         op the daemon sees. *)
      ignore (Serve.Client.ping victim);
      Robust.Faults.arm_net_drop_at 1;
      (match
         Serve.Client.query ~measure:false ~qid:"victim" ~timeout_s:5.0 victim
           (inline_source m)
       with
      | Ok _ -> Alcotest.fail "dropped connection still answered"
      | Error _ -> ()
      | exception (Failure _ | Unix.Unix_error (_, _, _) | End_of_file) -> ());
      Robust.Faults.reset ();
      Serve.Client.close victim;
      let c = wait_connect socket in
      Alcotest.(check bool) "daemon survives the drop" true
        (Serve.Client.ping c);
      Serve.Client.close c)

(* A stuck measurement racing a deadline: the watchdog truncates the
   measurement phase, the answer comes back degraded with reason
   "deadline", and the round trip stays bounded. *)
let test_fault_stuck_measurement () =
  with_inproc_server (fun ~socket ~server:_ ->
      let m = small_matrix 43 in
      let c = wait_connect socket in
      Robust.Faults.arm_stuck_measures ~seconds:0.25 8;
      let t0 = Unix.gettimeofday () in
      (match
         Serve.Client.query ~deadline_ms:60 ~qid:"stuck" ~timeout_s:30.0 c
           (inline_source m)
       with
      | Ok a ->
          Alcotest.(check bool) "stuck measurement: degraded" true
            a.Serve.Protocol.degraded;
          Alcotest.(check (option string)) "reason is the deadline"
            (Some "deadline") a.Serve.Protocol.degraded_reason
      | Error e -> Alcotest.failf "query under stuck measurement: %s" e);
      Robust.Faults.reset ();
      Alcotest.(check bool) "watchdog bounded the round trip" true
        (Unix.gettimeofday () -. t0 < 10.0);
      Serve.Client.close c)

(* An NTP-style wall-clock step landing mid-request must not blow the
   deadline: every deadline/elapsed path runs on the monotonic clock
   (DESIGN.md §12), which a stepping wall clock never moves.  The request is
   pinned in flight by stalled measurements, the wall clock jumps an hour
   forward underneath it, and the answer still comes back full-fat. *)
let test_fault_clock_step () =
  with_inproc_server (fun ~socket ~server ->
      let m = small_matrix 44 in
      let c = wait_connect socket in
      (* Keep the request computing long enough for the step to land while
         its deadline budget is live. *)
      Robust.Faults.arm_stuck_measures ~seconds:0.1 4;
      Serve.Client.send c
        (Serve.Protocol.Query
           {
             qid = "ntp";
             source = inline_source m;
             measure = true;
             deadline_ms = 30_000;
             kernel = None;
           });
      (* Let the daemon stamp the arrival on the pre-step clock... *)
      Unix.sleepf 0.05;
      (* ...then step the wall clock an hour forward, mid-request. *)
      Robust.Faults.arm_clock_skew ~seconds:3600.0;
      (match Serve.Client.recv ~timeout_s:30.0 c with
      | Serve.Protocol.Answer a ->
          Alcotest.(check bool) "clock step: not degraded" false
            a.Serve.Protocol.degraded;
          Alcotest.(check bool) "clock step: fully measured" true
            (Float.is_finite a.Serve.Protocol.measured)
      | Serve.Protocol.Error_msg e ->
          Alcotest.failf "query under clock step: %s" e
      | _ -> Alcotest.fail "unexpected response under clock step");
      Robust.Faults.reset ();
      Alcotest.(check (option int)) "no spurious deadline miss" (Some 0)
        (Serve.Metrics.counter (Serve.Server.metrics server) "deadline_misses");
      Serve.Client.close c)

let () =
  Alcotest.run "chaos"
    [
      ( "supervisor",
        [
          Alcotest.test_case "crash, restart, recover" `Quick
            test_supervisor_restarts;
          Alcotest.test_case "crash loop gives up" `Quick
            test_supervisor_gives_up;
        ] );
      ( "kill-under-load",
        [ Alcotest.test_case "SIGKILL x22 under load" `Slow test_kill_under_load ] );
      ( "fault-points",
        [
          Alcotest.test_case "partial socket IO" `Slow test_fault_partial_io;
          Alcotest.test_case "mid-frame drop" `Slow test_fault_mid_frame_drop;
          Alcotest.test_case "stuck measurement vs deadline" `Slow
            test_fault_stuck_measurement;
          Alcotest.test_case "wall-clock step vs monotonic deadline" `Slow
            test_fault_clock_step;
        ] );
    ]
