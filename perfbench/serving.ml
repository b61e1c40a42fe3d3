(* serve-hot and serve-churn: daemons brought up in-process on their own
   domains, driven over Unix sockets by one pipelined client connection.

   serve-hot: one [Serve.Server]; predict-only 128^2/1000-nnz patterns,
   zipf-skewed over a working set far below the cache capacity, after a
   warm-up sweep — every timed query is a cache hit.

   serve-churn: [Serve.Router] over two [Serve.Server] shards, each with a
   single-domain pool and a write-through [cache_file]; 256^2/3000-nnz
   patterns, zipf 0.7, over a working set twice the tier's total cache,
   35% of patterns measured — inserts, evictions, persistence and batched
   misses run beside the reads. *)

open Sptensor
module P = Serve.Protocol

type config = {
  label : string;
  npatterns : int;
  dim : int;
  nnz : int;
  zipf : float;
  measured : int -> bool;
  shards : int;  (** 1: a lone daemon; more: a router in front *)
  cache_capacity : int option;  (** per daemon; [None]: the daemon default *)
  persist : bool;  (** write-through [cache_file] per daemon *)
  window : int;  (** requests the one client connection keeps in flight *)
  replay_len : int;  (** timed queries replayed through [process_batch] *)
}

let hot =
  {
    label = "serve-hot";
    npatterns = 64;
    dim = 128;
    nnz = 1000;
    zipf = 1.0;
    measured = (fun _ -> false);
    shards = 1;
    cache_capacity = None;
    persist = false;
    window = 8;
    replay_len = 4000;
  }

let churn =
  {
    label = "serve-churn";
    npatterns = 128;
    dim = 256;
    nnz = 3000;
    zipf = 0.7;
    (* 31 is coprime to 100: measured patterns fall on hot and cold ranks
       alike. *)
    measured = (fun p -> p * 31 mod 100 < 35);
    shards = 2;
    cache_capacity = Some 32;
    persist = true;
    window = 2;
    replay_len = 400;
  }

let run_dir = ".perfbench-run"

let path name = Filename.concat run_dir name

let remove f = try Sys.remove f with Sys_error _ -> ()

(* --- bringing daemons up and down -------------------------------------- *)

let wait_until ~what f =
  let deadline = Kit.now () +. 30.0 in
  let rec go () =
    match f () with
    | Some x -> x
    | None ->
        if Kit.now () > deadline then failwith (what ^ " never became ready");
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* A light load generator on the public wire format: request frames are
   encoded once, before any timing, and answers decoded out of one reused
   read buffer, so the client leaves the box's CPU to the daemons. *)
module Wire = struct
  type t = { fd : Unix.file_descr; inbuf : Buffer.t; chunk : Bytes.t }

  let connect endpoint =
    let fd =
      wait_until ~what:("a connection to " ^ endpoint) (fun () ->
          match Serve.Addr.connect (Serve.Addr.of_string endpoint) with
          | fd -> Some fd
          | exception (Unix.Unix_error _ | Failure _) -> None)
    in
    { fd; inbuf = Buffer.create 4096; chunk = Bytes.create 65536 }

  let close t = Unix.close t.fd

  let send t frame =
    let rec go off =
      if off < String.length frame then
        go (off + Unix.write_substring t.fd frame off (String.length frame - off))
    in
    go 0

  let recv t =
    let rec go () =
      let s = Buffer.contents t.inbuf in
      match P.decode_frame s with
      | `Frame (msg, body, used) -> (
          Buffer.clear t.inbuf;
          Buffer.add_substring t.inbuf s used (String.length s - used);
          match P.response_of_frame ~msg body with
          | Ok r -> r
          | Error e -> failwith ("undecodable response: " ^ e))
      | `Bad e -> failwith ("damaged response frame: " ^ e)
      | `Need _ ->
          (match Unix.select [ t.fd ] [] [] 60.0 with
          | [], _, _ -> failwith "no response within 60 s"
          | _ -> ());
          let n = Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) in
          if n = 0 then failwith "the daemon hung up";
          Buffer.add_subbytes t.inbuf t.chunk 0 n;
          go ()
    in
    go ()

  let request t frame =
    send t frame;
    recv t
end

(* One control request on a fresh connection. *)
let control endpoint req =
  let w = Wire.connect endpoint in
  let r = Wire.request w (P.request_to_frame req) in
  Wire.close w;
  r

type daemon = { domain : unit Domain.t; endpoint : string }

let spawn ~run ~bound =
  let domain = Domain.spawn run in
  { domain; endpoint = wait_until ~what:"a daemon" bound }

let stop d =
  (match control d.endpoint P.Shutdown with
  | P.Bye -> ()
  | _ -> failwith ("no shutdown answer from " ^ d.endpoint));
  Domain.join d.domain

type tier = {
  servers : Serve.Server.t array;
  pools : Parallel.Pool.t array;
  daemons : daemon array;
  router : daemon option;
  home : int array;  (** pattern -> index of the daemon that owns it *)
}

let front t = match t.router with Some r -> r.endpoint | None -> t.daemons.(0).endpoint

(* One server per shard, each on a forward-only model replica of its own
   and a single-domain pool; [name] keeps socket and cache files of the
   live tier and the replay apart. *)
let make_servers cfg (sys : System.t) ~name =
  let pools = Array.init cfg.shards (fun _ -> Parallel.Pool.create ~domains:1) in
  let servers =
    Array.init cfg.shards (fun i ->
        let cache_file =
          if cfg.persist then begin
            let f = path (Printf.sprintf "%s%d.cache" name i) in
            remove f;
            Some f
          end
          else None
        in
        Serve.Server.create ~pool:pools.(i) ?cache_capacity:cfg.cache_capacity ?cache_file
          ~k:System.k ~ef:System.ef ~model:(Waco.Costmodel.replicate sys.System.model)
          ~index:sys.System.index ~index_file:"<perfbench>" ~machine:Inputs.machine
          ~socket:(path (Printf.sprintf "%s%d.sock" name i)) ())
  in
  (pools, servers)

let counter_of name json = Option.value ~default:0 (Serve.Metrics.json_counter json name)

let tier_up cfg patterns (sys : System.t) =
  let pools, servers = make_servers cfg sys ~name:"shard" in
  let daemons =
    Array.map
      (fun s ->
        spawn ~run:(fun () -> Serve.Server.run s) ~bound:(fun () -> Serve.Server.bound_endpoint s))
      servers
  in
  let endpoints = Array.to_list (Array.map (fun d -> d.endpoint) daemons) in
  let router, home =
    if cfg.shards = 1 then (None, Array.make (Array.length patterns) 0)
    else begin
      let r = Serve.Router.create ~listen:(path "router.sock") ~shards:endpoints () in
      let d =
        spawn ~run:(fun () -> Serve.Router.run r) ~bound:(fun () -> Serve.Router.bound_endpoint r)
      in
      let ring = Serve.Router.Ring.create endpoints in
      let home m =
        let owner = Serve.Router.Ring.lookup ring (Serve.Router.Ring.routing_key (Inputs.fingerprint m)) in
        let rec find i = if daemons.(i).endpoint = owner then i else find (i + 1) in
        find 0
      in
      (Some d, Array.map home patterns)
    end
  in
  (* Ready: every daemon answers, and the router has every shard on its
     ring. *)
  Array.iter
    (fun d ->
      match control d.endpoint P.Ping with
      | P.Pong -> ()
      | _ -> failwith ("no ping answer from " ^ d.endpoint))
    daemons;
  Option.iter
    (fun r ->
      wait_until ~what:"the router's ring" (fun () ->
          match control r.endpoint P.Stats with
          | P.Stats_json j when counter_of "shards_up" j = cfg.shards -> Some ()
          | _ -> None))
    router;
  { servers; pools; daemons; router; home }

let tier_down t =
  Option.iter stop t.router;
  Array.iter stop t.daemons;
  Array.iter Parallel.Pool.shutdown t.pools

(* --- the pipelined client ---------------------------------------------- *)

type record = { pat : int; lat_ms : float; resp : P.response }

(* Keep up to [window] queries in flight; [next ()] names the next
   pattern to send, [None] once sending stops.  Latency runs from just
   before a request is written to the moment its answer is decoded. *)
let drive w ~window ~(frames : string array) ~next =
  let inflight = Queue.create () in
  let out = ref [] in
  let rec fill () =
    if Queue.length inflight < window then
      match next () with
      | Some p ->
          Queue.push (p, Kit.now ()) inflight;
          Wire.send w frames.(p);
          fill ()
      | None -> ()
  in
  fill ();
  while not (Queue.is_empty inflight) do
    let resp = Wire.recv w in
    let t = Kit.now () in
    let p, t0 = Queue.pop inflight in
    out := { pat = p; lat_ms = (t -. t0) *. 1e3; resp } :: !out;
    fill ()
  done;
  Array.of_list (List.rev !out)

let counting n =
  let i = ref 0 in
  fun () ->
    if !i < n then begin
      incr i;
      Some (!i - 1)
    end
    else None

(* --- output checks ------------------------------------------------------ *)

let parse_schedule s =
  match Schedule.Sched_io.parse ~algo:Inputs.algo s with
  | Ok ss when Analysis.Lint.accepts ss -> Some ss
  | _ -> None

(* Every response must be a non-degraded [Answer] whose schedule decodes
   to a legal SuperSchedule, and a repeated fingerprint must get its first
   schedule string back.  [first] collects each pattern's first schedule;
   returns the failed count. *)
let check_records ~label (first : string option array) records =
  let legal = Hashtbl.create 64 in
  let failed = ref 0 in
  Array.iter
    (fun r ->
      let bad msg =
        incr failed;
        Kit.Checks.fail (Printf.sprintf "%s: pattern %d: %s" label r.pat msg)
      in
      match r.resp with
      | P.Answer a ->
          let s = a.P.schedule in
          let ok =
            match Hashtbl.find_opt legal s with
            | Some ok -> ok
            | None ->
                let ok = parse_schedule s <> None in
                Hashtbl.add legal s ok;
                ok
          in
          if not ok then bad "schedule does not decode to a legal SuperSchedule"
          else if a.P.degraded then bad "degraded answer"
          else begin
            match first.(r.pat) with
            | None -> first.(r.pat) <- Some s
            | Some s0 -> if s0 <> s then bad "answer changed for a repeated fingerprint"
          end
      | P.Busy _ -> bad "busy"
      | P.Error_msg e -> bad ("error: " ^ e)
      | _ -> bad "not an answer")
    records;
  !failed

let is_hit = function P.Answer a -> a.P.cache_hit | _ -> false

let count_hits records =
  Array.fold_left (fun n r -> if is_hit r.resp then n + 1 else n) 0 records

let sum_counter servers name =
  Array.fold_left
    (fun acc s ->
      acc + Option.value ~default:0 (Serve.Metrics.counter (Serve.Server.metrics s) name))
    0 servers

(* Every integer following ["key": ] in [json], in order. *)
let all_counters json key =
  let needle = Printf.sprintf "%S:" key in
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length json then List.rev acc
    else if String.sub json i n = needle then
      go (i + n)
        (counter_of key (String.sub json i (String.length json - i)) :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* The router's own totals must equal the sum over its shards, and its
   aggregated shard totals the daemons' own counters.  Returns the
   per-shard routed counts. *)
let check_router ~label ~sent ~servers json =
  match all_counters json "routed" with
  | total :: per_shard ->
      let sum = List.fold_left ( + ) 0 per_shard in
      Kit.Checks.require (total = sum && total = sent)
        (Printf.sprintf "%s: router routed %d, its shards %d, queries sent %d" label total sum sent);
      Kit.Checks.require
        (counter_of "relayed" json = total)
        (Printf.sprintf "%s: router relayed %d of %d routed" label (counter_of "relayed" json) total);
      let totals =
        let key = "\"totals\"" in
        let rec find i =
          if String.sub json i (String.length key) = key then String.sub json i (String.length json - i)
          else find (i + 1)
        in
        find 0
      in
      List.iter
        (fun name ->
          Kit.Checks.require
            (counter_of name totals = sum_counter servers name)
            (Printf.sprintf "%s: router total %s %d, shards %d" label name
               (counter_of name totals) (sum_counter servers name)))
        [ "cache_hits"; "cache_misses"; "answers" ];
      Array.of_list per_shard
  | [] ->
      Kit.Checks.fail (label ^ ": router stats carry no routed counter");
      [||]
  | exception (Not_found | Invalid_argument _) ->
      Kit.Checks.fail (label ^ ": router stats carry no totals");
      [||]

(* fixed-CSR kernel time / simulated time of the served schedule, over
   every pattern of the working set. *)
let speedup patterns (first : string option array) =
  Kit.geomean
    (Array.mapi
       (fun p m ->
         let wl = Machine_model.Workload.of_coo m in
         let csr = Baselines.fixed_csr Inputs.machine wl Inputs.algo in
         match Option.bind first.(p) parse_schedule with
         | Some s -> csr.Baselines.kernel_time /. Machine_model.Costsim.runtime Inputs.machine wl s
         | None ->
             Kit.Checks.fail (Printf.sprintf "pattern %d was never answered" p);
             Float.nan)
       patterns)

(* --- per-layer measurements (traced mode) ------------------------------ *)

(* Client-side protocol and fingerprint work per query over the first
   [codec_sample] recorded queries, repeated until enough time has passed
   to resolve it. *)
let codec_sample = 256

let codec_layers (requests : P.request array) (patterns : Coo.t array) records =
  let records = Array.sub records 0 (min codec_sample (Array.length records)) in
  let n = Array.length records in
  let req_frames = Array.map (fun r -> P.request_to_frame requests.(r.pat)) records in
  let resp_frames = Array.map (fun r -> P.response_to_frame r.resp) records in
  let per_query f =
    let reps = ref 0 and total = ref 0.0 in
    while !total < 0.2 do
      let (), dt = Kit.time (fun () -> for i = 0 to n - 1 do f i done) in
      total := !total +. dt;
      incr reps
    done;
    !total *. 1e6 /. float_of_int (!reps * n)
  in
  let decode frame of_frame =
    match P.decode_frame frame with
    | `Frame (msg, body, _) -> (
        match of_frame ~msg body with
        | Ok _ -> ()
        | Error e -> failwith ("replayed frame does not decode: " ^ e))
    | _ -> failwith "replayed frame is not one whole frame"
  in
  [
    ( "protocol.encode_us",
      per_query (fun i ->
          ignore (P.request_to_frame requests.(records.(i).pat));
          ignore (P.response_to_frame records.(i).resp)),
      "us" );
    ( "protocol.decode_us",
      per_query (fun i ->
          decode req_frames.(i) P.request_of_frame;
          decode resp_frames.(i) P.response_of_frame),
      "us" );
    ( "fingerprint.us",
      per_query (fun i -> ignore (Inputs.fingerprint patterns.(records.(i).pat))),
      "us" );
  ]

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

let query_of = function P.Query q -> q | _ -> invalid_arg "query_of"

type replay = {
  hits : int;
  misses : int;
  missed : int list;  (** distinct patterns that missed, first miss first *)
  window_ms : float;  (** mean [process_batch] time per client window *)
  query_ms : float;  (** [process_batch] time per replayed query *)
  evictions : int;
  save_ms : float;
  live_mb_per_pattern : float;
}

(* [Server.process_batch] over the same query stream on fresh, never-run
   servers of the live tier's shape, each query sent to its home server:
   the warm-up sweep, then the first [replay_len] timed queries, one
   client window at a time.  No socket and no timing decide the batches,
   so the cache counters repeat exactly for a seed. *)
let replay cfg (sys : System.t) ~home ~requests ~stream =
  let pools, servers = make_servers cfg sys ~name:"replay" in
  let live0 = live_mb () in
  let missed = ref [] and windows = ref 0 and window_s = ref 0.0 in
  let run_window pats =
    Array.iteri
      (fun si server ->
        let mine = List.filter (fun p -> home.(p) = si) pats in
        if mine <> [] then begin
          let resps, dt =
            Kit.time (fun () ->
                Serve.Server.process_batch server (List.map (fun p -> query_of requests.(p)) mine))
          in
          window_s := !window_s +. dt;
          List.iter2
            (fun p r ->
              match r with
              | P.Answer a -> if not a.P.cache_hit then missed := p :: !missed
              | _ -> Kit.Checks.fail (cfg.label ^ ": process_batch returned a non-answer"))
            mine resps
        end)
      servers;
    incr windows
  in
  let rec in_windows next =
    let rec take k acc =
      if k = 0 then List.rev acc else match next () with Some p -> take (k - 1) (p :: acc) | None -> List.rev acc
    in
    match take cfg.window [] with
    | [] -> ()
    | w ->
        run_window w;
        in_windows next
  in
  in_windows (counting cfg.npatterns);
  let h0 = sum_counter servers "cache_hits" and m0 = sum_counter servers "cache_misses" in
  missed := [];
  windows := 0;
  window_s := 0.0;
  let left = ref cfg.replay_len in
  in_windows (fun () ->
      if !left > 0 then begin
        decr left;
        Some (stream ())
      end
      else None);
  let live1 = live_mb () in
  let evictions =
    Array.fold_left (fun a s -> a + Serve.Cache.evictions (Serve.Server.cache s)) 0 servers
  in
  (* Only a persisting tier saves its cache; elsewhere the layer is off
     the path and reports 0. *)
  let save_ms =
    if not cfg.persist then 0.0
    else begin
      let f = path "save-probe.cache" in
      let c = Serve.Server.cache servers.(0) in
      let t = Kit.median (Array.init 5 (fun _ -> snd (Kit.time (fun () -> Serve.Cache.save c f)))) in
      remove f;
      t *. 1e3
    end
  in
  Array.iter Parallel.Pool.shutdown pools;
  let seen = Hashtbl.create 64 in
  let missed =
    List.filter
      (fun p ->
        let fresh = not (Hashtbl.mem seen p) in
        Hashtbl.replace seen p ();
        fresh)
      (List.rev !missed)
  in
  {
    hits = sum_counter servers "cache_hits" - h0;
    misses = sum_counter servers "cache_misses" - m0;
    missed;
    window_ms = !window_s *. 1e3 /. float_of_int (max 1 !windows);
    query_ms = !window_s *. 1e3 /. float_of_int cfg.replay_len;
    evictions;
    save_ms;
    live_mb_per_pattern = (live1 -. live0) /. float_of_int cfg.npatterns;
  }

(* The tuning-path layers the misses pay, per answered query: the traced
   tuning path over up to [miss_sample] of the replay's missed patterns,
   scaled by the miss fraction. *)
let miss_sample = 32

let miss_layers cfg (sys : System.t) ~patterns (r : replay) =
  let sample = List.filteri (fun i _ -> i < miss_sample) r.missed in
  let layers = Kit.Layers.create () in
  List.iter
    (fun p ->
      ignore
        (System.traced_query layers sys ~id:(Printf.sprintf "t%d" p) ~measure:(cfg.measured p)
           patterns.(p)))
    sample;
  let scale =
    match sample with
    | [] -> 0.0
    | _ ->
        float_of_int r.misses
        /. float_of_int (r.hits + r.misses)
        /. float_of_int (List.length sample)
  in
  System.tuning_metrics layers ~scale

(* Warm hits through the router minus the same hits sent straight to
   the home shard, median over a few rounds, in microseconds. *)
let router_hop_us tier w ~frames =
  let direct = Array.map (fun d -> Wire.connect d.endpoint) tier.daemons in
  let via_router = ref [] and straight = ref [] in
  let hit c p =
    let r, dt = Kit.time (fun () -> Wire.request c frames.(p)) in
    Kit.Checks.require (is_hit r) "router hop probe: a warm query missed the cache";
    dt
  in
  for p = 0 to min 16 (Array.length frames) - 1 do
    ignore (Wire.request w frames.(p));
    for _ = 1 to 5 do
      via_router := hit w p :: !via_router;
      straight := hit direct.(tier.home.(p)) p :: !straight
    done
  done;
  Array.iter Wire.close direct;
  (Kit.median (Array.of_list !via_router) -. Kit.median (Array.of_list !straight)) *. 1e6

(* --- the workloads ------------------------------------------------------ *)

let run cfg ~seed ~seconds ~trace : Outcome.t =
  let patterns =
    Inputs.distinct_patterns (Rng.create seed) cfg.npatterns
      ~shape:(fun _ _ -> (cfg.dim, cfg.nnz))
  in
  let requests =
    Array.mapi
      (fun i m ->
        P.Query
          {
            qid = Printf.sprintf "p%d" i;
            source = Inputs.source_of m;
            measure = cfg.measured i;
            deadline_ms = 0;
            kernel = None;
          })
      patterns
  in
  let stream () =
    let rng = Rng.create (seed + 1) in
    let pick = Inputs.zipf_sampler ~s:cfg.zipf cfg.npatterns in
    fun () -> pick rng
  in
  let corpus = Inputs.corpus () in
  Robust.mkdir_p run_dir;
  let setup =
    System.repeat ~reps:Outcome.setup_reps corpus ~up:(tier_up cfg patterns) ~down:tier_down
  in
  let sys = setup.System.system and tier = setup.System.env in
  let frames = Array.map P.request_to_frame requests in
  let w = Wire.connect (front tier) in
  let warm = drive w ~window:cfg.window ~frames ~next:(counting cfg.npatterns) in
  let next = stream () in
  let cpu0 = Kit.cpu_now () and t0 = Kit.now () in
  let stop_at = t0 +. seconds in
  let records =
    drive w ~window:cfg.window ~frames ~next:(fun () -> if Kit.now () < stop_at then Some (next ()) else None)
  in
  let wall = Kit.now () -. t0 and cpu = Kit.cpu_now () -. cpu0 in
  let first = Array.make cfg.npatterns None in
  let failed =
    check_records ~label:cfg.label first warm + check_records ~label:cfg.label first records
  in
  (* Counters must add up: every query sent was one hit or one miss on
     some daemon, and the client saw the same hits. *)
  let sent = Array.length warm + Array.length records in
  let hits = sum_counter tier.servers "cache_hits"
  and misses = sum_counter tier.servers "cache_misses" in
  Kit.Checks.require (hits + misses = sent)
    (Printf.sprintf "%s: cache_hits %d + cache_misses %d <> %d queries sent" cfg.label hits
       misses sent);
  Kit.Checks.require
    (hits = count_hits warm + count_hits records)
    (Printf.sprintf "%s: the daemons counted %d hits, the client saw %d" cfg.label hits
       (count_hits warm + count_hits records));
  let routed =
    match tier.router with
    | None -> [||]
    | Some _ -> (
        match Wire.request w (P.request_to_frame P.Stats) with
        | P.Stats_json json -> check_router ~label:cfg.label ~sent ~servers:tier.servers json
        | _ ->
            Kit.Checks.fail (cfg.label ^ ": the router's stats request failed");
            [||])
  in
  let lats =
    Array.map (fun r -> match r.resp with P.Answer _ -> r.lat_ms | _ -> Float.infinity) records
  in
  let answered =
    Array.fold_left
      (fun n r -> match r.resp with P.Answer a when not a.P.degraded -> n + 1 | _ -> n)
      0 records
  in
  let e2e =
    Outcome.e2e ~setup ~answers:answered ~wall ~cpu ~lats
      ~speedup:(speedup patterns first)
  in
  Printf.printf "%s: %d patterns %d^2/%d nnz, zipf %.2f, window %d, %d daemon(s); sent %d (%d warm-up), %d hits\n%!"
    cfg.label cfg.npatterns cfg.dim cfg.nnz cfg.zipf cfg.window cfg.shards sent (Array.length warm) hits;
  let router_layers =
    match tier.router with
    | Some _ when trace ->
        let lo = Array.fold_left min max_int routed and hi = Array.fold_left max 0 routed in
        [
          ("router.hop_us", router_hop_us tier w ~frames, "us");
          ("router.balance", float_of_int lo /. float_of_int (max 1 hi), "ratio");
        ]
    | _ -> []
  in
  let batch_size =
    float_of_int (sum_counter tier.servers "batched_requests")
    /. float_of_int (max 1 (sum_counter tier.servers "batches"))
  in
  Wire.close w;
  tier_down tier;
  let layers =
    if not trace then []
    else begin
      let r = replay cfg sys ~home:tier.home ~requests ~stream:(stream ()) in
      codec_layers requests patterns records
      @ miss_layers cfg sys ~patterns r
      @ router_layers
      @ [
          ("server.batch_ms", r.window_ms, "ms");
          ("server.batch_size", batch_size, "count");
          (* Socket time per answer outside request processing: frame
             IO and decode, the select loop and, on serve-churn, the
             router. *)
          ("server.io_loop_ms", wall *. 1e3 /. float_of_int (Array.length records) -. r.query_ms, "ms");
          ("server.live_mb_per_pattern", r.live_mb_per_pattern, "MB");
          ("cache.hit_rate", float_of_int r.hits /. float_of_int (max 1 (r.hits + r.misses)), "ratio");
          ("cache.evictions", float_of_int r.evictions, "count");
          ("cache.save_ms", r.save_ms, "ms");
        ]
    end
  in
  Array.iter (fun f -> remove (path f)) (try Sys.readdir run_dir with Sys_error _ -> [||]);
  (try Sys.rmdir run_dir with Sys_error _ -> ());
  Outcome.make ~attempted:sent ~failed ~setup ~e2e ~layers

let run_hot = run hot

let run_churn = run churn
