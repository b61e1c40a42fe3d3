(* Hierarchical Navigable Small World graphs (Malkov & Yashunin [31]), the
   graph-based approximate nearest neighbour index WACO searches over.

   Build phase: vertices are inserted with geometrically-sampled levels; each
   level keeps up to M links chosen with the neighbour-selection heuristic
   under the *L2* metric over program embeddings (§4.2.2: the KNN graph is
   built on embedding distance).

   Search phase: [search_by] traverses the same graph greedily under an
   arbitrary scoring function — in WACO's case the predicted runtime
   y(m, s) — exploiting the property that an L2-built KNN graph supports
   retrieval under generic measures (Tan et al. [44]). *)

open Sptensor

type 'a node = {
  vec : float array;
  payload : 'a;
  level : int;
  neighbors : int list array; (* per level 0..level *)
}

type 'a t = {
  dim : int;
  m : int; (* target out-degree on upper levels *)
  m0 : int; (* out-degree on level 0 *)
  ef_construction : int;
  ml : float;
  rng : Rng.t;
  mutable nodes : 'a node array;
  mutable count : int;
  mutable entry : int;
  mutable max_level : int;
}

let create ?(m = 12) ?(ef_construction = 80) ~dim rng =
  {
    dim;
    m;
    m0 = 2 * m;
    ef_construction;
    ml = 1.0 /. log (float_of_int m);
    rng;
    nodes = [||];
    count = 0;
    entry = -1;
    max_level = -1;
  }

let size t = t.count

let get_payload t i = t.nodes.(i).payload

let l2 a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let dist t i q = l2 t.nodes.(i).vec q

(* Every walk below scores nodes in batches: [score ids] returns the
   measure of each [ids.(j)] in slot [j] (extra slots are ignored).  A
   score is a function of its node alone, so scoring a node list together
   and then processing it in order makes the same decisions as scoring
   each node when it is reached. *)
let l2_scores t q ids = Array.map (fun i -> dist t i q) ids

let neighbors_at t id level =
  if level <= t.nodes.(id).level then t.nodes.(id).neighbors.(level) else []

(* Greedy descent from [ep] through levels [from_level] down to
   [to_level]: move to the best-scoring neighbour of the current point
   until none improves, then drop a level.  Each pass scores the current
   point's whole adjacency list in one batch.  Returns the final point. *)
let descend t ~score ~ep ~from_level ~to_level =
  let ep = ref ep in
  let ep_d = ref (score [| !ep |]).(0) in
  for l = from_level downto to_level do
    let improved = ref true in
    while !improved do
      improved := false;
      let nbs = Array.of_list (neighbors_at t !ep l) in
      let ds = score nbs in
      Array.iteri
        (fun j nb ->
          let nd = ds.(j) in
          if nd < !ep_d then begin
            ep := nb;
            ep_d := nd;
            improved := true
          end)
        nbs
    done
  done;
  !ep

(* Greedy beam search restricted to one level; returns up to [ef] best
   (score, id) pairs, ascending.  [score] abstracts the metric so the same
   routine serves both the L2 build and the generic-score query; an
   expanded node's unvisited neighbours are scored in one batch. *)
let search_layer t ~score ~entry_points ~ef ~level =
  let visited = Hashtbl.create 64 in
  let candidates = Heap.create () in (* min-heap by score *)
  let results = Heap.create () in (* min-heap by -score = max-heap *)
  let unvisited ids =
    List.filter
      (fun id ->
        let fresh = not (Hashtbl.mem visited id) in
        if fresh then Hashtbl.add visited id ();
        fresh)
      ids
    |> Array.of_list
  in
  let eps = unvisited entry_points in
  let ds = score eps in
  Array.iteri
    (fun j ep ->
      Heap.push candidates ds.(j) ep;
      Heap.push results (-.ds.(j)) ep)
    eps;
  let continue = ref true in
  while !continue do
    match Heap.pop candidates with
    | None -> continue := false
    | Some (dc, c) ->
        let worst = match Heap.peek results with Some (nd, _) -> -.nd | None -> infinity in
        if dc > worst && Heap.size results >= ef then continue := false
        else begin
          let nbs = unvisited (neighbors_at t c level) in
          let ds = score nbs in
          Array.iteri
            (fun j nb ->
              let d = ds.(j) in
              let worst =
                match Heap.peek results with Some (nd, _) -> -.nd | None -> infinity
              in
              if Heap.size results < ef || d < worst then begin
                Heap.push candidates d nb;
                Heap.push results (-.d) nb;
                if Heap.size results > ef then ignore (Heap.pop results)
              end)
            nbs
        end
  done;
  Heap.to_list results |> List.map (fun (nd, id) -> (-.nd, id))
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

(* Neighbour-selection heuristic from the HNSW paper: accept a candidate only
   if it is closer to the query than to every already-accepted neighbour,
   which keeps links spread across directions. *)
let select_heuristic t ~candidates ~m =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) candidates in
  let chosen = ref [] and n = ref 0 in
  List.iter
    (fun (d, id) ->
      if !n < m then begin
        let ok =
          List.for_all (fun (_, c) -> l2 t.nodes.(id).vec t.nodes.(c).vec >= d) !chosen
        in
        if ok then begin
          chosen := (d, id) :: !chosen;
          incr n
        end
      end)
    sorted;
  (* Backfill with nearest skipped candidates if the heuristic was too picky. *)
  if !n < m then begin
    List.iter
      (fun (d, id) ->
        if !n < m && not (List.exists (fun (_, c) -> c = id) !chosen) then begin
          chosen := (d, id) :: !chosen;
          incr n
        end)
      sorted
  end;
  List.map snd !chosen

let max_degree t level = if level = 0 then t.m0 else t.m

(* Re-prune a node's adjacency after gaining a link. *)
let shrink_links t id level =
  let node = t.nodes.(id) in
  let links = node.neighbors.(level) in
  let cap = max_degree t level in
  if List.length links > cap then begin
    let cands = List.map (fun nb -> (l2 node.vec t.nodes.(nb).vec, nb)) links in
    node.neighbors.(level) <- select_heuristic t ~candidates:cands ~m:cap
  end

let insert t vec payload =
  if Array.length vec <> t.dim then invalid_arg "Hnsw.insert: dimension mismatch";
  let level =
    int_of_float (Float.of_int 0 -. (log (Float.max 1e-12 (Rng.float t.rng)) *. t.ml))
  in
  let node = { vec; payload; level; neighbors = Array.make (level + 1) [] } in
  (* Append node. *)
  if t.count = Array.length t.nodes then begin
    let cap = max 16 (2 * Array.length t.nodes) in
    let bigger = Array.make cap node in
    Array.blit t.nodes 0 bigger 0 t.count;
    t.nodes <- bigger
  end;
  let id = t.count in
  t.nodes.(id) <- node;
  t.count <- t.count + 1;
  if id = 0 then begin
    t.entry <- 0;
    t.max_level <- level
  end
  else begin
    let score = l2_scores t vec in
    let ep = descend t ~score ~ep:t.entry ~from_level:t.max_level ~to_level:(level + 1) in
    (* Connect on each level from min(level, max_level) down to 0. *)
    let eps = ref [ ep ] in
    for l = min level t.max_level downto 0 do
      let found =
        search_layer t ~score ~entry_points:!eps ~ef:t.ef_construction ~level:l
      in
      let selected = select_heuristic t ~candidates:found ~m:(max_degree t l) in
      node.neighbors.(l) <- selected;
      List.iter
        (fun nb ->
          t.nodes.(nb).neighbors.(l) <- id :: t.nodes.(nb).neighbors.(l);
          shrink_links t nb l)
        selected;
      eps := List.map snd found
    done;
    if level > t.max_level then begin
      t.max_level <- level;
      t.entry <- id
    end
  end

(* Greedy descent to level 0, then a beam of [max ef k] there. *)
let walk t ~score ~k ~ef =
  let ep = descend t ~score ~ep:t.entry ~from_level:t.max_level ~to_level:1 in
  let found = search_layer t ~score ~entry_points:[ ep ] ~ef:(max ef k) ~level:0 in
  List.filteri (fun i _ -> i < k) found

(* Approximate k-NN under L2 against a query vector. *)
let search t ~query ~k ?(ef = 50) () =
  if t.count = 0 then [] else walk t ~score:(l2_scores t query) ~k ~ef

(* Generic-measure search: traverse the L2-built graph minimizing an arbitrary
   score over node ids — WACO's ANNS over the predicted runtime.  Scores are
   memoized per query and only unscored ids reach [score_batch], one call per
   batch; returns the top-k (score, id) pairs and the number of ids scored. *)
let search_by t ~score_batch ~k ?(ef = 50) () =
  if t.count = 0 then ([], 0)
  else begin
    let evals = ref 0 in
    let memo = Hashtbl.create 256 in
    let score ids =
      let fresh =
        List.filter
          (fun id ->
            let miss = not (Hashtbl.mem memo id) in
            if miss then Hashtbl.add memo id nan;
            miss)
          (Array.to_list ids)
        |> Array.of_list
      in
      if fresh <> [||] then begin
        let ds = score_batch fresh in
        Array.iteri (fun j id -> Hashtbl.replace memo id ds.(j)) fresh;
        evals := !evals + Array.length fresh
      end;
      Array.map (Hashtbl.find memo) ids
    in
    let found = walk t ~score ~k ~ef in
    (found, !evals)
  end

(* --- Snapshots ---

   Text serialization of the whole graph (structure + vectors + payloads) so
   an index built once can be reused across processes instead of rebuilt per
   query — the build is the expensive half of the tuner's one-off cost.  The
   payload serializer must be single-line; the caller owns payload syntax
   (WACO stores SuperSchedules via their dataset encoding). *)

let dump t ~payload =
  let buf = Buffer.create (4096 + (t.count * 64)) in
  Printf.bprintf buf "HNSW %d %d %d %d %d %d\n" t.dim t.m t.ef_construction t.count
    t.entry t.max_level;
  for i = 0 to t.count - 1 do
    let n = t.nodes.(i) in
    let p = payload n.payload in
    if String.contains p '\n' then
      invalid_arg "Hnsw.dump: payload serialization must be single-line";
    Printf.bprintf buf "N %d %s\n" n.level p;
    Buffer.add_char buf 'V';
    Array.iter (fun v -> Printf.bprintf buf " %.17g" v) n.vec;
    Buffer.add_char buf '\n';
    for l = 0 to n.level do
      Buffer.add_char buf 'A';
      List.iter (fun id -> Printf.bprintf buf " %d" id) n.neighbors.(l);
      Buffer.add_char buf '\n'
    done
  done;
  Buffer.contents buf

(* A short stable identity of the whole graph (structure + vectors +
   payloads), so cached answers derived from one index are never served
   against another.  FNV-1a over the dump text: [dump] is already the
   canonical byte representation, and a 64-bit hash keeps the serving
   layer's cache header free of megabyte-scale digest inputs. *)
let fingerprint t ~payload =
  let text = dump t ~payload in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code ch)))
          0x100000001b3L)
    text;
  Printf.sprintf "%016Lx" !h

exception Restore_error of string

let restore rng ~payload text =
  let fail fmt = Printf.ksprintf (fun m -> raise (Restore_error m)) fmt in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let pos = ref 0 in
  let next what =
    if !pos >= Array.length lines then fail "snapshot ends while reading %s" what
    else begin
      let l = lines.(!pos) in
      incr pos;
      l
    end
  in
  let ints_of what parts =
    List.map
      (fun s ->
        match int_of_string_opt s with
        | Some v -> v
        | None -> fail "%s: unparseable integer %S" what s)
      parts
  in
  let dim, m, ef_construction, count, entry, max_level =
    match String.split_on_char ' ' (next "the header") with
    | "HNSW" :: rest -> (
        match ints_of "header" rest with
        | [ dim; m; efc; count; entry; max_level ] ->
            (dim, m, efc, count, entry, max_level)
        | _ -> fail "malformed HNSW header")
    | _ -> fail "missing HNSW header"
  in
  if dim < 1 || m < 1 || count < 0 then fail "nonsensical HNSW header";
  let t = create ~m ~ef_construction ~dim rng in
  if count > 0 then begin
    let nodes =
      Array.init count (fun i ->
          let level, pay =
            let line = next (Printf.sprintf "node %d" i) in
            match String.index_opt line ' ' with
            | Some sp when String.length line > 2 && String.sub line 0 2 = "N " -> (
                let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
                match String.index_opt rest ' ' with
                | Some sp2 -> (
                    let lvl = String.sub rest 0 sp2 in
                    let p = String.sub rest (sp2 + 1) (String.length rest - sp2 - 1) in
                    match int_of_string_opt lvl with
                    | Some l when l >= 0 -> (l, p)
                    | _ -> fail "node %d: bad level %S" i lvl)
                | None -> fail "node %d: malformed N record" i)
            | _ -> fail "node %d: expected an N record" i
          in
          let vec =
            match String.split_on_char ' ' (next (Printf.sprintf "vector %d" i)) with
            | "V" :: vals ->
                let arr =
                  Array.of_list
                    (List.map
                       (fun s ->
                         match float_of_string_opt s with
                         | Some v -> v
                         | None -> fail "node %d: unparseable vector value %S" i s)
                       vals)
                in
                if Array.length arr <> dim then
                  fail "node %d: vector has %d components, index dim is %d" i
                    (Array.length arr) dim;
                arr
            | _ -> fail "node %d: expected a V record" i
          in
          let neighbors =
            Array.init (level + 1) (fun l ->
                match
                  String.split_on_char ' '
                    (next (Printf.sprintf "adjacency %d of node %d" l i))
                with
                | "A" :: ids ->
                    List.map
                      (fun id ->
                        if id < 0 || id >= count then
                          fail "node %d: neighbor id %d out of range" i id
                        else id)
                      (ints_of "adjacency" ids)
                | _ -> fail "node %d: expected an A record" i)
          in
          { vec; payload = payload pay; level; neighbors })
    in
    if entry < 0 || entry >= count then fail "entry point %d out of range" entry;
    (* The build maintains two invariants the descent loops rely on: the
       header's [max_level] is the maximum node level, and the entry point
       sits at that level.  A snapshot violating either (tampering, a buggy
       writer) would make every search silently start mid-graph, so reject
       it here rather than return wrong neighbours forever. *)
    let table_max = Array.fold_left (fun acc n -> max acc n.level) 0 nodes in
    if max_level <> table_max then
      fail "header max_level %d disagrees with the node table's maximum %d"
        max_level table_max;
    if nodes.(entry).level <> max_level then
      fail "entry node %d has level %d, not the graph's max_level %d" entry
        nodes.(entry).level max_level;
    t.nodes <- nodes;
    t.count <- count;
    t.entry <- entry;
    t.max_level <- max_level
  end;
  t

(* Brute-force exact search, for recall measurements in tests. *)
let brute_force t ~query ~k =
  let all = List.init t.count (fun i -> (dist t i query, i)) in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) all in
  List.filteri (fun i _ -> i < k) sorted
