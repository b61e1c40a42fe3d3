(* WACO's cost model (Fig. 6): feature extractor + program embedder + runtime
   predictor.  Trained with the pairwise ranking loss to order SuperSchedules
   per matrix; at inference the sparsity-pattern feature is computed once per
   matrix and reused across every schedule probed (§5.4's search-time
   breakdown depends on exactly this reuse).  Training and inference run
   the same eager layer forwards: one forward per model (DESIGN.md §14). *)

open Schedule

type t = {
  algo : Algorithm.t;
  extractor : Extractor.t;
  embedder : Embedder.t;
  predictor : Nn.Mlp.t;
  feature_cache : (string, float array) Hashtbl.t;
  (* [tail_scorer]'s grow-only buffers: the batch's [emb; one-hot] rows and
     the predictor's first-layer output over them. *)
  mutable tail_rows : float array;
  mutable tail_hidden : float array;
}

(* Predictor input row: feature ++ program embedding ++ kernel one-hot.
   The kernel slot conditions the head on which of the four kernels the
   runtime belongs to, so one model can rank schedules for every kernel its
   embedder rank admits (SpMV/SpMM/SDDMM share rank 2; MTTKRP is rank 3). *)
let row_dim = Config.feature_dim + Config.embed_dim + Kernel.count

let create rng ?(kind = Extractor.Waconet) (algo : Algorithm.t) =
  let rank = Algorithm.sparse_rank algo in
  {
    algo;
    extractor = Extractor.create rng kind;
    embedder = Embedder.create rng ~rank;
    predictor =
      Nn.Mlp.create rng ~name:"predictor" ~dims:[| row_dim; 64; 32; 1 |]
        ~final_relu:false;
    feature_cache = Hashtbl.create 128;
    tail_rows = [||];
    tail_hidden = [||];
  }

let params t =
  Extractor.params t.extractor @ Embedder.params t.embedder @ Nn.Mlp.params t.predictor

(* Forward-only replica for a worker domain: every parameter array is shared
   (so replicas track weight updates made between — never during — parallel
   sections), every forward cache is private.  Replica forwards are the same
   float-op sequence as the original's, so results are bit-identical. *)
let replicate t =
  {
    algo = t.algo;
    extractor = Extractor.replicate t.extractor;
    embedder = Embedder.replicate t.embedder;
    predictor = Nn.Mlp.replicate t.predictor;
    feature_cache = Hashtbl.create 16;
    tail_rows = [||];
    tail_hidden = [||];
  }

(* The kernel the head conditions on when the caller doesn't say: the
   model's own algorithm. *)
let kernel_of t = Kernel.of_algo t.algo

(* Build predictor input rows: the (shared) feature concatenated with each
   program embedding and the kernel's one-hot indicator. *)
let rows_of ~kernel ~feature ~embs ~batch =
  let fd = Config.feature_dim and ed = Config.embed_dim in
  let hot = Kernel.one_hot kernel in
  let rows = Array.make (batch * row_dim) 0.0 in
  for b = 0 to batch - 1 do
    let base = b * row_dim in
    Array.blit feature 0 rows base fd;
    Array.blit embs (b * ed) rows (base + fd) ed;
    Array.blit hot 0 rows (base + fd + ed) Kernel.count
  done;
  rows

(* Training-mode forward: returns predictions and a backward closure that
   pushes d(predictions) through predictor, embedder and extractor.  The
   feature is computed once and its gradient accumulated over the batch. *)
let forward_train ?kernel t (input : Extractor.input)
    (schedules : Superschedule.t array) =
  let kernel = Option.value kernel ~default:(kernel_of t) in
  let batch = Array.length schedules in
  let feature = Extractor.forward t.extractor input in
  let embs = Embedder.forward t.embedder schedules in
  let rows = rows_of ~kernel ~feature ~embs ~batch in
  (* Fresh exact-size predictions: Loss.pairwise checks exact length, and
     callers retain them past the next forward. *)
  let pred = Array.sub (Nn.Mlp.forward t.predictor ~batch rows) 0 batch in
  let backward dpred =
    let drows = Nn.Mlp.backward t.predictor dpred in
    let fd = Config.feature_dim and ed = Config.embed_dim in
    (* The kernel one-hot is an input indicator, not a parameter: its slot
       of [drows] is dropped on the floor. *)
    let dfeat = Array.make fd 0.0 in
    let dembs = Array.make (batch * ed) 0.0 in
    for b = 0 to batch - 1 do
      for i = 0 to fd - 1 do
        dfeat.(i) <- dfeat.(i) +. drows.((b * row_dim) + i)
      done;
      Array.blit drows ((b * row_dim) + fd) dembs (b * ed) ed
    done;
    Embedder.backward t.embedder dembs;
    Extractor.backward t.extractor dfeat
  in
  (pred, backward)

(* --- Inference ---

   Every predict path below runs the same eager layer forwards as
   [forward_train], so it overwrites the layer caches a pending backward
   reads: no inference call may run on an instance between [forward_train]
   and its backward (replicas have caches of their own). *)

(* Width of a tail row: the columns after the feature. *)
let tail_width = row_dim - Config.feature_dim

(* The feature memo's constant bound: 4096 features of [Config.feature_dim]
   floats, about 3 MB with their keys.  A working set larger than that only
   costs recomputation. *)
let feature_capacity = 4096

(* Memoize the features of a whole group of patterns — serve phase B's
   per-kernel-slot batch — one [Extractor.forward] (a fresh array, safe to
   retain) per id not yet memoized; a repeated id finds its first
   occurrence's feature.  Returns which members this call computed.  A
   memo the batch could overflow is reset first, so the batch's features
   survive until its searches read them. *)
let feature_batch t (inputs : Extractor.input array) =
  if Hashtbl.length t.feature_cache + Array.length inputs > feature_capacity then
    Hashtbl.reset t.feature_cache;
  Array.map
    (fun (i : Extractor.input) ->
      let fresh = not (Hashtbl.mem t.feature_cache i.Extractor.id) in
      if fresh then
        Hashtbl.add t.feature_cache i.Extractor.id (Extractor.forward t.extractor i);
      fresh)
    inputs

let feature t (input : Extractor.input) =
  match Hashtbl.find_opt t.feature_cache input.Extractor.id with
  | Some f -> f
  | None ->
      ignore (feature_batch t [| input |] : bool array);
      Hashtbl.find t.feature_cache input.Extractor.id

let clear_feature_cache t = Hashtbl.reset t.feature_cache

(* Program embeddings for a batch of schedules (the vectors the KNN graph is
   built on). *)
let embed t (schedules : Superschedule.t array) = Embedder.forward t.embedder schedules

let grown buf need = if Array.length buf < need then Array.make need 0.0 else buf

(* The predictor against one feature, split at the feature's last column
   (DESIGN.md §14).  Applied to [~feature], it runs the first layer over
   the feature columns once — seeded with the bias, no ReLU: the prefix
   every row of the query shares.  Each later call builds [emb; one-hot]
   rows for [batch] embeddings (read at stride [embed_dim] from offset 0)
   and runs the first layer over them seeded with that prefix, which
   resumes each accumulator where the prefix left it: the same float-op
   chain as the full row.  The later layers run their eager forwards.
   Results are the last layer's scratch (valid prefix [batch]) until the
   predictor's next forward. *)
let tail_scorer ?kernel t ~feature =
  let kernel = Option.value kernel ~default:(kernel_of t) in
  let fd = Config.feature_dim and ed = Config.embed_dim in
  let layers = Nn.Mlp.layers t.predictor in
  let first = layers.(0) in
  let h = first.Nn.Linear.out_dim in
  let prefix = Array.make h 0.0 in
  Nn.Linear.forward_into first ~cols:(0, fd) ~batch:1 ~src:feature ~src_off:0
    ~src_stride:fd ~dst:prefix ~dst_off:0 ~dst_stride:h ~relu:false;
  let hot = Kernel.one_hot kernel in
  fun ~embs ~batch ->
    t.tail_rows <- grown t.tail_rows (batch * tail_width);
    t.tail_hidden <- grown t.tail_hidden (batch * h);
    let rows = t.tail_rows in
    for b = 0 to batch - 1 do
      let base = b * tail_width in
      Array.blit embs (b * ed) rows base ed;
      Array.blit hot 0 rows (base + ed) Kernel.count
    done;
    Nn.Linear.forward_into first ~cols:(fd, row_dim) ~seed:prefix ~batch ~src:rows
      ~src_off:0 ~src_stride:tail_width ~dst:t.tail_hidden ~dst_off:0 ~dst_stride:h
      ~relu:(Nn.Mlp.relu_after t.predictor 0);
    let cur = ref t.tail_hidden in
    for l = 1 to Array.length layers - 1 do
      cur := Nn.Linear.forward ~relu:(Nn.Mlp.relu_after t.predictor l) layers.(l) ~batch !cur
    done;
    !cur

(* Full prediction for a batch of schedules against one matrix. *)
let predict ?kernel t (input : Extractor.input) (schedules : Superschedule.t array) =
  let batch = Array.length schedules in
  let feature = feature t input in
  Array.sub (tail_scorer ?kernel t ~feature ~embs:(embed t schedules) ~batch) 0 batch

(* --- Persistence: flat text dump of all parameters, matched by name, inside
   the checksummed [Robust] artifact envelope and written atomically.  A crash
   mid-save leaves the previous model; any corruption is a typed
   [Robust.Load_error], never silently wrong weights. --- *)

let dump_params t =
  let buf = Buffer.create (1 lsl 16) in
  List.iter (fun p -> Nn.Param.dump p buf) (params t);
  Buffer.contents buf

(* Identity of the current weights — the serving layer stamps its persistent
   schedule cache with it so answers computed under one model are never
   served under another. *)
let digest t = Robust.crc32_hex (dump_params t)

let embed_dim t = Embedder.out_dim t.embedder

(* [validate_compat]-style width check for the kernel-conditioned head: a
   predictor whose input width disagrees with the row builder (e.g. a model
   artifact from a pre-kernel-conditioning build restored into a doctored
   record) must fail with a typed error naming both widths, never mis-slice
   rows into plausible garbage. *)
let validate_head t ~file =
  let got = Nn.Mlp.in_dim t.predictor in
  if got <> row_dim then
    raise
      (Robust.Load_error
         (Robust.Malformed
            {
              file;
              reason =
                Printf.sprintf
                  "predictor input width %d, but rows are feature(%d) + \
                   embedding(%d) + kernel(%d) = %d"
                  got Config.feature_dim Config.embed_dim Kernel.count row_dim;
            }))

let save t path = Robust.write_artifact ~kind:Robust.Kind.model path (dump_params t)

(* Restore parameters from dump lines.  [lineno_base] anchors error messages
   to file lines (the envelope header is line 1, so payloads start at 2). *)
let restore_params t ~file ~lineno_base lines =
  let pos = ref 0 in
  let malformed reason =
    raise (Robust.Load_error (Robust.Malformed { file; reason }))
  in
  let next what =
    if !pos >= Array.length lines then
      malformed
        (Printf.sprintf "dump ends at line %d while reading %s"
           (lineno_base + !pos) what)
    else begin
      let line = lines.(!pos) in
      incr pos;
      line
    end
  in
  List.iter
    (fun p ->
      let header = next ("the header of parameter " ^ p.Nn.Param.name) in
      (match String.split_on_char ' ' header with
      | [ name; n ]
        when name = p.Nn.Param.name && int_of_string_opt n = Some (Nn.Param.size p)
        ->
          ()
      | _ ->
          malformed
            (Printf.sprintf "line %d: parameter mismatch: got %S, expected \"%s %d\""
               (lineno_base + !pos - 1)
               header p.Nn.Param.name (Nn.Param.size p)));
      for i = 0 to Nn.Param.size p - 1 do
        let line = next ("a value of parameter " ^ p.Nn.Param.name) in
        match float_of_string_opt line with
        | Some v -> p.Nn.Param.data.(i) <- v
        | None ->
            malformed
              (Printf.sprintf "line %d: parameter %s: unparseable value %S"
                 (lineno_base + !pos - 1)
                 p.Nn.Param.name line)
      done)
    (params t)

let load t path =
  validate_head t ~file:path;
  (match Robust.read_artifact ~expected_kind:Robust.Kind.model path with
  | Ok payload -> restore_params t ~file:path ~lineno_base:2 (Robust.lines payload)
  | Error (Robust.Not_an_artifact _) -> (
      (* Pre-envelope dump: accept it so old artifacts keep loading. *)
      match Robust.read_file path with
      | Ok contents ->
          restore_params t ~file:path ~lineno_base:1 (Robust.lines contents)
      | Error e -> raise (Robust.Load_error e))
  | Error e -> raise (Robust.Load_error e));
  clear_feature_cache t
