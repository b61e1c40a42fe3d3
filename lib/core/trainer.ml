(* Cost-model training loop (§4.1.3): per step, one matrix's feature forward
   is shared by a batch of SuperSchedule pairs scored with the pairwise hinge
   ranking loss; Adam at lr 1e-4. *)

open Sptensor

type curve = {
  extractor : string;
  epochs : int array;
  train_loss : float array;
  valid_loss : float array;
  valid_acc : float array;
}

(* Assemble a pair-major batch (schedules and truths) from a sample, oriented
   slower-first so every pair carries a ranking constraint.  A sample with no
   schedules (or no pairs) yields an empty batch instead of an out-of-bounds
   placeholder read. *)
let batch_of_pairs (sample : Dataset.sample) (pairs : (int * int) array) =
  let n = Array.length pairs in
  if n = 0 || Array.length sample.Dataset.schedules = 0 then ([||], [||])
  else begin
  let schedules = Array.make (2 * n) sample.Dataset.schedules.(0) in
  let truth = Array.make (2 * n) 0.0 in
  Array.iteri
    (fun p (a, b) ->
      let a, b =
        if sample.Dataset.log_runtimes.(a) >= sample.Dataset.log_runtimes.(b) then (a, b)
        else (b, a)
      in
      schedules.(2 * p) <- sample.Dataset.schedules.(a);
      truth.(2 * p) <- sample.Dataset.log_runtimes.(a);
      schedules.((2 * p) + 1) <- sample.Dataset.schedules.(b);
      truth.((2 * p) + 1) <- sample.Dataset.log_runtimes.(b))
    pairs;
  (schedules, truth)
  end

(* A pair needs two distinct schedules: a sample with fewer than two has no
   ranking constraint to offer (the old [(b + 1) mod n] fallback crashed on
   zero schedules and emitted degenerate [(a, a)] self-pairs on one), so it
   yields no pairs and the training loop skips it.  For n >= 2 a collision
   [b = a] falls back to [(b + 1) mod n], which is never [a]; the fallback
   slightly over-weights [a + 1] (2/n instead of 1/n), accepted deliberately:
   it keeps the draw stream identical to prior releases, so seeded training
   runs stay reproducible across versions. *)
let random_pairs rng (sample : Dataset.sample) ~count =
  let n = Array.length sample.Dataset.schedules in
  if n < 2 then [||]
  else
    Array.init count (fun _ ->
        let a = Rng.int rng n in
        let b = Rng.int rng n in
        (a, if b = a then (b + 1) mod n else b))

(* Ranking loss of the model on a sample's fixed validation pairs
   (forward only). *)
let eval_sample ?kernel model (sample : Dataset.sample) =
  let kernel = Option.value kernel ~default:(Costmodel.kernel_of model) in
  let schedules, truth = batch_of_pairs sample sample.Dataset.valid_pairs in
  let batch = Array.length schedules in
  (* The feature is recomputed, not memoized: eval runs between epochs,
     while the weights are still moving. *)
  let feature = Extractor.forward model.Costmodel.extractor sample.Dataset.input in
  let embs = Costmodel.embed model schedules in
  let pred =
    Array.sub (Costmodel.tail_scorer ~kernel model ~feature ~embs ~batch) 0 batch
  in
  let loss, _ = Nn.Loss.pairwise ~min_gap:0.02 ~truth ~pred () in
  let acc = Nn.Loss.pair_accuracy ~truth ~pred in
  (loss, acc)

(* Forward-only, so samples are independent: with a pool of [d] domains,
   worker [i] evaluates its samples on replica [i] (shared parameters,
   private caches — see [Costmodel.replicate]).  Per-sample results land in
   sample order and the means are folded sequentially, so the parallel run
   returns bit-identical floats to the sequential one. *)
let eval_set ?pool ?kernel model (samples : Dataset.sample array) =
  let kernel = Option.value kernel ~default:(Costmodel.kernel_of model) in
  if Array.length samples = 0 then (0.0, 1.0)
  else begin
    let per_sample =
      match pool with
      | Some p when Parallel.Pool.domains p > 1 ->
          let replicas =
            Array.init (Parallel.Pool.domains p) (fun i ->
                if i = 0 then model else Costmodel.replicate model)
          in
          Parallel.Pool.map_workers p
            (fun ~worker s -> eval_sample ~kernel replicas.(worker) s)
            samples
      | _ -> Array.map (eval_sample ~kernel model) samples
    in
    let tl = ref 0.0 and ta = ref 0.0 in
    Array.iter
      (fun (l, a) ->
        tl := !tl +. l;
        ta := !ta +. a)
      per_sample;
    let n = float_of_int (Array.length samples) in
    (!tl /. n, !ta /. n)
  end

(* --- Checkpointing (crash-safe long runs) ---

   One checkpoint file per epoch inside [spec.dir], written through the
   [Robust] envelope (atomic + checksummed), capturing everything a resumed
   run needs to continue the uninterrupted run bit-for-bit: the epoch
   counter, the RNG state (so the resumed draw stream matches), all model
   parameters, the Adam moments and step count, and the per-epoch curve rows
   so the returned curve covers the whole run. *)

type checkpoint_spec = { dir : string; every : int }

let checkpoint_file dir epoch =
  Filename.concat dir (Printf.sprintf "ckpt-%04d.ckpt" epoch)

let dump_floats buf arr =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%.17g" v))
    arr;
  Buffer.add_char buf '\n'

let write_checkpoint spec model adam rng ~epoch ~trl ~vll ~vla =
  Robust.mkdir_p spec.dir;
  let buf = Buffer.create (1 lsl 16) in
  Printf.bprintf buf "epoch %d\n" epoch;
  Printf.bprintf buf "rng %Ld\n" (Sptensor.Rng.state rng);
  let ms, vs, step_count = Nn.Adam.export_state adam in
  Printf.bprintf buf "adam_step %d\n" step_count;
  for e = 0 to epoch - 1 do
    Printf.bprintf buf "hist %d %.17g %.17g %.17g\n" (e + 1) trl.(e) vll.(e) vla.(e)
  done;
  List.iter2
    (fun p (m, v) ->
      Printf.bprintf buf "param %s %d\n" p.Nn.Param.name (Nn.Param.size p);
      dump_floats buf p.Nn.Param.data;
      Printf.bprintf buf "m %d\n" (Array.length m);
      dump_floats buf m;
      Printf.bprintf buf "v %d\n" (Array.length v);
      dump_floats buf v)
    (Costmodel.params model)
    (List.combine ms vs);
  Robust.write_artifact ~kind:Robust.Kind.checkpoint
    (checkpoint_file spec.dir epoch) (Buffer.contents buf)

(* Restore a checkpoint into [model]/[adam]/[rng]; returns the completed
   epoch count and the curve history rows.  Every malformation is a typed
   [Robust.Load_error], so the resume scan can skip damaged checkpoints. *)
let load_checkpoint path model adam rng =
  let payload = Robust.read_artifact_exn ~expected_kind:Robust.Kind.checkpoint path in
  let lines = Robust.lines payload in
  let pos = ref 0 in
  let malformed fmt =
    Printf.ksprintf
      (fun reason -> raise (Robust.Load_error (Robust.Malformed { file = path; reason })))
      fmt
  in
  let next what =
    if !pos >= Array.length lines then malformed "checkpoint ends while reading %s" what
    else begin
      let line = lines.(!pos) in
      incr pos;
      line
    end
  in
  let keyed key what =
    match String.split_on_char ' ' (next what) with
    | k :: rest when k = key -> rest
    | _ -> malformed "expected a %S line (reading %s)" key what
  in
  let int_field key =
    match keyed key key with
    | [ v ] -> (
        match int_of_string_opt v with
        | Some v -> v
        | None -> malformed "unparseable %s %S" key v)
    | _ -> malformed "malformed %s line" key
  in
  let floats_into what dst =
    let line = next what in
    let parts = String.split_on_char ' ' line in
    if List.length parts <> Array.length dst then
      malformed "%s: expected %d values, got %d" what (Array.length dst)
        (List.length parts);
    List.iteri
      (fun i v ->
        match float_of_string_opt v with
        | Some v -> dst.(i) <- v
        | None -> malformed "%s: unparseable value %S" what v)
      parts
  in
  let epoch = int_field "epoch" in
  let rng_state =
    match keyed "rng" "rng state" with
    | [ v ] -> (
        match Int64.of_string_opt v with
        | Some s -> s
        | None -> malformed "unparseable rng state %S" v)
    | _ -> malformed "malformed rng line"
  in
  let adam_step = int_field "adam_step" in
  let history = ref [] in
  while
    !pos < Array.length lines
    && String.starts_with ~prefix:"hist " lines.(!pos)
  do
    (match String.split_on_char ' ' lines.(!pos) with
    | [ _; e; a; b; c ] -> (
        match
          (int_of_string_opt e, float_of_string_opt a, float_of_string_opt b,
           float_of_string_opt c)
        with
        | Some e, Some a, Some b, Some c -> history := (e, a, b, c) :: !history
        | _ -> malformed "unparseable hist line %S" lines.(!pos))
    | _ -> malformed "malformed hist line %S" lines.(!pos));
    incr pos
  done;
  let params = Costmodel.params model in
  let ms = List.map (fun p -> Array.make (Nn.Param.size p) 0.0) params in
  let vs = List.map (fun p -> Array.make (Nn.Param.size p) 0.0) params in
  List.iter2
    (fun p (m, v) ->
      (match keyed "param" ("parameter " ^ p.Nn.Param.name) with
      | [ name; n ]
        when name = p.Nn.Param.name && int_of_string_opt n = Some (Nn.Param.size p)
        ->
          ()
      | _ -> malformed "parameter mismatch (expected %s %d)" p.Nn.Param.name
               (Nn.Param.size p));
      floats_into ("parameter " ^ p.Nn.Param.name) p.Nn.Param.data;
      (match keyed "m" "first moment header" with
      | [ n ] when int_of_string_opt n = Some (Array.length m) -> ()
      | _ -> malformed "first-moment mismatch for %s" p.Nn.Param.name);
      floats_into ("first moment of " ^ p.Nn.Param.name) m;
      (match keyed "v" "second moment header" with
      | [ n ] when int_of_string_opt n = Some (Array.length v) -> ()
      | _ -> malformed "second-moment mismatch for %s" p.Nn.Param.name);
      floats_into ("second moment of " ^ p.Nn.Param.name) v)
    params
    (List.combine ms vs);
  Nn.Adam.import_state adam ~m:ms ~v:vs ~step_count:adam_step;
  Sptensor.Rng.set_state rng rng_state;
  Costmodel.clear_feature_cache model;
  (epoch, List.rev !history)

(* Newest checkpoint that validates; damaged or partial ones are reported
   through [log] and skipped — never a crash. *)
let resume_from_dir ~dir ~log model adam rng =
  if not (Sys.file_exists dir) then None
  else begin
    (* Order by the parsed epoch number, newest first.  A descending string
       sort agrees with this only while every epoch has the same digit count:
       past epoch 9999 the zero-padded "%04d" widens and "ckpt-9999" sorts
       after "ckpt-10000", resuming from a stale checkpoint. *)
    let epoch_of f =
      let stem = Filename.chop_suffix f ".ckpt" in
      let digits = String.sub stem 5 (String.length stem - 5) in
      int_of_string_opt digits
    in
    let candidates =
      Sys.readdir dir |> Array.to_list
      |> List.filter_map (fun f ->
             if
               String.starts_with ~prefix:"ckpt-" f
               && Filename.check_suffix f ".ckpt"
             then Option.map (fun e -> (e, f)) (epoch_of f)
             else None)
      |> List.sort (fun (ea, a) (eb, b) -> compare (eb, b) (ea, a))
      |> List.map snd
    in
    let rec try_next = function
      | [] -> None
      | f :: rest -> (
          let path = Filename.concat dir f in
          match load_checkpoint path model adam rng with
          | result -> Some (path, result)
          | exception Robust.Load_error e ->
              log
                (Printf.sprintf "warning: skipping invalid checkpoint: %s"
                   (Robust.load_error_to_string e));
              try_next rest)
    in
    try_next candidates
  end

let train ?pool ?(pairs_per_step = 16) ?(lr = 1e-3) ?(log = fun _ -> ())
    ?checkpoint ?(resume = false) rng model (data : Dataset.t) ~epochs =
  let adam = Nn.Adam.create ~lr (Costmodel.params model) in
  let nepochs = max 1 epochs in
  let ep = Array.make nepochs 0 in
  let trl = Array.make nepochs 0.0 in
  let vll = Array.make nepochs 0.0 in
  let vla = Array.make nepochs 0.0 in
  let start_epoch =
    match (resume, checkpoint) with
    | true, Some spec -> (
        match resume_from_dir ~dir:spec.dir ~log model adam rng with
        | None ->
            log "no valid checkpoint found; starting from scratch";
            0
        | Some (path, (epoch, history)) ->
            List.iter
              (fun (e, a, b, c) ->
                if e >= 1 && e <= nepochs then begin
                  ep.(e - 1) <- e;
                  trl.(e - 1) <- a;
                  vll.(e - 1) <- b;
                  vla.(e - 1) <- c
                end)
              history;
            log (Printf.sprintf "resumed from %s at epoch %d" path epoch);
            min epoch nepochs)
    | _ -> 0
  in
  let order = Array.init (Array.length data.Dataset.train) (fun i -> i) in
  for epoch = start_epoch to nepochs - 1 do
    Rng.shuffle rng order;
    let epoch_loss = ref 0.0 in
    Array.iter
      (fun idx ->
        let sample = data.Dataset.train.(idx) in
        let pairs = random_pairs rng sample ~count:pairs_per_step in
        if Array.length pairs = 0 then begin
          (* Fewer than two schedules: no ranking constraint, no step. *)
          if epoch = start_epoch then
            log
              (Printf.sprintf "skipping sample %s: fewer than two schedules"
                 sample.Dataset.input.Extractor.id)
        end
        else begin
          let schedules, truth = batch_of_pairs sample pairs in
          (* Inference runs the same layer forwards and overwrites the
             caches [backward] reads: no feature/embed/predict/tail_scorer
             call on [model] until [backward] has run (replicas are
             exempt).  Evaluation waits for the epoch's steps. *)
          let pred, backward =
            Costmodel.forward_train ~kernel:data.Dataset.kernel model
              sample.Dataset.input schedules
          in
          let loss, dpred = Nn.Loss.pairwise ~min_gap:0.02 ~truth ~pred () in
          epoch_loss := !epoch_loss +. loss;
          backward dpred;
          Nn.Adam.step adam
        end)
      order;
    let vl, va = eval_set ?pool ~kernel:data.Dataset.kernel model data.Dataset.valid in
    ep.(epoch) <- epoch + 1;
    trl.(epoch) <- !epoch_loss /. float_of_int (max 1 (Array.length order));
    vll.(epoch) <- vl;
    vla.(epoch) <- va;
    log
      (Printf.sprintf "epoch %2d  train_loss=%.4f  val_loss=%.4f  val_acc=%.3f"
         (epoch + 1) trl.(epoch) vl va);
    match checkpoint with
    | Some spec when (epoch + 1) mod max 1 spec.every = 0 || epoch = nepochs - 1 ->
        write_checkpoint spec model adam rng ~epoch:(epoch + 1) ~trl ~vll ~vla
    | _ -> ()
  done;
  (* Features were evolving during training; drop any cached ones. *)
  Costmodel.clear_feature_cache model;
  {
    extractor = Extractor.kind_name model.Costmodel.extractor.Extractor.kind;
    epochs = ep;
    train_loss = trl;
    valid_loss = vll;
    valid_acc = vla;
  }
