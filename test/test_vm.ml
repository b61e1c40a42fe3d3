(* Inference-VM safety net (the @vm alias): compiled plans must be bitwise
   equal to the eager layers on every served kernel, allocate nothing in
   steady state, and leave the training path untouched (DESIGN.md §14). *)

open Sptensor

let rng () = Rng.create 20230325

(* Every kernel the serving daemon conditions on, with sampling dims of the
   matching sparse rank. *)
let kernels =
  [
    ("spmv", Schedule.Algorithm.Spmv, [| 96; 96 |]);
    ("spmm", Schedule.Algorithm.Spmm 8, [| 96; 96 |]);
    ("sddmm", Schedule.Algorithm.Sddmm 8, [| 96; 96 |]);
    ("mttkrp", Schedule.Algorithm.Mttkrp 8, [| 48; 48; 48 |]);
  ]

let batches = [ 1; 7; 32 ]

let check_bits what (want : float array) (got : float array) =
  if Array.length want <> Array.length got then
    Alcotest.failf "%s: length %d vs %d" what (Array.length want)
      (Array.length got);
  Array.iteri
    (fun i w ->
      if Int64.bits_of_float w <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s: element %d: eager %h vs vm %h" what i w got.(i))
    want

(* --- extractor: forward_batch vs one eager forward per input --- *)

let extractor_inputs r ~count ~tag =
  Array.init count (fun i ->
      let m =
        if i mod 2 = 0 then
          Gen.uniform r ~nrows:96 ~ncols:96 ~nnz:(300 + (i * 13))
        else Gen.rmat r ~nnz:(250 + (i * 11)) ~nrows:128 ~ncols:128
      in
      Waco.Extractor.input_of_coo ~id:(Printf.sprintf "%s%d" tag i) m)

let check_extractor_kind kind =
  let r = rng () in
  let e = Waco.Extractor.create r kind in
  let cp = Waco.Extractor.compile e in
  let name = Waco.Extractor.kind_name kind in
  let inputs = extractor_inputs r ~count:32 ~tag:name in
  let fd = e.Waco.Extractor.out_dim in
  let eager = Array.map (fun i -> Array.copy (Waco.Extractor.forward e i)) inputs in
  List.iter
    (fun batch ->
      let out = Waco.Extractor.forward_batch cp (Array.sub inputs 0 batch) in
      for n = 0 to batch - 1 do
        check_bits
          (Printf.sprintf "%s batch=%d row %d" name batch n)
          eager.(n)
          (Array.sub out (n * fd) fd)
      done)
    batches

let test_extractor_batch_parity () =
  List.iter check_extractor_kind
    [
      Waco.Extractor.Waconet;
      Waco.Extractor.Human;
      Waco.Extractor.Minkowski;
      Waco.Extractor.Dense_conv;
    ]

(* --- embedder: forward_compiled vs eager forward, per kernel --- *)

let test_embedder_parity () =
  List.iter
    (fun (name, algo, dims) ->
      let r = rng () in
      let model = Waco.Costmodel.create (Rng.create 77) algo in
      let emb = model.Waco.Costmodel.embedder in
      let cp = Waco.Embedder.compile emb in
      let ed = Waco.Embedder.out_dim emb in
      let scheds = Array.init 32 (fun _ -> Schedule.Space.sample r algo ~dims) in
      List.iter
        (fun batch ->
          let sub = Array.sub scheds 0 batch in
          let eager = Array.sub (Waco.Embedder.forward emb sub) 0 (batch * ed) in
          let vm = Array.sub (Waco.Embedder.forward_compiled cp sub) 0 (batch * ed) in
          check_bits (Printf.sprintf "embedder %s batch=%d" name batch) eager vm)
        batches)
    kernels

(* --- full predict path vs hand-built eager layers, per kernel --- *)

let check_predict_parity ~what model input scheds =
  let kernel = Waco.Costmodel.kernel_of model in
  let ext = model.Waco.Costmodel.extractor in
  let emb = model.Waco.Costmodel.embedder in
  let ed = Waco.Embedder.out_dim emb in
  List.iter
    (fun batch ->
      let sub = Array.sub scheds 0 batch in
      let feature = Array.copy (Waco.Extractor.forward ext input) in
      let embs = Array.sub (Waco.Embedder.forward emb sub) 0 (batch * ed) in
      let rows = Waco.Costmodel.rows_of ~kernel ~feature ~embs ~batch in
      let eager =
        Array.sub
          (Nn.Mlp.forward model.Waco.Costmodel.predictor ~batch rows)
          0 batch
      in
      let vm = Waco.Costmodel.predict model input sub in
      check_bits (Printf.sprintf "%s batch=%d" what batch) eager vm)
    batches

let test_predict_parity () =
  List.iter
    (fun (name, algo, dims) ->
      let r = rng () in
      let model = Waco.Costmodel.create (Rng.create 77) algo in
      let m = Gen.uniform r ~nrows:96 ~ncols:96 ~nnz:600 in
      let input = Waco.Extractor.input_of_coo ~id:("p_" ^ name) m in
      let scheds = Array.init 32 (fun _ -> Schedule.Space.sample r algo ~dims) in
      check_predict_parity ~what:("predict " ^ name) model input scheds)
    kernels

(* Trained weights: the plan shares parameter arrays with the eager layers,
   so in-place optimizer updates must stay visible.  Recipe mirrors
   test_perf's golden run. *)
let test_trained_predict_parity () =
  let machine = Machine_model.Machine.intel_like in
  let algo = Schedule.Algorithm.Spmm 8 in
  let trng = Rng.create 4242 in
  let mats =
    Gen.suite trng ~count:4 ~max_dim:96 ~max_nnz:2000
    |> List.map (fun (g : Gen.named) -> (g.Gen.name, g.Gen.matrix))
  in
  let data =
    Waco.Dataset.of_matrices trng machine algo mats ~schedules_per_matrix:6
      ~valid_fraction:0.25
  in
  let model = Waco.Costmodel.create (Rng.create 77) algo in
  let _curve = Waco.Trainer.train trng model data ~epochs:2 in
  Waco.Costmodel.clear_feature_cache model;
  let r = rng () in
  let m = Gen.uniform r ~nrows:96 ~ncols:96 ~nnz:600 in
  let input = Waco.Extractor.input_of_coo ~id:"trained" m in
  let scheds =
    Array.init 32 (fun _ -> Schedule.Space.sample r algo ~dims:[| 96; 96 |])
  in
  check_predict_parity ~what:"trained predict" model input scheds

(* --- prefix-seeded predictor tail vs the full-row MLP --- *)

(* The graph walk's scorer runs the predictor's first layer over the
   feature columns once per query and resumes that reduction per batch of
   embeddings (DESIGN.md §14).  Every prediction must equal Nn.Mlp.forward
   over the full row, bit for bit, for each kernel's one-hot.  All four
   scorers of a feature are built before any of them runs, so each call
   follows another scorer's and must re-seed the shared plan. *)
let test_tail_prefix_parity () =
  let r = rng () in
  let fd = Waco.Config.feature_dim and ed = Waco.Config.embed_dim in
  List.iter
    (fun (name, algo, _) ->
      let model = Waco.Costmodel.create (Rng.create 91) algo in
      for trial = 0 to 1 do
        let feature = Array.init fd (fun _ -> Rng.float_in r (-4.0) 4.0) in
        let scorers =
          List.map
            (fun kernel -> (kernel, Waco.Costmodel.tail_scorer ~kernel model ~feature))
            Waco.Kernel.all
        in
        List.iter
          (fun batch ->
            let embs = Array.init (batch * ed) (fun _ -> Rng.float_in r (-3.0) 3.0) in
            List.iter
              (fun (kernel, score) ->
                let rows = Waco.Costmodel.rows_of ~kernel ~feature ~embs ~batch in
                let want =
                  Array.sub (Nn.Mlp.forward model.Waco.Costmodel.predictor ~batch rows) 0 batch
                in
                check_bits
                  (Printf.sprintf "%s trial %d %s batch=%d" name trial
                     (Waco.Kernel.name kernel) batch)
                  want
                  (Array.sub (score ~embs ~batch) 0 batch))
              scorers)
          [ 1; 3; 4; 5; 7; 32 ]
      done)
    kernels

(* --- steady-state allocation budgets --- *)

(* A pure-GEMM plan (the predictor-tail shape) must allocate nothing at all
   once warm: the tape, views and arena are fixed, and forward_into writes
   in place. *)
let test_run_batch_zero_alloc () =
  let r = rng () in
  let m = Nn.Mlp.create r ~name:"vmz" ~dims:[| 24; 32; 16 |] ~final_relu:false in
  let b = Vm.Plan.builder () in
  let ib = Vm.Plan.fresh b in
  let ob = Vm.Plan.fresh b in
  let dst = { Vm.Plan.buf = ob; off = 0; stride = 16 } in
  Vm.Plan.mlp b m ~src:{ Vm.Plan.buf = ib; off = 0; stride = 24 } ~dst;
  let plan = Vm.Plan.finish b ~nlayers:0 ~out:dst in
  let batch = 32 in
  let buf = Vm.Plan.buffer plan ib ~len:(batch * 24) in
  for i = 0 to (batch * 24) - 1 do
    buf.(i) <- Rng.float_in r (-1.0) 1.0
  done;
  for _ = 1 to 3 do
    ignore (Vm.Plan.run_batch plan ~batch)
  done;
  let iters = 20 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to iters do
    ignore (Vm.Plan.run_batch plan ~batch)
  done;
  let per_iter = (Gc.allocated_bytes () -. a0) /. float_of_int iters in
  if per_iter > 64.0 then
    Alcotest.failf "run_batch allocates %.0f B/call (budget 64)" per_iter

(* A warm extractor batch (pyramids memoized on the inputs) may pay only small
   per-item lookup costs — nothing proportional to sites or pairs.  The old
   per-forward path allocated hundreds of KB on this shape. *)
let test_forward_batch_alloc_budget () =
  let r = rng () in
  let e = Waco.Extractor.create r Waco.Extractor.Waconet in
  let cp = Waco.Extractor.compile e in
  let inputs = extractor_inputs r ~count:32 ~tag:"ab" in
  for _ = 1 to 3 do
    ignore (Waco.Extractor.forward_batch cp inputs)
  done;
  let iters = 20 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to iters do
    ignore (Waco.Extractor.forward_batch cp inputs)
  done;
  let per_iter = (Gc.allocated_bytes () -. a0) /. float_of_int iters in
  if per_iter > 4096.0 then
    Alcotest.failf "forward_batch allocates %.0f B/call (budget 4096)" per_iter

(* --- training untouched: gradcheck with compiled forwards interleaved ---

   Plan execution borrows arena buffers, never the eager layers' scratch, so
   running the compiled predict path between a training forward and its
   backward must not disturb gradients. *)

let gradcheck ~loss_of ~params ~entries_per_param ~tolerance =
  let eps = 1e-6 in
  let bad = ref [] in
  List.iter
    (fun (p : Nn.Param.t) ->
      let n = Nn.Param.size p in
      for t = 0 to min (entries_per_param - 1) (n - 1) do
        let idx = t * 7919 mod n in
        let orig = p.Nn.Param.data.(idx) in
        p.Nn.Param.data.(idx) <- orig +. eps;
        let lp = loss_of () in
        p.Nn.Param.data.(idx) <- orig -. eps;
        let lm = loss_of () in
        p.Nn.Param.data.(idx) <- orig;
        let fd = (lp -. lm) /. (2.0 *. eps) in
        let an = p.Nn.Param.grad.(idx) in
        let rel =
          Float.abs (fd -. an)
          /. Float.max 1e-4 (Float.max (Float.abs fd) (Float.abs an))
        in
        if rel > tolerance then bad := (p.Nn.Param.name, idx, fd, an) :: !bad
      done)
    params;
  !bad

let test_gradcheck_with_vm_interleaved () =
  let r = rng () in
  let algo = Schedule.Algorithm.Spmm 8 in
  let model = Waco.Costmodel.create (Rng.create 77) algo in
  let m = Gen.uniform r ~nrows:32 ~ncols:32 ~nnz:80 in
  let input = Waco.Extractor.input_of_coo ~id:"g" m in
  let scheds =
    Array.init 3 (fun _ -> Schedule.Space.sample r algo ~dims:[| 32; 32 |])
  in
  let params = Waco.Costmodel.params model in
  let loss_of () =
    ignore (Waco.Costmodel.predict model input scheds);
    let preds, _bw = Waco.Costmodel.forward_train model input scheds in
    Array.fold_left (fun a p -> a +. (0.5 *. p *. p)) 0.0 preds
  in
  List.iter
    (fun (p : Nn.Param.t) ->
      Array.fill p.Nn.Param.grad 0 (Nn.Param.size p) 0.0)
    params;
  let preds, bw = Waco.Costmodel.forward_train model input scheds in
  let dpreds = Array.copy preds in
  ignore (Waco.Costmodel.predict model input scheds);
  bw dpreds;
  ignore (Waco.Costmodel.predict model input scheds);
  let bad = gradcheck ~loss_of ~params ~entries_per_param:2 ~tolerance:1e-3 in
  List.iter
    (fun (name, idx, fd, an) ->
      Printf.printf "bad grad %s[%d]: fd %.8g vs an %.8g\n" name idx fd an)
    bad;
  Alcotest.(check int) "no bad grads with vm interleaved" 0 (List.length bad)

let () =
  Alcotest.run "vm"
    [
      ( "bitwise parity",
        [
          Alcotest.test_case "extractor forward_batch" `Quick
            test_extractor_batch_parity;
          Alcotest.test_case "embedder forward_compiled" `Quick
            test_embedder_parity;
          Alcotest.test_case "costmodel predict" `Quick test_predict_parity;
          Alcotest.test_case "prefix-seeded tail" `Quick test_tail_prefix_parity;
          Alcotest.test_case "trained costmodel predict" `Slow
            test_trained_predict_parity;
        ] );
      ( "allocation budget",
        [
          Alcotest.test_case "run_batch pure gemm" `Quick
            test_run_batch_zero_alloc;
          Alcotest.test_case "extractor forward_batch warm" `Quick
            test_forward_batch_alloc_budget;
        ] );
      ( "training untouched",
        [
          Alcotest.test_case "gradcheck with compiled forwards" `Slow
            test_gradcheck_with_vm_interleaved;
        ] );
    ]
