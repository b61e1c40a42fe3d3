(* NN substrate tests: shapes, gradient checks against finite differences,
   optimizer behaviour, sparse-conv semantics. *)

open Sptensor

let rng () = Rng.create 1717

(* Finite-difference gradient check over a loss closure; analytic grads must
   already be accumulated in [params].  Uses a smooth loss (sum of squares)
   to avoid ReLU-kink false positives. *)
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
          Float.abs (fd -. an) /. Float.max 1e-4 (Float.max (Float.abs fd) (Float.abs an))
        in
        if rel > tolerance then bad := (p.Nn.Param.name, idx, fd, an) :: !bad
      done)
    params;
  !bad

let test_linear_forward_known () =
  let r = rng () in
  let l = Nn.Linear.create r ~name:"l" ~in_dim:2 ~out_dim:1 in
  l.Nn.Linear.w.Nn.Param.data.(0) <- 2.0;
  l.Nn.Linear.w.Nn.Param.data.(1) <- -1.0;
  l.Nn.Linear.b.Nn.Param.data.(0) <- 0.5;
  let out = Nn.Linear.forward l ~batch:2 [| 1.0; 1.0; 3.0; 0.0 |] in
  Alcotest.(check (float 1e-12)) "row 0" 1.5 out.(0);
  Alcotest.(check (float 1e-12)) "row 1" 6.5 out.(1)

let test_linear_gradcheck () =
  let r = rng () in
  let l = Nn.Linear.create r ~name:"l" ~in_dim:5 ~out_dim:4 in
  let input = Array.init 15 (fun _ -> Rng.float_in r (-1.0) 1.0) in
  let loss_of () =
    let out = Nn.Linear.forward l ~batch:3 input in
    Array.fold_left (fun a v -> a +. (0.5 *. v *. v)) 0.0 out
  in
  let out = Nn.Linear.forward l ~batch:3 input in
  ignore (Nn.Linear.backward l (Array.copy out));
  let bad =
    gradcheck ~loss_of ~params:(Nn.Linear.params l) ~entries_per_param:8
      ~tolerance:1e-3
  in
  Alcotest.(check int) "no bad grads" 0 (List.length bad)

let test_linear_input_grad () =
  let r = rng () in
  let l = Nn.Linear.create r ~name:"l" ~in_dim:3 ~out_dim:2 in
  let input = [| 0.3; -0.2; 0.9 |] in
  let out = Nn.Linear.forward l ~batch:1 input in
  let din = Nn.Linear.backward l (Array.copy out) in
  (* finite differences on the input *)
  let eps = 1e-6 in
  Array.iteri
    (fun i _ ->
      let x = Array.copy input in
      x.(i) <- x.(i) +. eps;
      let lp = Array.fold_left (fun a v -> a +. (0.5 *. v *. v)) 0.0 (Nn.Linear.forward l ~batch:1 x) in
      x.(i) <- x.(i) -. (2.0 *. eps);
      let lm = Array.fold_left (fun a v -> a +. (0.5 *. v *. v)) 0.0 (Nn.Linear.forward l ~batch:1 x) in
      let fd = (lp -. lm) /. (2.0 *. eps) in
      Alcotest.(check (float 1e-3)) "din matches fd" fd din.(i))
    input

let test_mlp_gradcheck () =
  let r = rng () in
  let m = Nn.Mlp.create r ~name:"m" ~dims:[| 6; 8; 3 |] ~final_relu:false in
  let input = Array.init 12 (fun _ -> Rng.float_in r (-1.0) 1.0) in
  let loss_of () =
    let out = Nn.Mlp.forward m ~batch:2 input in
    Array.fold_left (fun a v -> a +. (0.5 *. v *. v)) 0.0 out
  in
  let out = Nn.Mlp.forward m ~batch:2 input in
  ignore (Nn.Mlp.backward m (Array.copy out));
  (* ReLU kinks can fire: allow a couple of bad entries but not systematic. *)
  let bad = gradcheck ~loss_of ~params:(Nn.Mlp.params m) ~entries_per_param:6 ~tolerance:1e-2 in
  Alcotest.(check bool) "almost no bad grads" true (List.length bad <= 1)

(* ReLU is fused into the layer's forward; backward masks d(output) by the
   layer's own output, which is [> 0] exactly where the pre-activation is. *)
let test_relu_mask () =
  let l = Nn.Linear.create (rng ()) ~name:"r" ~in_dim:1 ~out_dim:1 in
  l.Nn.Linear.w.Nn.Param.data.(0) <- 1.0;
  (* a -0.0 bias keeps the -0.0 input's pre-activation -0.0 *)
  l.Nn.Linear.b.Nn.Param.data.(0) <- -0.0;
  let x = [| -1.0; 2.0; 0.0; 3.0; Float.nan; -0.0 |] in
  let out = Nn.Linear.forward ~relu:true l ~batch:6 x in
  Alcotest.(check (array (float 1e-12))) "relu fwd" [| 0.0; 2.0; 0.0; 3.0; 0.0; 0.0 |] out;
  let din = Nn.Linear.backward l (Array.make 6 1.0) in
  Alcotest.(check (array (float 1e-12)))
    "relu bwd" [| 0.0; 1.0; 0.0; 1.0; 0.0; 0.0 |] (Array.sub din 0 6);
  Alcotest.(check (float 1e-12)) "masked db" 2.0 l.Nn.Linear.b.Nn.Param.grad.(0)

let test_adam_decreases_loss () =
  let r = rng () in
  let m = Nn.Mlp.create r ~name:"m" ~dims:[| 4; 16; 1 |] ~final_relu:false in
  let adam = Nn.Adam.create ~lr:1e-2 (Nn.Mlp.params m) in
  let input = Array.init 40 (fun _ -> Rng.float_in r (-1.0) 1.0) in
  let target = Array.init 10 (fun i -> input.(i * 4) *. 2.0) in
  let loss_and_step () =
    let out = Nn.Mlp.forward m ~batch:10 input in
    let dout = Array.mapi (fun i v -> v -. target.(i)) out in
    let loss = Array.fold_left (fun a d -> a +. (0.5 *. d *. d)) 0.0 dout in
    ignore (Nn.Mlp.backward m dout);
    Nn.Adam.step adam;
    loss
  in
  let first = loss_and_step () in
  let last = ref first in
  for _ = 1 to 200 do
    last := loss_and_step ()
  done;
  Alcotest.(check bool) "loss decreased 5x" true (!last < first /. 5.0)

(* --- Sparse conv --- *)

let smap_of coords h w channels feats = Nn.Smap.of_pairs ~h ~w ~channels coords feats

let test_sparse_conv_identity_kernel () =
  let r = rng () in
  let conv = Nn.Sparse_conv.create r ~name:"c" ~in_ch:1 ~out_ch:1 ~ksize:3 ~stride:1 in
  (* Zero all weights except the center, set to 1: identity convolution. *)
  Array.fill conv.Nn.Sparse_conv.w.Nn.Param.data 0
    (Array.length conv.Nn.Sparse_conv.w.Nn.Param.data) 0.0;
  conv.Nn.Sparse_conv.w.Nn.Param.data.(4) <- 1.0;
  Array.fill conv.Nn.Sparse_conv.b.Nn.Param.data 0 1 0.0;
  let input = smap_of [| (0, 0); (2, 3); (5, 5) |] 6 6 1 [| 1.0; 2.0; 3.0 |] in
  let out = Nn.Sparse_conv.forward conv input in
  Alcotest.(check int) "submanifold: same sites" 3 (Nn.Smap.nsites out);
  Alcotest.(check (array (float 1e-12))) "identity" [| 1.0; 2.0; 3.0 |] out.Nn.Smap.feats

let test_sparse_conv_neighbors () =
  let r = rng () in
  let conv = Nn.Sparse_conv.create r ~name:"c" ~in_ch:1 ~out_ch:1 ~ksize:3 ~stride:1 in
  (* All-ones kernel, zero bias: each output = sum of 3x3 neighbourhood. *)
  Array.fill conv.Nn.Sparse_conv.w.Nn.Param.data 0 9 1.0;
  Array.fill conv.Nn.Sparse_conv.b.Nn.Param.data 0 1 0.0;
  let input = smap_of [| (1, 1); (1, 2); (2, 1) |] 4 4 1 [| 1.0; 1.0; 1.0 |] in
  let out = Nn.Sparse_conv.forward conv input in
  (* site (1,1) sees all three; sites (1,2) and (2,1) see (1,1) and themselves
     and each other (diagonal adjacency of (1,2)-(2,1)) *)
  Alcotest.(check (array (float 1e-12))) "neighbour sums" [| 3.0; 3.0; 3.0 |]
    out.Nn.Smap.feats

(* The kernel's loops are unchecked: a map that does not fit the layer or
   its source must be refused before any of them runs. *)
let test_sparse_conv_rejects_bad_map () =
  let conv = Nn.Sparse_conv.create (rng ()) ~name:"c" ~in_ch:2 ~out_ch:1 ~ksize:3 ~stride:1 in
  let map =
    Nn.Sparse_conv.build_map ~ksize:3 ~stride:1 [| 0; 5; 6 |] ~h:4 ~w:4
  in
  let src = Array.make 6 1.0 and dst = Array.make 3 0.0 in
  Nn.Sparse_conv.forward_into conv map ~src ~dst ~relu:false;
  let rejects what m src =
    match Nn.Sparse_conv.forward_into conv m ~src ~dst ~relu:false with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let pin = map.Nn.Sparse_conv.pairs_in in
  rejects "short src" map (Array.make 5 1.0);
  rejects "negative index"
    { map with pairs_in = Array.mapi (fun i v -> if i = 0 then -1 else v) pin }
    src;
  rejects "5x5 map on a 3x3 layer"
    (Nn.Sparse_conv.build_map ~ksize:5 ~stride:1 [| 0; 5; 6 |] ~h:4 ~w:4)
    src;
  rejects "segment past the pairs"
    {
      map with
      off_start = Array.map (fun v -> if v = Array.length pin then v + 1 else v) map.off_start;
    }
    src

let test_sparse_conv_stride2_sites () =
  let r = rng () in
  let conv = Nn.Sparse_conv.create r ~name:"c" ~in_ch:2 ~out_ch:2 ~ksize:3 ~stride:2 in
  let input =
    smap_of [| (0, 0); (0, 1); (1, 0); (7, 7) |] 8 8 2 (Array.make 8 1.0)
  in
  let out = Nn.Sparse_conv.forward conv input in
  (* halved coords: (0,0) x3 -> (0,0); (7,7) -> (3,3) *)
  Alcotest.(check int) "stride-2 site count" 2 (Nn.Smap.nsites out);
  Alcotest.(check int) "grid halved" 4 out.Nn.Smap.h

let test_sparse_conv_gradcheck_deep () =
  let r = rng () in
  let conv1 = Nn.Sparse_conv.create r ~name:"c1" ~in_ch:1 ~out_ch:3 ~ksize:3 ~stride:1 in
  let conv2 = Nn.Sparse_conv.create r ~name:"c2" ~in_ch:3 ~out_ch:3 ~ksize:3 ~stride:2 in
  let input = smap_of [| (0, 0); (1, 1); (2, 3); (3, 2) |] 4 4 1 [| 1.0; -0.5; 0.3; 0.8 |] in
  let loss_of () =
    let a = Nn.Sparse_conv.forward conv1 input in
    let b = Nn.Sparse_conv.forward conv2 a in
    Array.fold_left (fun acc v -> acc +. (0.5 *. v *. v)) 0.0 b.Nn.Smap.feats
  in
  let a = Nn.Sparse_conv.forward conv1 input in
  let b = Nn.Sparse_conv.forward conv2 a in
  let db = Nn.Sparse_conv.backward conv2 (Array.copy b.Nn.Smap.feats) in
  ignore (Nn.Sparse_conv.backward conv1 db);
  let bad =
    gradcheck ~loss_of
      ~params:(Nn.Sparse_conv.params conv1 @ Nn.Sparse_conv.params conv2)
      ~entries_per_param:6 ~tolerance:1e-3
  in
  Alcotest.(check int) "no bad grads in conv stack" 0 (List.length bad)

(* Regression: [forward] must snapshot the input features it will need for
   dW.  A caller that reuses (and overwrites) its feature buffer between
   forward and backward must not corrupt the weight gradient — with the old
   by-reference cache, the scribbled values below would leak into dW and the
   finite-difference check would explode. *)
let test_sparse_conv_caller_mutates_input () =
  let r = rng () in
  let conv = Nn.Sparse_conv.create r ~name:"c" ~in_ch:1 ~out_ch:2 ~ksize:3 ~stride:1 in
  let coords = [| (0, 0); (1, 1); (2, 3); (3, 2) |] in
  let fresh_input () = smap_of coords 4 4 1 [| 0.7; -0.3; 1.1; 0.4 |] in
  let loss_of () =
    let out = Nn.Sparse_conv.forward conv (fresh_input ()) in
    Array.fold_left (fun a v -> a +. (0.5 *. v *. v)) 0.0 out.Nn.Smap.feats
  in
  let input = fresh_input () in
  let out = Nn.Sparse_conv.forward conv input in
  (* the caller scribbles over its buffer after the forward... *)
  Array.fill input.Nn.Smap.feats 0 (Array.length input.Nn.Smap.feats) 1e9;
  ignore (Nn.Sparse_conv.backward conv (Array.copy out.Nn.Smap.feats));
  (* ...and the analytic gradients still match finite differences *)
  let bad =
    gradcheck ~loss_of ~params:(Nn.Sparse_conv.params conv) ~entries_per_param:6
      ~tolerance:1e-3
  in
  Alcotest.(check int) "grads immune to input mutation" 0 (List.length bad)

let test_pool_mean_and_backward () =
  let pool = Nn.Pool.create () in
  let m = smap_of [| (0, 0); (1, 1) |] 2 2 2 [| 1.0; 2.0; 3.0; 4.0 |] in
  let out = Nn.Pool.forward pool m in
  Alcotest.(check (array (float 1e-12))) "mean per channel" [| 2.0; 3.0 |] out;
  let din = Nn.Pool.backward pool [| 1.0; 2.0 |] in
  Alcotest.(check (array (float 1e-12))) "spread" [| 0.5; 1.0; 0.5; 1.0 |] din

let test_smap_site_cap () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:300 ~ncols:300 ~nnz:20000 in
  let s = Nn.Smap.of_coo ~max_sites:1000 m in
  Alcotest.(check int) "capped" 1000 (Nn.Smap.nsites s);
  let s2 = Nn.Smap.of_coo ~max_sites:1000 m in
  Alcotest.(check bool) "cap deterministic" true (s.Nn.Smap.coords = s2.Nn.Smap.coords)

let test_smap_downsample_dense () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:500 ~ncols:500 ~nnz:3000 in
  let d = Nn.Smap.downsample m ~target:16 in
  Alcotest.(check int) "all grid cells are sites" 256 (Nn.Smap.nsites d)

(* --- Loss --- *)

let test_hinge_pairwise () =
  (* pair 0: truth slower-first, predictions wrong order -> loss fires *)
  let truth = [| 1.0; 0.0 |] in
  let loss, dpred = Nn.Loss.pairwise ~truth ~pred:[| 0.0; 0.5 |] () in
  Alcotest.(check (float 1e-12)) "hinge value" 1.5 loss;
  Alcotest.(check bool) "gradient pushes apart" true (dpred.(0) < 0.0 && dpred.(1) > 0.0);
  (* satisfied margin: no loss *)
  let loss2, _ = Nn.Loss.pairwise ~truth ~pred:[| 2.0; 0.5 |] () in
  Alcotest.(check (float 1e-12)) "margin satisfied" 0.0 loss2

let test_hinge_min_gap () =
  let truth = [| 0.01; 0.0 |] in
  let loss, _ = Nn.Loss.pairwise ~min_gap:0.05 ~truth ~pred:[| -1.0; 1.0 |] () in
  Alcotest.(check (float 1e-12)) "tiny gap ignored" 0.0 loss

let test_pair_accuracy () =
  let truth = [| 1.0; 0.0; 1.0; 0.0 |] in
  let acc = Nn.Loss.pair_accuracy ~truth ~pred:[| 2.0; 0.0; 0.0; 2.0 |] in
  Alcotest.(check (float 1e-12)) "half right" 0.5 acc

let () =
  Alcotest.run "nn"
    [
      ( "linear",
        [
          Alcotest.test_case "forward known" `Quick test_linear_forward_known;
          Alcotest.test_case "gradcheck" `Quick test_linear_gradcheck;
          Alcotest.test_case "input grad" `Quick test_linear_input_grad;
        ] );
      ( "mlp",
        [
          Alcotest.test_case "gradcheck" `Quick test_mlp_gradcheck;
          Alcotest.test_case "relu" `Quick test_relu_mask;
          Alcotest.test_case "adam learns" `Quick test_adam_decreases_loss;
        ] );
      ( "sparse_conv",
        [
          Alcotest.test_case "identity kernel" `Quick test_sparse_conv_identity_kernel;
          Alcotest.test_case "neighbour sums" `Quick test_sparse_conv_neighbors;
          Alcotest.test_case "stride-2 sites" `Quick test_sparse_conv_stride2_sites;
          Alcotest.test_case "rejects a bad map" `Quick test_sparse_conv_rejects_bad_map;
          Alcotest.test_case "deep gradcheck" `Quick test_sparse_conv_gradcheck_deep;
          Alcotest.test_case "caller mutates input" `Quick
            test_sparse_conv_caller_mutates_input;
          Alcotest.test_case "pooling" `Quick test_pool_mean_and_backward;
          Alcotest.test_case "site cap" `Quick test_smap_site_cap;
          Alcotest.test_case "downsample dense" `Quick test_smap_downsample_dense;
        ] );
      ( "loss",
        [
          Alcotest.test_case "hinge pairwise" `Quick test_hinge_pairwise;
          Alcotest.test_case "min gap" `Quick test_hinge_min_gap;
          Alcotest.test_case "pair accuracy" `Quick test_pair_accuracy;
        ] );
    ]
