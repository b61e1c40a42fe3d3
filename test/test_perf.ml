(* Perf-refactor safety net (the @perf alias): the flat kernel-map builder and
   the scratch-buffer layers must be *exactly* the old allocating
   implementations — same pair order, same float-op order, same bytes in a
   trained artifact — while allocating (almost) nothing in steady state. *)

open Sptensor

(* MD5 of the model artifact from the seeded run below, captured on the
   pre-flat-layout implementation.  Recompute with test/print_golden.exe
   after an *intentional* numerics change. *)
let golden_digest = "8cd3ca970730f9836a98a945d7c01d8e"

let rng () = Rng.create 20230325

(* --- kernel-map parity: flat builder vs the retained reference builder --- *)

let encode_pairs ~out_w pairs =
  Array.map (fun (r, c) -> (r * out_w) + c) pairs

(* Flatten a reference map into the CSR shape and compare field by field. *)
let check_same_map ~what ~nk (flat : Nn.Sparse_conv.kernel_map)
    (refm : Nn.Sparse_conv_ref.kernel_map) =
  Alcotest.(check int) (what ^ ": out_h") refm.Nn.Sparse_conv_ref.out_h flat.Nn.Sparse_conv.out_h;
  Alcotest.(check int) (what ^ ": out_w") refm.Nn.Sparse_conv_ref.out_w flat.Nn.Sparse_conv.out_w;
  Alcotest.(check (array int))
    (what ^ ": out_coords (incl. order)")
    (encode_pairs ~out_w:refm.Nn.Sparse_conv_ref.out_w refm.Nn.Sparse_conv_ref.out_coords)
    flat.Nn.Sparse_conv.out_coords;
  Alcotest.(check int)
    (what ^ ": total pairs")
    (Array.fold_left (fun a b -> a + Array.length b) 0 refm.Nn.Sparse_conv_ref.pairs)
    (Nn.Sparse_conv.map_npairs flat);
  for off = 0 to nk - 1 do
    let seg_start = flat.Nn.Sparse_conv.off_start.(off) in
    let seg_len = flat.Nn.Sparse_conv.off_start.(off + 1) - seg_start in
    let ref_seg = refm.Nn.Sparse_conv_ref.pairs.(off) in
    Alcotest.(check int)
      (Printf.sprintf "%s: offset %d segment length" what off)
      (Array.length ref_seg) seg_len;
    for p = 0 to seg_len - 1 do
      let ri, ro = ref_seg.(p) in
      if
        ri <> flat.Nn.Sparse_conv.pairs_in.(seg_start + p)
        || ro <> flat.Nn.Sparse_conv.pairs_out.(seg_start + p)
      then
        Alcotest.failf "%s: offset %d pair %d: ref (%d,%d) vs flat (%d,%d)" what
          off p ri ro
          flat.Nn.Sparse_conv.pairs_in.(seg_start + p)
          flat.Nn.Sparse_conv.pairs_out.(seg_start + p)
    done
  done

let check_map_parity ~what ~ksize ~stride (pairs : (int * int) array) ~h ~w =
  let coords = Array.map (fun (r, c) -> Nn.Smap.encode ~w r c) pairs in
  check_same_map ~what ~nk:(ksize * ksize)
    (Nn.Sparse_conv.build_map ~ksize ~stride coords ~h ~w)
    (Nn.Sparse_conv_ref.build_map ~ksize ~stride pairs ~h ~w)

let random_pattern r ~h ~w ~n =
  (* Distinct random coordinates, insertion order preserved (the builder is
     order-sensitive, so parity must hold for arbitrary site orderings). *)
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] and count = ref 0 in
  let attempts = ref 0 in
  while !count < n && !attempts < 50 * n do
    incr attempts;
    let p = (Rng.int r h, Rng.int r w) in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      out := p :: !out;
      incr count
    end
  done;
  Array.of_list (List.rev !out)

let test_map_parity_random () =
  let r = rng () in
  List.iter
    (fun (h, w, n) ->
      let pairs = random_pattern r ~h ~w ~n in
      (* Each pattern twice: in insertion order (the stride-1 sweep's
         unsorted fallback) and row-major (the COO order, its main path). *)
      let sorted = Array.copy pairs in
      Array.sort compare sorted;
      List.iter
        (fun (order, pairs) ->
          List.iter
            (fun (ksize, stride) ->
              check_map_parity
                ~what:(Printf.sprintf "%dx%d n=%d %s k=%d s=%d" h w n order ksize stride)
                ~ksize ~stride pairs ~h ~w)
            [ (3, 1); (3, 2); (5, 1); (5, 2) ])
        [ ("random", pairs); ("row-major", sorted) ])
    [ (16, 16, 40); (64, 64, 300); (37, 53, 200); (128, 8, 150) ]

let test_map_parity_edges () =
  (* Edge rows/columns and odd widths under stride 2: window cells just past
     the grid can halve onto in-grid output columns — the case that forces
     the widened probe-key stride in the flat builder. *)
  let full h w = Array.concat (List.init h (fun r -> Array.init w (fun c -> (r, c)))) in
  check_map_parity ~what:"full 5x5 s2" ~ksize:3 ~stride:2 (full 5 5) ~h:5 ~w:5;
  check_map_parity ~what:"full 5x5 k5 s2" ~ksize:5 ~stride:2 (full 5 5) ~h:5 ~w:5;
  check_map_parity ~what:"full 7x3 s2" ~ksize:3 ~stride:2 (full 7 3) ~h:7 ~w:3;
  check_map_parity ~what:"last col only" ~ksize:3 ~stride:2
    (Array.init 6 (fun r -> (r, 4))) ~h:6 ~w:5;
  check_map_parity ~what:"last row only" ~ksize:5 ~stride:2
    (Array.init 5 (fun c -> (5, c))) ~h:6 ~w:5;
  check_map_parity ~what:"single site" ~ksize:3 ~stride:2 [| (4, 4) |] ~h:5 ~w:5;
  check_map_parity ~what:"1x1 grid" ~ksize:3 ~stride:1 [| (0, 0) |] ~h:1 ~w:1;
  check_map_parity ~what:"empty" ~ksize:3 ~stride:2 [||] ~h:8 ~w:8;
  check_map_parity ~what:"empty s1" ~ksize:5 ~stride:1 [||] ~h:8 ~w:8;
  (* Duplicate coordinates: the newest (highest) input index is the output
     site every window resolves to, in sorted and in unsorted inputs. *)
  let dups = [| (1, 1); (2, 2); (1, 1); (3, 3); (1, 1); (2, 2) |] in
  let sorted_dups = Array.copy dups in
  Array.stable_sort compare sorted_dups;
  List.iter
    (fun (ksize, stride) ->
      check_map_parity
        ~what:(Printf.sprintf "duplicates k%d s%d" ksize stride)
        ~ksize ~stride dups ~h:5 ~w:5;
      check_map_parity
        ~what:(Printf.sprintf "sorted duplicates k%d s%d" ksize stride)
        ~ksize ~stride sorted_dups ~h:5 ~w:5)
    [ (3, 1); (5, 1); (3, 2) ];
  (* Row wrap under k5 s1: columns 0-1 of row r sit within two keys of
     columns w-2..w-1 of row r-1 when the key width is [w]; the sweep's
     padded width must keep them apart. *)
  let w = 9 in
  let wrap r = [| (r - 1, w - 2); (r - 1, w - 1); (r, 0); (r, 1) |] in
  check_map_parity ~what:"row wrap k5 s1" ~ksize:5 ~stride:1 (wrap 3) ~h:6 ~w;
  check_map_parity ~what:"row wrap k5 s1, rows 0-1" ~ksize:5 ~stride:1 (wrap 1)
    ~h:2 ~w;
  check_map_parity ~what:"row wrap k3 s1" ~ksize:3 ~stride:1 (wrap 3) ~h:6 ~w

(* The whole coordinate pyramid of every conv extractor, on one matrix of
   each generator family at tuning size, against the reference builder
   chained layer by layer. *)
let test_pyramid_parity () =
  let r = rng () in
  Array.iter
    (fun family ->
      let rows = Rng.int_in r 256 511 in
      let m = Gen.generate r family ~nrows:rows ~ncols:rows ~nnz:(rows * 8) in
      let input = Waco.Extractor.input_of_coo ~id:"p" m in
      List.iter
        (fun kind ->
          let base =
            if kind = Waco.Extractor.Dense_conv then Lazy.force input.Waco.Extractor.down
            else input.Waco.Extractor.smap
          in
          let layers = Waco.Extractor.conv_layers kind in
          let pyr = Nn.Pyramid.build base ~layers in
          let coords = ref (Nn.Smap.coords_pairs base) in
          let h = ref base.Nn.Smap.h and w = ref base.Nn.Smap.w in
          List.iteri
            (fun i (ksize, stride) ->
              let refm = Nn.Sparse_conv_ref.build_map ~ksize ~stride !coords ~h:!h ~w:!w in
              check_same_map
                ~what:
                  (Printf.sprintf "%s %s layer %d" (Gen.family_name family)
                     (Waco.Extractor.kind_name kind) i)
                ~nk:(ksize * ksize) pyr.Nn.Pyramid.maps.(i) refm;
              coords := refm.Nn.Sparse_conv_ref.out_coords;
              h := refm.Nn.Sparse_conv_ref.out_h;
              w := refm.Nn.Sparse_conv_ref.out_w)
            layers)
        Waco.Extractor.[ Waconet; Minkowski; Dense_conv ])
    Gen.all_families

(* --- forward/backward parity: scratch implementation vs reference --- *)

(* Every branch of the one conv kernel — the 1- and 6-channel fast paths
   and the generic loop — on submanifold and strided maps. *)
let test_conv_numeric_parity () =
  let r = rng () in
  let h = 32 and w = 32 in
  let pairs = random_pattern r ~h ~w ~n:120 in
  let n = Array.length pairs in
  let co = 5 in
  List.iter
    (fun (ci, stride) ->
      let what = Printf.sprintf "in_ch %d stride %d" ci stride in
      let conv = Nn.Sparse_conv.create r ~name:"p" ~in_ch:ci ~out_ch:co ~ksize:3 ~stride in
      let feats = Array.init (n * ci) (fun _ -> Rng.float_in r (-1.0) 1.0) in
      let input = Nn.Smap.of_pairs ~h ~w ~channels:ci pairs feats in
      let out = Nn.Sparse_conv.forward conv input in
      let refm = Nn.Sparse_conv_ref.build_map ~ksize:3 ~stride pairs ~h ~w in
      let ref_out =
        Nn.Sparse_conv_ref.forward_feats refm ~in_ch:ci ~out_ch:co
          ~w:conv.Nn.Sparse_conv.w.Nn.Param.data ~b:conv.Nn.Sparse_conv.b.Nn.Param.data
          feats
      in
      let n_out = Nn.Smap.nsites out in
      Alcotest.(check int)
        (what ^ ": site count")
        (Array.length refm.Nn.Sparse_conv_ref.out_coords)
        n_out;
      let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
      for i = 0 to (n_out * co) - 1 do
        if not (same out.Nn.Smap.feats.(i) ref_out.(i)) then
          Alcotest.failf "%s: forward feat %d: flat %.17g vs ref %.17g" what i
            out.Nn.Smap.feats.(i) ref_out.(i)
      done;
      (* backward: same dW/db/din bit for bit *)
      let dout = Array.init (n_out * co) (fun _ -> Rng.float_in r (-1.0) 1.0) in
      let din = Nn.Sparse_conv.backward conv dout in
      let wgrad = Array.make (Array.length conv.Nn.Sparse_conv.w.Nn.Param.data) 0.0 in
      let bgrad = Array.make co 0.0 in
      let ref_din =
        Nn.Sparse_conv_ref.backward_feats refm ~in_ch:ci ~out_ch:co
          ~w:conv.Nn.Sparse_conv.w.Nn.Param.data ~wgrad ~bgrad ~input_feats:feats
          ~nsites_in:n dout
      in
      for i = 0 to (n * ci) - 1 do
        if not (same din.(i) ref_din.(i)) then
          Alcotest.failf "%s: din %d: flat %.17g vs ref %.17g" what i din.(i) ref_din.(i)
      done;
      Array.iteri
        (fun i g ->
          if not (same g conv.Nn.Sparse_conv.w.Nn.Param.grad.(i)) then
            Alcotest.failf "%s: wgrad %d diverges" what i)
        wgrad;
      Array.iteri
        (fun i g ->
          if not (same g conv.Nn.Sparse_conv.b.Nn.Param.grad.(i)) then
            Alcotest.failf "%s: bgrad %d diverges" what i)
        bgrad)
    [ (1, 1); (1, 2); (4, 1); (4, 2); (6, 1); (6, 2) ]

(* --- gradchecks through reused scratch buffers --- *)

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

(* The scratch-shrink case: run a BIG input through the layer (growing its
   buffers), then gradcheck on a SMALL input.  Stale slack beyond the valid
   prefix must not leak into outputs or gradients. *)
let test_conv_gradcheck_after_shrink () =
  let r = rng () in
  let conv = Nn.Sparse_conv.create r ~name:"c" ~in_ch:1 ~out_ch:3 ~ksize:3 ~stride:1 in
  let big_pairs = random_pattern r ~h:24 ~w:24 ~n:200 in
  let big =
    Nn.Smap.of_pairs ~h:24 ~w:24 ~channels:1 big_pairs
      (Array.init 200 (fun _ -> Rng.float_in r 0.5 2.0))
  in
  ignore (Nn.Sparse_conv.forward conv big);
  ignore (Nn.Sparse_conv.backward conv (Array.make (200 * 3) 1.0));
  Array.fill conv.Nn.Sparse_conv.w.Nn.Param.grad 0
    (Array.length conv.Nn.Sparse_conv.w.Nn.Param.grad) 0.0;
  Array.fill conv.Nn.Sparse_conv.b.Nn.Param.grad 0 3 0.0;
  let small =
    Nn.Smap.of_pairs ~h:4 ~w:4 ~channels:1
      [| (0, 0); (1, 1); (2, 3); (3, 2) |]
      [| 1.0; -0.5; 0.3; 0.8 |]
  in
  let loss_of () =
    let out = Nn.Sparse_conv.forward conv small in
    let acc = ref 0.0 in
    for i = 0 to (Nn.Smap.nsites out * 3) - 1 do
      acc := !acc +. (0.5 *. out.Nn.Smap.feats.(i) *. out.Nn.Smap.feats.(i))
    done;
    !acc
  in
  let out = Nn.Sparse_conv.forward conv small in
  let dout = Array.sub out.Nn.Smap.feats 0 (Nn.Smap.nsites out * 3) in
  ignore (Nn.Sparse_conv.backward conv dout);
  let bad =
    gradcheck ~loss_of ~params:(Nn.Sparse_conv.params conv) ~entries_per_param:8
      ~tolerance:1e-3
  in
  Alcotest.(check int) "no bad grads after buffer shrink" 0 (List.length bad)

let test_linear_gradcheck_after_shrink () =
  let r = rng () in
  let l = Nn.Linear.create r ~name:"l" ~in_dim:5 ~out_dim:4 in
  let big = Array.init (12 * 5) (fun _ -> Rng.float_in r (-1.0) 1.0) in
  ignore (Nn.Linear.forward l ~batch:12 big);
  ignore (Nn.Linear.backward l (Array.make (12 * 4) 1.0));
  Array.fill l.Nn.Linear.w.Nn.Param.grad 0 20 0.0;
  Array.fill l.Nn.Linear.b.Nn.Param.grad 0 4 0.0;
  let input = Array.init 15 (fun _ -> Rng.float_in r (-1.0) 1.0) in
  let loss_of () =
    let out = Nn.Linear.forward l ~batch:3 input in
    let acc = ref 0.0 in
    for i = 0 to (3 * 4) - 1 do
      acc := !acc +. (0.5 *. out.(i) *. out.(i))
    done;
    !acc
  in
  let out = Nn.Linear.forward l ~batch:3 input in
  ignore (Nn.Linear.backward l (Array.sub out 0 12));
  let bad =
    gradcheck ~loss_of ~params:(Nn.Linear.params l) ~entries_per_param:8
      ~tolerance:1e-3
  in
  Alcotest.(check int) "no bad grads after buffer shrink" 0 (List.length bad)

(* --- extractor determinism across alternating inputs ---

   Scratch reuse must be invisible: interleaving forwards of two different
   patterns on one extractor must reproduce each pattern's feature bit for
   bit. *)
let test_extractor_scratch_isolation () =
  let r = rng () in
  let e = Waco.Extractor.create r Waco.Extractor.Waconet in
  let m1 = Gen.uniform r ~nrows:80 ~ncols:80 ~nnz:400 in
  let m2 = Gen.rmat r ~nnz:700 ~nrows:128 ~ncols:128 in
  let i1 = Waco.Extractor.input_of_coo ~id:"a" m1 in
  let i2 = Waco.Extractor.input_of_coo ~id:"b" m2 in
  let f1 = Waco.Extractor.forward e i1 in
  let f2 = Waco.Extractor.forward e i2 in
  let f1' = Waco.Extractor.forward e i1 in
  let f2' = Waco.Extractor.forward e i2 in
  Alcotest.(check bool) "pattern 1 reproducible" true (f1 = f1');
  Alcotest.(check bool) "pattern 2 reproducible" true (f2 = f2');
  Alcotest.(check bool) "patterns distinct" true (f1 <> f2)

(* --- steady-state allocation budget ---

   A conv forward over a cached kernel map must allocate only the result's
   Smap record — no per-site or per-pair garbage.  The budget is generous
   (the record itself is ~6 words); the old implementation allocated
   ~850 KB on this shape. *)
let alloc_budget_bytes = 2048.0

let test_conv_forward_alloc_budget () =
  let r = rng () in
  let h = 64 and w = 64 in
  let pairs = random_pattern r ~h ~w ~n:600 in
  let ch = Waco.Config.channels in
  let conv = Nn.Sparse_conv.create r ~name:"a" ~in_ch:ch ~out_ch:ch ~ksize:3 ~stride:1 in
  let coords = Array.map (fun (rr, cc) -> Nn.Smap.encode ~w rr cc) pairs in
  let map = Nn.Sparse_conv.build_map ~ksize:3 ~stride:1 coords ~h ~w in
  let feats = Array.init (Array.length pairs * ch) (fun _ -> Rng.float_in r (-1.0) 1.0) in
  let input = Nn.Smap.of_pairs ~h ~w ~channels:ch pairs feats in
  for _ = 1 to 3 do
    ignore (Nn.Sparse_conv.forward_with_map conv map input)
  done;
  let iters = 20 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to iters do
    ignore (Nn.Sparse_conv.forward_with_map conv map input)
  done;
  let per_iter = (Gc.allocated_bytes () -. a0) /. float_of_int iters in
  if per_iter > alloc_budget_bytes then
    Alcotest.failf "conv forward allocates %.0f B/call (budget %.0f)" per_iter
      alloc_budget_bytes

(* A stride-1 kernel map costs its outputs plus O(n) words of scratch (the
   sweep's padded keys): no per-(site, offset) array, no hash table.  The
   slack allowed here is 2 words per site plus 256 for the per-offset
   counts and array headers; a table-and-hits builder needs over 30 words
   per site. *)
let test_map_build_alloc_budget () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:512 ~ncols:512 ~nnz:4096 in
  let smap = Nn.Smap.of_coo m in
  let n = Nn.Smap.nsites smap in
  let build () =
    Nn.Sparse_conv.build_map ~ksize:5 ~stride:1 smap.Nn.Smap.coords ~h:512 ~w:512
  in
  let map = build () in
  let words a = float_of_int (Array.length a + 1) in
  let out_words =
    words map.Nn.Sparse_conv.off_start
    +. words map.Nn.Sparse_conv.pairs_in
    +. words map.Nn.Sparse_conv.pairs_out
    +. 7.0
  in
  let budget = float_of_int (Sys.word_size / 8) *. (out_words +. (2.0 *. float_of_int n) +. 256.0) in
  let a0 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (build ()));
  let bytes = Gc.allocated_bytes () -. a0 in
  if bytes > budget then
    Alcotest.failf "k5 s1 build_map over %d sites allocates %.0f B (budget %.0f)" n
      bytes budget

let test_conv_backward_alloc_budget () =
  let r = rng () in
  let h = 64 and w = 64 in
  let pairs = random_pattern r ~h ~w ~n:600 in
  let ch = Waco.Config.channels in
  let conv = Nn.Sparse_conv.create r ~name:"a" ~in_ch:ch ~out_ch:ch ~ksize:3 ~stride:1 in
  let coords = Array.map (fun (rr, cc) -> Nn.Smap.encode ~w rr cc) pairs in
  let map = Nn.Sparse_conv.build_map ~ksize:3 ~stride:1 coords ~h ~w in
  let feats = Array.init (Array.length pairs * ch) (fun _ -> Rng.float_in r (-1.0) 1.0) in
  let input = Nn.Smap.of_pairs ~h ~w ~channels:ch pairs feats in
  let dout = Array.make (Array.length pairs * ch) 0.5 in
  let step () =
    ignore (Nn.Sparse_conv.forward_with_map conv map input);
    ignore (Nn.Sparse_conv.backward conv dout)
  in
  for _ = 1 to 3 do step () done;
  let iters = 20 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to iters do step () done;
  let per_iter = (Gc.allocated_bytes () -. a0) /. float_of_int iters in
  if per_iter > alloc_budget_bytes then
    Alcotest.failf "conv forward+backward allocates %.0f B/call (budget %.0f)"
      per_iter alloc_budget_bytes

(* A warm extractor forward (pyramid memoized on its input) — the feature
   path of every prediction — may pay small per-forward costs (the pooled
   concat, the fresh feature), nothing proportional to sites or pairs: one
   word per site would already be 2.4 KB on these 300–600-site patterns. *)
let test_extractor_forward_alloc_budget () =
  let r = rng () in
  let e = Waco.Extractor.create r Waco.Extractor.Waconet in
  let inputs =
    Array.init 32 (fun i ->
        let m =
          if i mod 2 = 0 then Gen.uniform r ~nrows:96 ~ncols:96 ~nnz:(300 + (i * 13))
          else Gen.rmat r ~nnz:(250 + (i * 11)) ~nrows:128 ~ncols:128
        in
        Waco.Extractor.input_of_coo ~id:(Printf.sprintf "ab%d" i) m)
  in
  let batch () = Array.iter (fun i -> ignore (Waco.Extractor.forward e i)) inputs in
  for _ = 1 to 3 do batch () done;
  let iters = 20 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to iters do batch () done;
  let per_forward =
    (Gc.allocated_bytes () -. a0) /. float_of_int (iters * Array.length inputs)
  in
  if per_forward > 1024.0 then
    Alcotest.failf "warm extractor forward allocates %.0f B/call (budget 1024)"
      per_forward

(* --- golden artifact byte-identity ---

   A short fully-seeded training run must save exactly the same bytes as the
   pre-refactor implementation: float accumulation order through flat maps,
   scratch layers, Int/Float.compare sorts and the HNSW descent cache is
   unchanged.  Recipe mirrors test/print_golden.ml. *)
let test_golden_artifact_digest () =
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
  let digest = Digest.to_hex (Digest.string (Waco.Costmodel.dump_params model)) in
  Alcotest.(check string) "seeded artifact digest" golden_digest digest

let () =
  Alcotest.run "perf"
    [
      ( "kernel-map parity",
        [
          Alcotest.test_case "random patterns" `Quick test_map_parity_random;
          Alcotest.test_case "edge cases" `Quick test_map_parity_edges;
          Alcotest.test_case "conv numeric parity" `Quick test_conv_numeric_parity;
          Alcotest.test_case "full pyramids" `Quick test_pyramid_parity;
        ] );
      ( "scratch buffers",
        [
          Alcotest.test_case "conv gradcheck after shrink" `Quick
            test_conv_gradcheck_after_shrink;
          Alcotest.test_case "linear gradcheck after shrink" `Quick
            test_linear_gradcheck_after_shrink;
          Alcotest.test_case "extractor scratch isolation" `Quick
            test_extractor_scratch_isolation;
        ] );
      ( "allocation budget",
        [
          Alcotest.test_case "conv forward" `Quick test_conv_forward_alloc_budget;
          Alcotest.test_case "conv forward+backward" `Quick
            test_conv_backward_alloc_budget;
          Alcotest.test_case "stride-1 map build" `Quick test_map_build_alloc_budget;
          Alcotest.test_case "extractor forward warm" `Quick
            test_extractor_forward_alloc_budget;
        ] );
      ( "byte identity",
        [ Alcotest.test_case "golden artifact" `Slow test_golden_artifact_digest ] );
    ]
