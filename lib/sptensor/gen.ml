(* Synthetic sparsity-pattern generators: our stand-in for SuiteSparse.

   The families below cover the pattern axes the paper's analysis depends on:
   skewed vs uniform row-degree distributions (load balancing, Table 6 "OpenMP
   chunk size"), dense blocks (register/SIMD reuse, "Dense Block" factors),
   scattered fine structure (sparse-block cache effects, the sparsine case),
   banded/mesh locality, and graph-like power-law structure.  All are
   deterministic given an [Rng.t]. *)

type family =
  | Uniform
  | Power_law of float (* row-degree Zipf exponent *)
  | Banded of int (* half bandwidth *)
  | Block_dense of int (* block edge; TSOPF-like *)
  | Rmat (* Kronecker/R-MAT graph *)
  | Stencil2d (* 5-point mesh on a sqrt(n) x sqrt(n) grid *)
  | Clustered of int (* cluster edge *)

let family_name = function
  | Uniform -> "uniform"
  | Power_law a -> Printf.sprintf "powerlaw%.1f" a
  | Banded b -> Printf.sprintf "banded%d" b
  | Block_dense b -> Printf.sprintf "block%d" b
  | Rmat -> "rmat"
  | Stencil2d -> "stencil2d"
  | Clustered c -> Printf.sprintf "clustered%d" c

let all_families =
  [|
    Uniform;
    Power_law 1.1;
    Power_law 1.6;
    Banded 8;
    Banded 64;
    Block_dense 4;
    Block_dense 8;
    Rmat;
    Stencil2d;
    Clustered 16;
  |]

let random_value rng = Rng.float_in rng 0.1 1.0

(* Draw approximately [nnz] distinct coordinates using [draw]; gives up after
   proportionally many collisions so adversarial parameters terminate. *)
let fill_distinct rng ~nrows ~ncols ~nnz draw =
  let tbl = Hashtbl.create (2 * nnz) in
  let attempts = ref 0 in
  let budget = 20 * nnz in
  while Hashtbl.length tbl < nnz && !attempts < budget do
    incr attempts;
    let i, j = draw () in
    if i >= 0 && i < nrows && j >= 0 && j < ncols then
      if not (Hashtbl.mem tbl (i, j)) then Hashtbl.add tbl (i, j) (random_value rng)
  done;
  let triplets = Hashtbl.fold (fun (i, j) v acc -> (i, j, v) :: acc) tbl [] in
  Coo.of_triplets ~nrows ~ncols triplets

let uniform rng ~nrows ~ncols ~nnz =
  fill_distinct rng ~nrows ~ncols ~nnz (fun () -> (Rng.int rng nrows, Rng.int rng ncols))

(* Skewed: a few heavy rows hold most of the nonzeros. *)
let power_law rng ~alpha ~nrows ~ncols ~nnz =
  let row_of = Rng.permutation rng nrows in
  let zipf = Rng.zipf_sampler ~alpha (min nrows 4096) in
  fill_distinct rng ~nrows ~ncols ~nnz (fun () ->
      (row_of.(zipf rng), Rng.int rng ncols))

let banded rng ~half_bw ~nrows ~ncols ~nnz =
  fill_distinct rng ~nrows ~ncols ~nnz (fun () ->
      let i = Rng.int rng nrows in
      let j = i + Rng.int_in rng (-half_bw) half_bw in
      (i, j))

(* Random dense blocks of edge [block]; targets [nnz] total entries. *)
let block_dense rng ~block ~nrows ~ncols ~nnz =
  let per_block = block * block in
  let nblocks = max 1 (nnz / per_block) in
  let tbl = Hashtbl.create (2 * nnz) in
  for _ = 1 to nblocks do
    let bi = Rng.int rng (max 1 (nrows / block)) * block in
    let bj = Rng.int rng (max 1 (ncols / block)) * block in
    for di = 0 to block - 1 do
      for dj = 0 to block - 1 do
        let i = bi + di and j = bj + dj in
        if i < nrows && j < ncols && not (Hashtbl.mem tbl (i, j)) then
          Hashtbl.add tbl (i, j) (random_value rng)
      done
    done
  done;
  let triplets = Hashtbl.fold (fun (i, j) v acc -> (i, j, v) :: acc) tbl [] in
  Coo.of_triplets ~nrows ~ncols triplets

(* R-MAT: recursive quadrant descent with skewed probabilities (the
   Graph500 quadrant weights). *)
let rmat rng ~nrows ~ncols ~nnz =
  let pa = 0.57 and pb = 0.19 and pc = 0.19 in
  let draw () =
    let rec descend i0 i1 j0 j1 =
      if i1 - i0 <= 1 && j1 - j0 <= 1 then (i0, j0)
      else begin
        let im = (i0 + i1) / 2 and jm = (j0 + j1) / 2 in
        let r = Rng.float rng in
        if r < pa then descend i0 (max (i0 + 1) im) j0 (max (j0 + 1) jm)
        else if r < pa +. pb then descend i0 (max (i0 + 1) im) (min jm (j1 - 1)) j1
        else if r < pa +. pb +. pc then descend (min im (i1 - 1)) i1 j0 (max (j0 + 1) jm)
        else descend (min im (i1 - 1)) i1 (min jm (j1 - 1)) j1
      end
    in
    descend 0 nrows 0 ncols
  in
  fill_distinct rng ~nrows ~ncols ~nnz draw

(* 5-point stencil on a g x g grid, g = floor (sqrt (min nrows ncols)) and
   at least 2; the result is g^2 x g^2.  Classic mesh. *)
let stencil2d rng ~nrows ~ncols =
  let g = max 2 (int_of_float (sqrt (float_of_int (min nrows ncols)))) in
  let n = g * g in
  let triplets = ref [] in
  for x = 0 to g - 1 do
    for y = 0 to g - 1 do
      let node = (x * g) + y in
      let neighbors =
        [ (x, y); (x - 1, y); (x + 1, y); (x, y - 1); (x, y + 1) ]
      in
      List.iter
        (fun (nx, ny) ->
          if nx >= 0 && nx < g && ny >= 0 && ny < g then
            triplets := (node, (nx * g) + ny, random_value rng) :: !triplets)
        neighbors
    done
  done;
  Coo.of_triplets ~nrows:n ~ncols:n !triplets

(* Clusters: pick cluster centers; scatter points with geometric falloff. *)
let clustered rng ~cluster ~nrows ~ncols ~nnz =
  let ncenters = max 1 (nnz / (cluster * 4)) in
  let centers =
    Array.init ncenters (fun _ -> (Rng.int rng nrows, Rng.int rng ncols))
  in
  fill_distinct rng ~nrows ~ncols ~nnz (fun () ->
      let ci, cj = Rng.choose rng centers in
      let di = int_of_float (Rng.gaussian rng *. float_of_int cluster) in
      let dj = int_of_float (Rng.gaussian rng *. float_of_int cluster) in
      (ci + di, cj + dj))

let generate rng family ~nrows ~ncols ~nnz =
  match family with
  | Uniform -> uniform rng ~nrows ~ncols ~nnz
  | Power_law alpha -> power_law rng ~alpha ~nrows ~ncols ~nnz
  | Banded half_bw -> banded rng ~half_bw ~nrows ~ncols ~nnz
  | Block_dense block -> block_dense rng ~block ~nrows ~ncols ~nnz
  | Rmat -> rmat rng ~nrows ~ncols ~nnz
  | Stencil2d -> stencil2d rng ~nrows ~ncols
  | Clustered cluster -> clustered rng ~cluster ~nrows ~ncols ~nnz

(* The paper's augmentation: arbitrarily resize an existing pattern by scaling
   coordinates into a new shape (collisions sum). *)
let resize rng (m : Coo.t) ~nrows ~ncols =
  let jitter () = Rng.float_in rng 0.0 0.999 in
  let scale_i = float_of_int nrows /. float_of_int m.Coo.nrows in
  let scale_j = float_of_int ncols /. float_of_int m.Coo.ncols in
  let triplets =
    List.map
      (fun (i, j, v) ->
        let ni = int_of_float ((float_of_int i +. jitter ()) *. scale_i) in
        let nj = int_of_float ((float_of_int j +. jitter ()) *. scale_j) in
        (min (nrows - 1) (max 0 ni), min (ncols - 1) (max 0 nj), v))
      (Coo.to_triplets m)
  in
  Coo.of_triplets ~nrows ~ncols triplets

(* --- Named analogues of the paper's motivating matrices (Fig. 2), scaled
   down 8x but with matching structure. --- *)

(* pli: 22,695^2, 59 nnz/row — moderately dense unstructured + weak banding.
   Analogues are ~8x smaller in dimension but keep the paper's nnz/row, so
   each matrix sits in the same compute/memory-bound regime as the original. *)
let pli_like rng =
  let n = 2840 in
  let a = uniform rng ~nrows:n ~ncols:n ~nnz:120000 in
  let b = banded rng ~half_bw:24 ~nrows:n ~ncols:n ~nnz:48000 in
  Coo.of_triplets ~nrows:n ~ncols:n (Coo.to_triplets a @ Coo.to_triplets b)

(* TSOPF: 25,626^2, 264 nnz/row — strong dense-block structure. *)
let tsopf_like rng = block_dense rng ~block:8 ~nrows:3200 ~ncols:3200 ~nnz:840000

(* sparsine: 50,000^2, 31 nnz/row — fine scattered structure, no blocks. *)
let sparsine_like rng = uniform rng ~nrows:6250 ~ncols:6250 ~nnz:190000

(* bcsstk29 analogue used by the search-strategy comparison (Fig. 16). *)
let bcsstk_like rng =
  let a = banded rng ~half_bw:40 ~nrows:3480 ~ncols:3480 ~nnz:40000 in
  let b = block_dense rng ~block:4 ~nrows:3480 ~ncols:3480 ~nnz:20000 in
  Coo.of_triplets ~nrows:3480 ~ncols:3480 (Coo.to_triplets a @ Coo.to_triplets b)

type named = { name : string; matrix : Coo.t }

(* A diverse corpus of [count] named matrices, ~SuiteSparse-in-miniature.
   Shapes and densities vary across draws; resizing augmentation is applied to
   a third of them, mirroring the paper's dataset construction. *)
let suite rng ~count ~max_dim ~max_nnz =
  List.init count (fun idx ->
      let family = all_families.(idx mod Array.length all_families) in
      let nrows = Rng.int_in rng (max_dim / 8) max_dim in
      let ncols =
        if Rng.float rng < 0.7 then nrows else Rng.int_in rng (max_dim / 8) max_dim
      in
      (* Target rows-density (nonzeros per row) rather than global density:
         SuiteSparse matrices span memory-bound (few nnz/row) to compute-bound
         (hundreds of nnz/row) regimes, and the format/schedule trade-offs
         differ across that axis. *)
      let per_row = Rng.choose rng [| 8; 16; 32; 64; 96; 160; 240 |] in
      let nnz =
        min max_nnz (max 64 (min (nrows * per_row) (nrows * ncols / 2)))
      in
      let m = generate rng family ~nrows ~ncols ~nnz in
      let m =
        if Rng.float rng < 0.33 then
          resize rng m
            ~nrows:(Rng.int_in rng (max_dim / 8) max_dim)
            ~ncols:(Rng.int_in rng (max_dim / 8) max_dim)
        else m
      in
      { name = Printf.sprintf "%s_%03d" (family_name family) idx; matrix = m })

(* 3-D tensor generators for MTTKRP (paper follows SpTFS's approach). *)
let tensor3_uniform rng ~dim_i ~dim_k ~dim_l ~nnz =
  let tbl = Hashtbl.create (2 * nnz) in
  let attempts = ref 0 in
  while Hashtbl.length tbl < nnz && !attempts < 20 * nnz do
    incr attempts;
    let c = (Rng.int rng dim_i, Rng.int rng dim_k, Rng.int rng dim_l) in
    if not (Hashtbl.mem tbl c) then Hashtbl.add tbl c (random_value rng)
  done;
  Tensor3.of_quads ~dim_i ~dim_k ~dim_l
    (Hashtbl.fold (fun (i, k, l) v acc -> (i, k, l, v) :: acc) tbl [])

let tensor3_blocked rng ~block ~dim_i ~dim_k ~dim_l ~nnz =
  let per_block = block * block * block in
  let nblocks = max 1 (nnz / per_block) in
  let tbl = Hashtbl.create (2 * nnz) in
  for _ = 1 to nblocks do
    let bi = Rng.int rng (max 1 (dim_i / block)) * block in
    let bk = Rng.int rng (max 1 (dim_k / block)) * block in
    let bl = Rng.int rng (max 1 (dim_l / block)) * block in
    for di = 0 to block - 1 do
      for dk = 0 to block - 1 do
        for dl = 0 to block - 1 do
          let c = (bi + di, bk + dk, bl + dl) in
          let i, k, l = c in
          if i < dim_i && k < dim_k && l < dim_l && not (Hashtbl.mem tbl c) then
            Hashtbl.add tbl c (random_value rng)
        done
      done
    done
  done;
  Tensor3.of_quads ~dim_i ~dim_k ~dim_l
    (Hashtbl.fold (fun (i, k, l) v acc -> (i, k, l, v) :: acc) tbl [])

(* Skewed 3-D tensor: heavy slices along mode 0. *)
let tensor3_skewed rng ~alpha ~dim_i ~dim_k ~dim_l ~nnz =
  let slice_of = Rng.permutation rng dim_i in
  let zipf = Rng.zipf_sampler ~alpha (min dim_i 2048) in
  let tbl = Hashtbl.create (2 * nnz) in
  let attempts = ref 0 in
  while Hashtbl.length tbl < nnz && !attempts < 20 * nnz do
    incr attempts;
    let c =
      ( slice_of.(zipf rng),
        Rng.int rng dim_k,
        Rng.int rng dim_l )
    in
    if not (Hashtbl.mem tbl c) then Hashtbl.add tbl c (random_value rng)
  done;
  Tensor3.of_quads ~dim_i ~dim_k ~dim_l
    (Hashtbl.fold (fun (i, k, l) v acc -> (i, k, l, v) :: acc) tbl [])

type named3 = { name3 : string; tensor : Tensor3.t }

(* Diverse corpus of named 3-D tensors for MTTKRP. *)
let tensor3_suite rng ~count ~max_dim ~max_nnz =
  List.init count (fun idx ->
      let dim () = Rng.int_in rng (max_dim / 4) max_dim in
      let dim_i = dim () and dim_k = dim () and dim_l = dim () in
      let nnz = min max_nnz (Rng.int_in rng (max_nnz / 16) max_nnz) in
      let kind = idx mod 3 in
      let t =
        if kind = 0 then tensor3_uniform rng ~dim_i ~dim_k ~dim_l ~nnz
        else if kind = 1 then
          tensor3_blocked rng ~block:(Rng.choose rng [| 2; 4 |]) ~dim_i ~dim_k ~dim_l ~nnz
        else tensor3_skewed rng ~alpha:1.3 ~dim_i ~dim_k ~dim_l ~nnz
      in
      let family = [| "t3unif"; "t3block"; "t3skew" |].(kind) in
      { name3 = Printf.sprintf "%s_%03d" family idx; tensor = t })
