(* Dense vectors and row-major matrices used as the dense operands of the four
   kernels (SpMV's vector, SpMM/SDDMM/MTTKRP's factor matrices) and as
   reference outputs in differential tests. *)

type vec = float array

type mat = {
  rows : int;
  cols : int;
  data : float array; (* row-major, length rows*cols *)
}

let vec_create n = Array.make n 0.0

let vec_init n f = Array.init n f

let vec_random rng n = Array.init n (fun _ -> Rng.float_in rng (-1.0) 1.0)

let mat_create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let mat_init rows cols f =
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let mat_random rng rows cols =
  mat_init rows cols (fun _ _ -> Rng.float_in rng (-1.0) 1.0)

let get m i j = m.data.((i * m.cols) + j)

let set m i j v = m.data.((i * m.cols) + j) <- v

let add_to m i j v =
  let k = (i * m.cols) + j in
  m.data.(k) <- m.data.(k) +. v

(* Max absolute elementwise difference; infinity on shape mismatch. *)
let mat_max_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then infinity
  else begin
    let d = ref 0.0 in
    Array.iteri (fun k v -> d := Float.max !d (Float.abs (v -. b.data.(k)))) a.data;
    !d
  end

let vec_max_diff a b =
  if Array.length a <> Array.length b then infinity
  else begin
    let d = ref 0.0 in
    Array.iteri (fun k v -> d := Float.max !d (Float.abs (v -. b.(k)))) a;
    !d
  end

let vec_approx_equal ?(eps = 1e-6) a b = vec_max_diff a b <= eps

let mat_approx_equal ?(eps = 1e-6) a b = mat_max_diff a b <= eps
