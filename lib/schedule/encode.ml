(* Encoding of a SuperSchedule into the program embedder's inputs (Fig. 11):
   categorical parameters become one-hot vectors (consumed by learnable lookup
   tables), permutation parameters become flattened permutation matrices
   (consumed by linear-ReLU stacks). *)

type t = {
  split_onehots : float array array; (* rank x |split_options| *)
  compute_perm : float array; (* (2r)^2 row-major permutation matrix *)
  a_perm : float array; (* (2r)^2 *)
  a_format_onehot : float array; (* 2r x 2, flattened *)
  par_onehot : float array; (* 2r *)
  threads_onehot : float array; (* 2 *)
  chunk_onehot : float array; (* |chunk_options| *)
}

let onehot n i =
  let v = Array.make n 0.0 in
  if i >= 0 && i < n then v.(i) <- 1.0;
  v

let perm_matrix order =
  let n = Array.length order in
  (match Format_abs.Spec.permutation_error ~n order with
  | Some why -> invalid_arg ("Encode.perm_matrix: " ^ why)
  | None -> ());
  let m = Array.make (n * n) 0.0 in
  Array.iteri (fun pos v -> m.((pos * n) + v) <- 1.0) order;
  m

(* Menu slot of a split size. *)
let split_index s =
  match Space.log2_index Space.split_options s with
  | Some i -> i
  | None ->
      (* Non-menu sizes (possible after dim capping) map to the nearest
         power-of-two slot. *)
      let lg = int_of_float (Float.round (log (float_of_int (max 1 s)) /. log 2.0)) in
      min (Array.length Space.split_options - 1) (max 0 lg)

let chunk_index c =
  match Space.log2_index Space.chunk_options c with
  | Some i -> i
  | None ->
      let lg = int_of_float (Float.round (log (float_of_int (max 1 c)) /. log 2.0)) in
      min (Array.length Space.chunk_options - 1) (max 0 lg)

let encode (s : Superschedule.t) =
  let r = Algorithm.sparse_rank s.Superschedule.algo in
  let nsplit = Array.length Space.split_options in
  let fmt_onehot = Array.make (2 * r * 2) 0.0 in
  Array.iteri
    (fun lvl f ->
      let slot = match f with Format_abs.Levelfmt.U -> 0 | Format_abs.Levelfmt.C -> 1 in
      fmt_onehot.((lvl * 2) + slot) <- 1.0)
    s.a_formats;
  {
    split_onehots = Array.map (fun sz -> onehot nsplit (split_index sz)) s.splits;
    compute_perm = perm_matrix s.compute_order;
    a_perm = perm_matrix s.a_order;
    a_format_onehot = fmt_onehot;
    par_onehot = onehot (2 * r) s.par_var;
    threads_onehot =
      onehot 2 (match s.threads with Superschedule.Half -> 0 | Superschedule.Full -> 1);
    chunk_onehot = onehot (Array.length Space.chunk_options) (chunk_index s.chunk);
  }

(* Flat concatenation (for distance computations and simple models). *)
let to_flat e =
  Array.concat
    (Array.to_list e.split_onehots
    @ [
        e.compute_perm;
        e.a_perm;
        e.a_format_onehot;
        e.par_onehot;
        e.threads_onehot;
        e.chunk_onehot;
      ])

let flat_dim ~rank =
  let n = 2 * rank in
  (rank * Array.length Space.split_options)
  + (2 * n * n) + (n * 2) + n + 2
  + Array.length Space.chunk_options
