(** Encoding of a SuperSchedule into the program embedder's inputs (Fig. 11):
    categorical parameters as one-hot vectors (for learnable lookup tables),
    permutation parameters as flattened permutation matrices (for linear-ReLU
    stacks). *)

type t = {
  split_onehots : float array array;  (** rank x |split_options| *)
  compute_perm : float array;  (** (2r)^2 row-major permutation matrix *)
  a_perm : float array;  (** (2r)^2 *)
  a_format_onehot : float array;  (** 2r x 2, flattened *)
  par_onehot : float array;  (** 2r *)
  threads_onehot : float array;  (** 2 *)
  chunk_onehot : float array;  (** |chunk_options| *)
}

val onehot : int -> int -> float array

val perm_matrix : int array -> float array

val encode : Superschedule.t -> t

val to_flat : t -> float array
(** Flat concatenation of all segments. *)

val flat_dim : rank:int -> int
