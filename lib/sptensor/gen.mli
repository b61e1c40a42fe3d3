(** Synthetic sparsity-pattern generators: the reproduction's stand-in for
    the SuiteSparse collection (see DESIGN.md).  The families cover the
    pattern axes the paper's analysis depends on: skewed vs uniform row
    degrees (load balancing), dense blocks (SIMD/register reuse), scattered
    fine structure (sparse-block cache effects), banded/mesh locality, and
    power-law graphs.  All generators are deterministic given an [Rng.t]. *)

type family =
  | Uniform
  | Power_law of float  (** row-degree Zipf exponent *)
  | Banded of int  (** half bandwidth *)
  | Block_dense of int  (** block edge; TSOPF-like *)
  | Rmat  (** Kronecker / R-MAT graph *)
  | Stencil2d  (** 5-point mesh on a [sqrt n x sqrt n] grid *)
  | Clustered of int  (** cluster edge *)

val family_name : family -> string

val all_families : family array

val uniform : Rng.t -> nrows:int -> ncols:int -> nnz:int -> Coo.t

val power_law : Rng.t -> alpha:float -> nrows:int -> ncols:int -> nnz:int -> Coo.t
(** A few heavy rows hold most of the nonzeros. *)

val banded : Rng.t -> half_bw:int -> nrows:int -> ncols:int -> nnz:int -> Coo.t

val block_dense : Rng.t -> block:int -> nrows:int -> ncols:int -> nnz:int -> Coo.t
(** Randomly placed fully dense aligned blocks of edge [block]. *)

val rmat : Rng.t -> nrows:int -> ncols:int -> nnz:int -> Coo.t
(** R-MAT recursive quadrant descent with quadrant weights 0.57, 0.19, 0.19
    and 0.05. *)

val clustered : Rng.t -> cluster:int -> nrows:int -> ncols:int -> nnz:int -> Coo.t

val generate : Rng.t -> family -> nrows:int -> ncols:int -> nnz:int -> Coo.t

val resize : Rng.t -> Coo.t -> nrows:int -> ncols:int -> Coo.t
(** The paper's dataset augmentation: rescale coordinates into a new shape
    (collisions sum). *)

(** {2 Named analogues of the paper's motivating matrices (Fig. 2)}

    ~8x smaller in dimension but with the original nnz/row, so each sits in
    the same compute/memory-bound regime. *)

val pli_like : Rng.t -> Coo.t
val tsopf_like : Rng.t -> Coo.t
val sparsine_like : Rng.t -> Coo.t
val bcsstk_like : Rng.t -> Coo.t
(** The bcsstk29 analogue used by the search-strategy comparison (Fig. 16). *)

(** {2 Corpora} *)

type named = { name : string; matrix : Coo.t }

val suite : Rng.t -> count:int -> max_dim:int -> max_nnz:int -> named list
(** A diverse corpus of named matrices — SuiteSparse in miniature.  A third
    are resize-augmented, mirroring §4.1.3. *)

(** {2 3-D tensors (MTTKRP workloads)} *)

val tensor3_uniform : Rng.t -> dim_i:int -> dim_k:int -> dim_l:int -> nnz:int -> Tensor3.t

val tensor3_blocked :
  Rng.t -> block:int -> dim_i:int -> dim_k:int -> dim_l:int -> nnz:int -> Tensor3.t

val tensor3_skewed :
  Rng.t -> alpha:float -> dim_i:int -> dim_k:int -> dim_l:int -> nnz:int -> Tensor3.t

type named3 = { name3 : string; tensor : Tensor3.t }

val tensor3_suite : Rng.t -> count:int -> max_dim:int -> max_nnz:int -> named3 list
