(** A sparse 2-D feature map: the activation type flowing through WACONet.
    Sites are nonzero coordinates, each carrying a [channels]-vector stored
    site-major in [feats].

    Coordinates are flat-encoded ints ([row * w + col]) — one unboxed word
    per site instead of a boxed pair, so coordinate walks and kernel-map
    construction stay cache-friendly and allocation-free (DESIGN.md §9).
    [feats] may be longer than [nsites * channels] when it is a layer's
    reused scratch buffer; only that prefix is meaningful. *)

type t = {
  h : int;
  w : int;
  coords : int array;  (** encoded [row * w + col] *)
  channels : int;
  feats : float array;  (** valid prefix = [nsites * channels] *)
}

val nsites : t -> int

val encode : w:int -> int -> int -> int
(** [encode ~w r c = r * w + c]. *)

val decode : w:int -> int -> int * int
(** Inverse of {!encode}; requires [w > 0]. *)

val row : t -> int -> int
(** Row of site [i]. *)

val col : t -> int -> int
(** Column of site [i]. *)

val coord : t -> int -> int * int
(** [(row, col)] of site [i] — compat accessor for pair-minded call sites. *)

val of_pairs :
  h:int -> w:int -> channels:int -> (int * int) array -> float array -> t
(** Compat constructor from coordinate pairs (used by tests). *)

val coords_pairs : t -> (int * int) array
(** All coordinates, decoded — allocates; for tests and diagnostics only. *)

val of_coo : ?max_sites:int -> Sptensor.Coo.t -> t
(** Single-channel input map of a pattern: one site per nonzero, feature 1.0.
    Patterns above [max_sites] are deterministically subsampled — unlike grid
    downsampling this keeps exact coordinates, so global structure and block
    alignment survive. *)

val downsample : Sptensor.Coo.t -> target:int -> t
(** The DenseConv baseline's input (§3.2.1): the pattern binned onto a
    [target x target] grid, every cell a site with feature [log1p count].
    Submanifold convolution over an all-sites map is exactly dense
    convolution. *)

val of_tensor3 : Sptensor.Tensor3.t -> t
(** 3-D tensors enter through their mode-0 flattening (SpTFS's approach). *)
