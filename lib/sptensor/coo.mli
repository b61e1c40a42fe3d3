(** Coordinate-list sparse matrices: the canonical interchange representation.

    Entries are kept sorted row-major and duplicate-free (duplicates are
    summed at construction). *)

type t = private {
  nrows : int;
  ncols : int;
  rows : int array;  (** length nnz, sorted lexicographically by (row, col) *)
  cols : int array;
  vals : float array;
}

val nnz : t -> int

val density : t -> float
(** Fraction of positions that are nonzero. *)

val of_triplets : nrows:int -> ncols:int -> (int * int * float) list -> t
(** Builds from unordered triplets; sorts and sums duplicates.  Raises
    [Invalid_argument] on out-of-bounds coordinates. *)

val of_triplet_array : nrows:int -> ncols:int -> (int * int * float) array -> t
(** {!of_triplets} over an array (the input is never mutated). *)

val of_columns : nrows:int -> ncols:int -> int array -> int array -> float array -> t
(** [of_columns ~nrows ~ncols rows cols vals] builds from three equal-length
    columns with the validation of {!of_triplets}.  Columns already
    row-major sorted and duplicate-free — what the serving protocol decodes
    from a canonical encoder — are adopted as they are, without a copy, so
    the caller must not mutate them afterwards; any other input is sorted
    and summed exactly as {!of_triplets} does, on a copy.  Raises
    [Invalid_argument] on out-of-bounds coordinates or columns of
    different lengths. *)

val to_triplets : t -> (int * int * float) list
(** Triplets in storage (row-major) order. *)

val iter : (int -> int -> float -> unit) -> t -> unit
(** [iter f m] applies [f row col value] in storage order. *)

val row_ptr : t -> int array
(** CSR-style row-start offsets, length [nrows + 1]. *)

val nnz_per_row : t -> int array

val nnz_per_col : t -> int array

val transpose : t -> t

val equal : t -> t -> bool
(** Structural equality (exact values). *)

val approx_equal : ?eps:float -> t -> t -> bool
(** Same pattern, values within [eps] (default [1e-9]). *)

val to_dense : t -> Dense.mat

val of_dense : ?threshold:float -> Dense.mat -> t
(** Entries with [|v| > threshold] (default 0) become nonzeros. *)

val pp : Format.formatter -> t -> unit
