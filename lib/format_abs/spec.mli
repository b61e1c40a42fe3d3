(** A complete format specification for one sparse tensor, in the paper's
    SuperSchedule style: every logical index is split exactly once (split
    size 1 = no split), the derived levels are ordered by an arbitrary
    permutation, and each level is Uncompressed or Compressed.

    Derived-variable numbering: for logical dimension [d], the top (outer)
    variable is [2*d], the bottom (inner) one [2*d + 1]; the logical
    coordinate decomposes as [logical = top * split + bottom]. *)

type t = {
  dims : int array;  (** logical dimension sizes *)
  splits : int array;  (** inner split size per logical dim, >= 1 *)
  order : int array;  (** permutation of all [2*rank] derived vars, root->leaf *)
  formats : Levelfmt.t array;  (** one per level, aligned with [order] *)
}

val rank : t -> int

val nlevels : t -> int

val var_dim : int -> int
(** Logical dimension of a derived variable. *)

val var_is_top : int -> bool

val top_var : int -> int
(** [top_var d = 2*d]. *)

val bottom_var : int -> int
(** [bottom_var d = 2*d + 1]. *)

val var_size : t -> int -> int
(** Index-interval size of a derived variable: bottoms have the split size,
    tops cover [ceil (dim / split)] blocks. *)

val level_var : t -> int -> int

val level_size : t -> int -> int

val level_format : t -> int -> Levelfmt.t

val permutation_error : n:int -> int array -> string option
(** [None] when the array is a permutation of [0..n-1]; otherwise an
    explanation (wrong length, out-of-range entry, repeated entry).  The
    single helper every permutation-validation site routes through. *)

val is_permutation : int -> int array -> bool

val check : t -> Diag.t list
(** Non-throwing legality pass: every inconsistency as a [WACO-S00x]
    diagnostic ([]) when the spec is well-formed).  Single source of truth
    for the invariants; [validate] delegates here. *)

val validate : t -> unit
(** Raises [Invalid_argument] on the first error-level diagnostic of
    [check]. *)

val make :
  dims:int array -> splits:int array -> order:int array ->
  formats:Levelfmt.t array -> t
(** Validating constructor. *)

(** {2 Canonical constructions} *)

val csr_like : dims:int array -> t
(** Unsplit, row-major, compressed second level: CSR at rank 2 and its
    generalization at other ranks. *)

val csc : dims:int array -> t
(** Column-major CSC (rank 2 only). *)

val bcsr : dims:int array -> bi:int -> bk:int -> t
(** Block-CSR: the UCUU layout of the paper's Fig. 3(b). *)

val ucu : dims:int array -> bi:int -> t
(** One-dimensional row blocking (Fig. 14's subject). *)

val sparse_block : dims:int array -> bk:int -> t
(** The UUC sparse-block flavour of §5.2.1: large column split, inner level
    Compressed. *)

val csf : dims:int array -> t
(** Compressed sparse fiber for 3-D tensors. *)

(** {2 Naming and concordance} *)

val var_name : ?dim_names:string array -> int -> string
(** e.g. ["i1"], ["k0"]. *)

val name : t -> string
(** Compact name over levels with extent > 1, e.g. ["UC"], ["UCUU"]. *)

val describe : ?dim_names:string array -> t -> string
(** Full per-level description, e.g. ["i1(U,512)->k1(C,640)->..."]. *)

val discordant_levels : t -> compute_order:int array -> int
(** Number of positions where the storage order disagrees with the compute
    loop order restricted to this tensor's non-degenerate variables;
    discordant traversal forces searching within Compressed levels (§3.1). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
