(** The four sparse tensor algebra algorithms of the paper's evaluation
    (§5.1), with the structural facts the SuperSchedule and the cost
    simulator need. *)

type t =
  | Spmv  (** [C\[i\] = A\[i,k\] * B\[k\]] *)
  | Spmm of int  (** [C\[i,j\] = A\[i,k\] * B\[k,j\]]; the argument is [|j|] *)
  | Sddmm of int  (** [D\[i,j\] = A\[i,j\] * B\[i,k\] * C\[k,j\]]; argument [|k|] *)
  | Mttkrp of int  (** [D\[i,j\] = A\[i,k,l\] * B\[k,j\] * C\[l,j\]]; argument [|j|] *)

val name : t -> string

val of_name : string -> t option
(** Inverse of [name], with the paper's dense sizes ([|j|]=256 for
    SpMM/SDDMM, 16 for MTTKRP). *)

val sparse_rank : t -> int
(** Rank of the sparse operand A. *)

val dim_names : t -> string array

val dense_inner : t -> int
(** Trip count of the dense loop outside A's index space (0 if none). *)

val parallel_candidates : t -> int list
(** Derived variables eligible for [parallelize] (Table 3). *)

val flops_per_entry : t -> float
(** FLOPs per materialized value slot of A. *)

val pp : Format.formatter -> t -> unit
