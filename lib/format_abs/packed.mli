(** Physical packing of a sparse tensor into an arbitrary format [Spec]: a
    materialized coordinate hierarchy (Fig. 3 of the paper).  [Dense] (U)
    levels expand every parent position into [size] child slots, zero-filling
    absent ones — the padding a dense-blocked format pays for is visible to
    both the executors and the cost model.  [Compressed] (C) levels store
    explicit pos/crd arrays. *)

type level =
  | Dense of int  (** slot count per parent *)
  | Compressed of { pos : int array; crd : int array }

type t = {
  spec : Spec.t;
  levels : level array;
  vals : float array;  (** one slot per leaf position, zero-filled padding *)
  nnz : int;  (** logical (unpadded) nonzero count *)
}

val pack :
  ?budget:int -> Spec.t -> (int array * float) array -> (t, string) result
(** Packs entries (logical coordinates + value).  [Error] on duplicate
    coordinates or budget overflow. *)

val of_coo : ?budget:int -> Spec.t -> Sptensor.Coo.t -> (t, string) result
(** Rank-2 convenience wrapper; raises [Invalid_argument] on shape mismatch. *)

val of_tensor3 : ?budget:int -> Spec.t -> Sptensor.Tensor3.t -> (t, string) result

val iter_leaves : t -> (int array -> float -> unit) -> unit
(** Iterates stored leaf slots in storage (concordant) order; the callback
    receives logical coordinates and values of in-bounds slots (including
    stored padding zeros); out-of-bounds padding from non-divisible splits is
    skipped. *)

val to_coo : t -> Sptensor.Coo.t
(** Round-trip back to COO, dropping exact zeros (padding). *)

val to_quads : t -> (int * int * int * float) list
(** Rank-3 round-trip. *)

(** Physical storage accounting (4-byte indices and values, matching the
    paper's single-precision evaluation). *)
type storage = {
  pos_ints : int;
  crd_ints : int;
  nvals : int;
  bytes : int;
  fill_ratio : float;  (** logical nnz / materialized value slots *)
}

val storage_of : t -> storage

val pp : Format.formatter -> t -> unit
