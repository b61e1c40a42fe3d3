(** A workload: one sparse operand plus memoized derived statistics.  The
    simulator evaluates many SuperSchedules against the same operand, so
    per-format storage analyses and per-dimension histograms are cached. *)

open Sptensor

type t = {
  id : string;
  dims : int array;
  nnz : int;
  coords : int array array;
      (** [coords.(d).(e)]: entry [e]'s logical coordinate on dim [d].  May
          share the source COO's or tensor's arrays; never written. *)
  vals : float array;  (** entry values, in the same entry order *)
  counts : int array array;
      (** [counts.(d).(x)] = nonzeros with logical coordinate [x] on dim [d] *)
  storage_cache : (string, Format_abs.Storage_model.t) Hashtbl.t;
  kernel_work_cache : (string, float array) Hashtbl.t;
      (** per-(kernel, parallel-variable) weighted work distributions,
          see {!kernel_work} *)
  cache_lock : Mutex.t;
      (** guards [storage_cache]: the parallel measurement paths share one
          workload across domains *)
}

val build : id:string -> dims:int array -> coords:int array array -> vals:float array -> t
(** Raises [Invalid_argument] unless there is one coordinate array per
    dimension and every array has one slot per value. *)

val of_coo : ?id:string -> Coo.t -> t
(** Shares the COO's row, column and value arrays (no copy). *)

val of_tensor3 : ?id:string -> Tensor3.t -> t
(** Shares the tensor's coordinate and value arrays (no copy). *)

val storage : t -> Format_abs.Spec.t -> Format_abs.Storage_model.t
(** Cached analytic storage of this workload under a format. *)

val work_per_var_value : t -> dim:int -> split:int -> is_top:bool -> int array
(** Nonzero count per value of a derived variable — the distribution the
    dynamic-scheduling simulation chunks up.  Top variables group [split]
    consecutive logical indices; bottoms stride across them. *)

val kernel_work :
  t ->
  algo:Schedule.Algorithm.t ->
  dim:int -> split:int -> is_top:bool ->
  float array
(** Per-kernel weighted work per value of the parallelized variable,
    memoized per (kernel, variable): nonzeros are weighted by the kernel's
    flops-per-entry, and when [dim] is the dense-output dimension (dim 0;
    not SDDMM, whose output is sparse) each owned logical index adds its
    output-write cost.  For [dim <> 0] this is a pure scaling of
    {!work_per_var_value}, so the chunk {e shares} — and hence the simulated
    makespan — coincide with the unweighted model there. *)
