(** The four baselines of §5.1, reimplemented against the cost simulator
    (substitutions documented in DESIGN.md):

    - [fixed_csr]: TACO with the fixed UC/CSR format (CCC/CSF for MTTKRP)
      and the default schedule;
    - [mkl] / [mkl_naive]: an inspector-executor in MKL's mould — format
      pinned to CSR, only the schedule tuned (SpMV/SpMM only);
    - [best_format]: best of five frequent formats with concordant default
      schedules — an oracle-of-5, {e stronger} than the paper's learned
      classifier, biasing results against WACO;
    - [aspt]: simplified Adaptive Sparse Tiling (SpMM/SDDMM only). *)

open Schedule
open Machine_model

type tuned = {
  name : string;
  kernel_time : float;  (** seconds per kernel invocation *)
  tuning_time : float;  (** one-off search/inspection cost *)
  convert_time : float;  (** one-off format-conversion cost *)
  description : string;
}

val fixed_csr : Machine.t -> Workload.t -> Algorithm.t -> tuned

val mkl_naive : Machine.t -> Workload.t -> Algorithm.t -> tuned
(** MKL without the inspector: CSR with static scheduling — the unit Fig. 17
    and Table 8 normalize against. *)

val mkl : Machine.t -> Workload.t -> Algorithm.t -> tuned
(** Raises [Invalid_argument] for SDDMM/MTTKRP (unsupported by MKL's sparse
    BLAS, per the paper). *)

val best_format : Machine.t -> Workload.t -> Algorithm.t -> tuned

val aspt : ?threshold:int -> Machine.t -> Workload.t -> Algorithm.t -> tuned
(** Column panels of width 256; (row, panel) segments with at least
    [threshold] nonzeros form the locality-friendly tiled portion, the rest
    stays CSR.  Raises [Invalid_argument] for SpMV/MTTKRP (the released ASpT
    artifacts cover SpMM and SDDMM only). *)
