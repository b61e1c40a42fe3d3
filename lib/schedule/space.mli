(** The SuperSchedule parameter space (Table 3): menus, uniform and guided
    sampling, and the mutation/crossover operators the black-box search
    baselines use. *)

open Sptensor

val split_options : int array
(** Power-of-two split sizes (1..4096; the paper sweeps to 32768 on full-size
    SuiteSparse). *)

val chunk_options : int array
(** OpenMP dynamic chunk sizes, scaled with the corpus dimensions like the
    cache sizes (DESIGN.md). *)

val log2_index : int array -> int -> int option
(** Position of a value in a menu array. *)

val sample : Rng.t -> Algorithm.t -> dims:int array -> Superschedule.t
(** Uniform sample over the whole space. *)

val mutate : Rng.t -> dims:int array -> Superschedule.t -> Superschedule.t
(** Change one parameter at random. *)

val crossover : Rng.t -> Superschedule.t -> Superschedule.t -> Superschedule.t
(** Uniform parameter-wise crossover (permutations inherited whole). *)

val sample_guided : Rng.t -> Algorithm.t -> dims:int array -> Superschedule.t
(** A canonical format family (CSR / BCSR / sparse-block / CSC, or CSF
    variants at rank 3) with randomized scheduling parameters — the corpus
    mix-in that compensates for sampling hundreds instead of the paper's
    millions of tuples (uniform draws are concordant with probability
    1/(2r)! per tensor). *)

val sample_distinct :
  ?guided_fraction:float ->
  Rng.t -> Algorithm.t -> dims:int array -> count:int -> Superschedule.t list
(** Distinct samples by schedule key; [guided_fraction] (default 0.4)
    controls the uniform/structured mix. *)

val log10_size : Algorithm.t -> dims:int array -> float
(** log10 of the discrete space size (for reporting). *)
