(** The program embedder (§4.1.2, Fig. 11): SuperSchedule parameters in,
    program embedding out.  Categorical parameters pass learnable lookup
    tables (a bias-free linear over a one-hot {e is} a lookup table);
    permutation parameters go through linear-ReLU stacks over their
    permutation matrices; a final MLP mixes the concatenation. *)

open Schedule

type t

val create : Sptensor.Rng.t -> rank:int -> t

val params : t -> Nn.Param.t list

val replicate : t -> t
(** Forward-only copy for concurrent use on another domain: shares the
    parameters (which must not be updated meanwhile), owns fresh caches. *)

val out_dim : t -> int
(** = {!Config.embed_dim}. *)

val forward : t -> Superschedule.t array -> float array
(** Batched: one [Config.embed_dim] row per schedule.  Caches for
    {!backward}. *)

val backward : t -> float array -> unit
(** Accumulates parameter gradients from d(embeddings); one-hot inputs need
    no input gradient. *)
