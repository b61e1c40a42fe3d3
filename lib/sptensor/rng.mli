(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every stochastic component of the reproduction draws from an explicit
    [Rng.t], so experiments are bit-reproducible from a single seed and
    independent streams can be split off without consumers coupling to each
    other's draw counts. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator deterministically seeded by [seed]. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val state : t -> int64
(** Raw state, for checkpoints. *)

val set_state : t -> int64 -> unit
(** Restore a state captured with {!state}: the generator continues the exact
    draw stream it would have produced. *)

val split : t -> t
(** [split t] advances [t] and returns a decorrelated child stream.  Splitting
    the same parent state twice yields the same child. *)

val bits : t -> int
(** 62 uniform random bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Raises [Invalid_argument] if [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val categorical : t -> float array -> int
(** [categorical t weights] samples an index with probability proportional to
    the (unnormalized, non-negative) [weights]; uniform if all are zero. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val zipf_sampler : alpha:float -> int -> t -> int
(** [zipf_sampler ~alpha n] draws power-law integers in [\[0, n)]: [P(k)]
    proportional to [(k+1)^-alpha].  The prefix table is built once, so
    each draw is a binary search; draws equal {!categorical}'s over the
    same weights.  With [n <= 0] each draw raises [Invalid_argument]. *)
