(** Sparsity-pattern feature extractors: WACONet (§4.1.1, Fig. 9) and the
    three alternatives it is compared against in Fig. 15.  All variants map
    a pattern to a {!Config.feature_dim}-vector:

    - [Waconet]: 5x5 stride-1 sparse conv over the raw pattern, then stride-2
      3x3 sparse convs; global-average-pool after every layer, concatenate,
      final linear;
    - [Minkowski]: stride-1 sparse convs with a single final pooling — its
      receptive field cannot bridge distant nonzeros (Fig. 8a);
    - [Dense_conv]: the conventional-CNN approach over a downsampled grid
      (losing local structure, Fig. 5);
    - [Human]: the (rows, cols, nnz) statistics through an MLP. *)

type kind = Human | Dense_conv | Minkowski | Waconet

val kind_name : kind -> string

(** Pattern input: raw sparse map, plus the downsampled map and log-scaled
    hand statistics, built on first use (only [Dense_conv] and [Human] read
    them) — built once per matrix and shared by all extractor kinds.  Each
    conv stack's coordinate pyramid is memoized on the input likewise, and
    freed with it.  Unsynchronized: one domain at a time per input. *)
type input = {
  id : string;  (** feature-memo key; unique per pattern *)
  smap : Nn.Smap.t;
  down : Nn.Smap.t Lazy.t;
  human : float array Lazy.t;
  mutable pyramids : pyramids;
}

and pyramids

val input_of_coo : id:string -> Sptensor.Coo.t -> input

val input_of_tensor3 : id:string -> Sptensor.Tensor3.t -> input
(** Via the mode-0 flattening. *)

val conv_layers : kind -> (int * int) list
(** [(ksize, stride)] per conv layer of the kind's stack, in order ([[]] for
    [Human]); [Dense_conv] runs it over the downsampled map. *)

type t = { kind : kind; body : body; out_dim : int }
and body

val create : Sptensor.Rng.t -> kind -> t

val params : t -> Nn.Param.t list

val replicate : t -> t
(** Forward-only copy for concurrent use on another domain: shares the
    parameters (which must not be updated meanwhile), owns fresh caches. *)

val forward : t -> input -> float array
(** Feature vector of one pattern; layer caches are retained for an
    immediately following {!backward}. *)

val backward : t -> float array -> unit
(** Accumulates parameter gradients from d(feature). *)
