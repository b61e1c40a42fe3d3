(** Submanifold sparse convolution (Graham & van der Maaten), the layer
    WACONet is built from: [out\[o\] = bias + sum_d W_d * in\[stride*o + d\]]
    with only present sites contributing.  Stride 1 keeps the site set
    (submanifold — activations never dilate); stride 2 halves coordinates,
    which is what lets stacked strided layers bridge distant nonzeros
    (Fig. 8).

    The kernel map is a flat structure-of-arrays: CSR-style [off_start]
    segment bounds over two parallel int arrays, one segment per kernel
    offset.  Per-offset pair order matches the historical boxed-pair builder
    exactly (descending input index), so float accumulation order — and
    trained model artifacts — are byte-identical (test/test_perf.ml). *)

type kernel_map = {
  out_coords : int array;  (** encoded [row * out_w + col] *)
  out_h : int;
  out_w : int;
  off_start : int array;
      (** length [ksize^2 + 1]: pairs of kernel offset [o] occupy
          [off_start.(o) .. off_start.(o+1) - 1] of the pair arrays *)
  pairs_in : int array;  (** input site index per pair *)
  pairs_out : int array;  (** output site index per pair *)
}

val map_npairs : kernel_map -> int
(** Total (input site, output site) pairs across all kernel offsets. *)

type t = {
  in_ch : int;
  out_ch : int;
  ksize : int;
  stride : int;
  w : Param.t;  (** [ksize^2] x out_ch x in_ch *)
  b : Param.t;
  mutable cache_map : kernel_map option;
  mutable cache_relu : bool;  (** the cached forward fused a ReLU *)
  mutable cache_in : float array;  (** grow-only; valid prefix below *)
  mutable cache_in_valid : int;
  mutable cache_nsites_out : int;
  mutable scratch_out : float array;  (** grow-only forward output *)
  mutable scratch_din : float array;  (** grow-only backward d(input) *)
}

val create :
  Sptensor.Rng.t -> name:string -> in_ch:int -> out_ch:int -> ksize:int ->
  stride:int -> t
(** Kernel size must be odd.  Biases start slightly positive so narrow deep
    layers don't go dead once the pyramid shrinks to a few sites. *)

val params : t -> Param.t list

val replicate : t -> t
(** Forward-only copy for concurrent use on another domain: shares the
    parameters (which must not be updated meanwhile), owns fresh caches and
    scratch buffers. *)

val build_map : ksize:int -> stride:int -> int array -> h:int -> w:int -> kernel_map
(** Kernel maps depend only on coordinates (flat-encoded, {!Smap.encode});
    build once per pattern and reuse across epochs (see {!Pyramid}).
    Stride 1 is a sorted sweep, fastest on row-major-sorted coordinates (the
    COO order); strided maps probe only the stride lattice (DESIGN.md §9). *)

val forward_into : t -> kernel_map -> src:float array -> dst:float array -> relu:bool -> unit
(** The layer's one forward kernel, run by {!forward_with_map} (DESIGN.md
    §9): writes bias + the map's pair products for the map's output sites
    into [dst] (site-major, [out_ch] per site), then an optional ReLU.  [src] holds the input features, [in_ch] per site.
    Accumulation order is fixed — bias first, kernel offsets ascending,
    pairs ascending, one ascending inner-channel chain per pair — and the
    1- and 6-channel fast paths keep it bit for bit.  Forward-only: no
    caching, zero allocation; raises [Invalid_argument] if [dst] is too
    short, the map has more offsets than the layer's kernel or malformed
    segments, or a pair index falls outside [src] or the output sites. *)

val forward_with_map : ?relu:bool -> t -> kernel_map -> Smap.t -> Smap.t
(** Forward over a prebuilt kernel map (the cached-pyramid fast path):
    {!forward_into} into this instance's scratch buffer, caching what
    {!backward} needs.  With [relu] (default [false]) the ReLU is fused and
    backward masks by this output.  The result's [feats] is the scratch
    buffer: valid until the next forward on the same instance; copy to
    retain. *)

val forward : t -> Smap.t -> Smap.t
(** Convenience: builds the map, then [forward_with_map]. *)

val backward : t -> float array -> float array
(** Accumulates dW, db from d(output feats); returns d(input feats) in this
    instance's scratch buffer (valid prefix = cached input size, valid until
    the next backward on the same instance).  Requires a preceding forward.
    After a [~relu:true] forward it first masks d(output)'s valid prefix in
    place where the forward's output is not [> 0], so pass a buffer no
    caller keeps. *)
