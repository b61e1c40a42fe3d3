(** Fully-connected layer over a batch of row vectors, with a hand-written
    backward pass.  Forward caches its input; call [backward] at most once
    per forward.

    Results live in grow-only per-instance scratch buffers: valid until the
    next call on the same instance, possibly longer than the valid batch
    extent (DESIGN.md §9). *)

type t = {
  in_dim : int;
  out_dim : int;
  w : Param.t;  (** out_dim x in_dim, row-major *)
  b : Param.t;
  mutable cache_input : float array;
  mutable cache_batch : int;
  mutable cache_relu : bool;  (** the cached forward fused a ReLU *)
  mutable scratch_out : float array;  (** grow-only forward output *)
  mutable scratch_din : float array;  (** grow-only backward d(input) *)
}

val create : Sptensor.Rng.t -> name:string -> in_dim:int -> out_dim:int -> t

val params : t -> Param.t list

val replicate : t -> t
(** Forward-only copy for concurrent use on another domain: shares the
    parameters (which must not be updated meanwhile), owns fresh caches and
    scratch buffers. *)

val forward_into :
  ?cols:int * int ->
  ?seed:float array ->
  t ->
  batch:int ->
  src:float array ->
  src_off:int ->
  src_stride:int ->
  dst:float array ->
  dst_off:int ->
  dst_stride:int ->
  relu:bool ->
  unit
(** The layer's one forward kernel, used by {!forward} and by the cost
    model's split predictor tail (DESIGN.md §9): a blocked batched GEMM
    over strided row views, bias and an optional trailing ReLU fused in.
    Row [n] of the input occupies [src_off + n*src_stride ..+ in_dim];
    outputs land at [dst_off + n*dst_stride ..+ out_dim].  Each output cell
    is one ascending accumulation chain seeded with the bias, whatever the
    batch.  Forward-only (no caching), zero allocation.

    [cols = (lo, hi)] (default [(0, in_dim)]) reduces over weight columns
    [lo, hi) only; row [n]'s inputs then occupy
    [src_off + n*src_stride ..+ (hi - lo)].  [seed] (default the bias, at
    least [out_dim] long) is every row's accumulator start.  Running
    columns [(0, c)] without ReLU and feeding the output as the [seed] of
    columns [(c, in_dim)] is bitwise the unsplit forward. *)

val forward : ?relu:bool -> t -> batch:int -> float array -> float array
(** Caches the input for {!backward}, then {!forward_into} this instance's
    scratch buffer, which is returned (valid prefix [batch * out_dim]).
    Input length must be at least [batch * in_dim].  With [relu] (default
    [false]) the ReLU is fused and backward masks by this output. *)

val backward : t -> float array -> float array
(** Accumulates dW, db; returns d(input) in this instance's scratch buffer
    (valid prefix [batch * in_dim]).  After a [~relu:true] forward,
    d(output) counts only where that output is [> 0]; [dout] itself is not
    written. *)
