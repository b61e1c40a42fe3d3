(** Global average pooling over a sparse feature map: per-channel mean across
    sites.  WACONet pools after every layer and concatenates (Fig. 9).

    Results live in grow-only per-instance scratch buffers: valid until the
    next call on the same instance (DESIGN.md §9). *)

type t

val create : unit -> t

val forward_into :
  nsites:int -> channels:int -> src:float array -> dst:float array -> dst_off:int -> unit
(** The layer's one forward kernel, run by {!forward}: writes the
    per-channel mean of the first [nsites] site-major rows of [src]
    ([channels] per site) to [dst.(dst_off) .. dst.(dst_off + channels - 1)]
    (zeros for no sites).
    Zero allocation; raises [Invalid_argument] on a short [src] or [dst]. *)

val forward : t -> Smap.t -> float array
(** Valid prefix = channels; the result is this instance's scratch buffer. *)

val backward : t -> float array -> float array
(** d(feats) from d(pooled); requires a preceding forward.  The result is
    this instance's scratch buffer (valid prefix = nsites * channels). *)
