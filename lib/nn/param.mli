(** A trainable parameter tensor: flat data plus an accumulated gradient.
    Layers expose their parameters as [Param.t] lists so a single optimizer
    can drive any composition. *)

type t = { name : string; data : float array; grad : float array }

val create : name:string -> int -> t
(** Zero-initialized. *)

val xavier : Sptensor.Rng.t -> name:string -> fan_in:int -> fan_out:int -> int -> t
(** Glorot/Xavier-uniform initialization. *)

val zero_grads : t list -> unit

val size : t -> int

val dump : t -> Buffer.t -> unit

val grad_l2 : t list -> float
(** L2 norm over all accumulated gradients (training diagnostics). *)
