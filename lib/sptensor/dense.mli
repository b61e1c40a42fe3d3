(** Dense vectors and row-major matrices: the dense operands of the kernels
    and the reference targets of differential tests. *)

type vec = float array

type mat = { rows : int; cols : int; data : float array (** row-major *) }

val vec_create : int -> vec
(** Zero vector. *)

val vec_init : int -> (int -> float) -> vec

val vec_random : Rng.t -> int -> vec
(** Entries uniform in [(-1, 1)]. *)

val mat_create : int -> int -> mat
(** Zero matrix. *)

val mat_init : int -> int -> (int -> int -> float) -> mat

val mat_random : Rng.t -> int -> int -> mat

val get : mat -> int -> int -> float

val set : mat -> int -> int -> float -> unit

val add_to : mat -> int -> int -> float -> unit
(** [add_to m i j v] accumulates [v] into [m.(i,j)]. *)

val vec_approx_equal : ?eps:float -> vec -> vec -> bool

val mat_approx_equal : ?eps:float -> mat -> mat -> bool
