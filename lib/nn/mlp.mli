(** A stack of Linear layers with ReLU between them (and optionally after the
    last) — the "multiple linear-ReLU layers" building block used throughout
    the paper's cost model (Figs. 6, 9, 11). *)

type t

val create :
  Sptensor.Rng.t -> name:string -> dims:int array -> final_relu:bool -> t
(** [dims] are layer widths, e.g. [\[|in; hidden; out|\]]. *)

val params : t -> Param.t list

val replicate : t -> t
(** Forward-only copy for concurrent use on another domain: shares the
    parameters (which must not be updated meanwhile), owns fresh caches. *)

val out_dim : t -> int

val in_dim : t -> int

val layers : t -> Linear.t array
(** The underlying linear layers in forward order — read-only structural
    access for the cost model's split predictor tail, which runs the first
    layer over two column ranges (DESIGN.md §14). *)

val relu_after : t -> int -> bool
(** Whether the forward path applies a ReLU after layer [l] (always true for
    hidden layers; [final_relu] for the last). *)

val forward : t -> batch:int -> float array -> float array

val backward : t -> float array -> float array
(** Returns d(input); call once per forward. *)
