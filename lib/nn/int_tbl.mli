(** Open-addressing int -> int hash table over nonnegative keys (two flat int
    arrays, linear probing): zero allocation on the lookup path and fully
    deterministic — the output-site table behind strided
    {!Sparse_conv.build_map}. *)

type t

val create : int -> t
(** [create hint] sizes the table for about [hint] entries (it grows as
    needed).  Keys must be [>= 0]; values may be any int, but [find]'s
    conventional [-1] default is only unambiguous for nonnegative values. *)

val find : t -> int -> default:int -> int
(** The value bound to the key, or [default].  Allocates nothing. *)

val find_or_add : t -> int -> int -> int
(** [find_or_add t k v] is the value bound to [k]; an unbound [k] is first
    bound to [v] (so the result is [v]).  One probe sequence either way. *)
