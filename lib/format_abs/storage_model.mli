(** Analytic storage model: the pos/crd/value footprint of a format [Spec]
    over a pattern, computed in [O(nnz * levels)] without materializing it —
    so the cost simulator can price formats whose zero-fill would be too
    large to pack (the paper's dataset likewise excludes >1 min schedules,
    but the cost model must still rank them as bad).

    Exactness: validated against physical packing by property tests. *)

type t = {
  pos_ints : int;
  crd_ints : int;
  nvals : float;  (** may exceed array limits for pathological formats *)
  bytes : float;
  fill_ratio : float;
  level_positions : float array;  (** positions per level, root to leaf *)
  level_branching : float array;  (** average children per parent position *)
}

val scratch_cap : int
(** Key spaces up to this size intern through a direct-mapped per-domain
    array; larger ones fall back to a hashtable with the same output. *)

val analyze : Spec.t -> int array array -> t
(** The storage of a pattern given as per-dimension coordinate arrays:
    [coords.(d).(e)] is entry [e]'s logical coordinate on dimension [d],
    and every array has one slot per entry ([Invalid_argument] otherwise).
    The arrays are read, never written; the result does not depend on the
    entries' order. *)

val analyze_coo : Spec.t -> Sptensor.Coo.t -> t
