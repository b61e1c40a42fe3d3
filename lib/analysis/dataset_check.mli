(** Collected-dataset artifact pass (codes [WACO-D00x]) over the
    [Dataset_io] on-disk layout ([tuples.txt] + MatrixMarket files):
    missing or unreadable matrices, non-finite runtimes, unparseable
    schedule encodings, duplicate (matrix, schedule) tuples, and
    unrecognized records.  Schedule legality ([WACO-S01x]) and — when the
    matrix loads — performance smells ([WACO-P00x]) are re-emitted anchored
    to the offending line. *)

val check : string -> Diag.t list
